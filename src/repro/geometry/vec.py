"""2-D points/vectors for game-world coordinates."""

from __future__ import annotations

import math

from repro.value import Value


class Vec2(Value):
    """An immutable 2-D point or displacement in game-world units."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to *other*."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def clamped(self, xmin: float, ymin: float, xmax: float, ymax: float) -> "Vec2":
        """Component-wise clamp into ``[xmin,xmax] x [ymin,ymax]``."""
        return Vec2(
            min(max(self.x, xmin), xmax),
            min(max(self.y, ymin), ymax),
        )

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)
