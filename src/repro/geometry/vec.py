"""2-D points/vectors for game-world coordinates."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Vec2:
    """An immutable 2-D point or displacement in game-world units."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def length(self) -> float:
        """Euclidean norm."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to *other*."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Vec2":
        """Unit vector in this direction; zero vector stays zero."""
        norm = self.length()
        if norm == 0.0:
            return Vec2(0.0, 0.0)
        return Vec2(self.x / norm, self.y / norm)

    def clamped(self, xmin: float, ymin: float, xmax: float, ymax: float) -> "Vec2":
        """Component-wise clamp into ``[xmin,xmax] x [ymin,ymax]``."""
        return Vec2(
            min(max(self.x, xmin), xmax),
            min(max(self.y, ymin), ymax),
        )

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)
