"""Axis-aligned rectangles.

Matrix map partitions are axis-aligned rectangles (the paper notes the
Matrix Coordinator's overlap computation is "a particularly easy
computation ... if the map partitions are rectangular in shape").  The
convention throughout this codebase is *half-open* rectangles
``[xmin, xmax) x [ymin, ymax)`` so that a set of partitions can tile the
world with every point belonging to exactly one partition.
"""

from __future__ import annotations

from repro.geometry.vec import Vec2
from repro.value import Value


class Rect(Value):
    """A half-open axis-aligned rectangle ``[xmin,xmax) x [ymin,ymax)``."""

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(
        self, xmin: float, ymin: float, xmax: float, ymax: float
    ) -> None:
        self.xmin = xmin
        self.ymin = ymin
        self.xmax = xmax
        self.ymax = ymax
        if xmax < xmin or ymax < ymin:
            raise ValueError(f"degenerate rect: {self}")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Vec2:
        return Vec2((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def is_empty(self) -> bool:
        """True when the rectangle contains no points (zero width/height)."""
        return self.width == 0.0 or self.height == 0.0

    # ------------------------------------------------------------------
    # Point / rect predicates
    # ------------------------------------------------------------------
    def contains(self, p: Vec2) -> bool:
        """Half-open containment test."""
        return self.xmin <= p.x < self.xmax and self.ymin <= p.y < self.ymax

    def contains_closed(self, p: Vec2) -> bool:
        """Closed containment (includes the max edges); for boundary checks."""
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping rectangle, or ``None`` when interiors are disjoint."""
        xmin = max(self.xmin, other.xmin)
        ymin = max(self.ymin, other.ymin)
        xmax = min(self.xmax, other.xmax)
        ymax = min(self.ymax, other.ymax)
        if xmin >= xmax or ymin >= ymax:
            return None
        return Rect(xmin, ymin, xmax, ymax)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def expanded(self, margin: float) -> "Rect":
        """Minkowski expansion by *margin* on every side.

        Under the Chebyshev (L-inf) metric, ``expanded(R)`` is exactly the
        set of points within distance R of this rectangle, which is what
        makes overlap regions rectangular.  Negative margins shrink; the
        result is clamped to a point if over-shrunk.
        """
        xmin = self.xmin - margin
        ymin = self.ymin - margin
        xmax = self.xmax + margin
        ymax = self.ymax + margin
        if xmax < xmin:
            xmin = xmax = (xmin + xmax) / 2.0
        if ymax < ymin:
            ymin = ymax = (ymin + ymax) / 2.0
        return Rect(xmin, ymin, xmax, ymax)

    def split_vertical(self, x: float) -> tuple["Rect", "Rect"]:
        """Split at vertical line *x* into (left, right)."""
        if not (self.xmin < x < self.xmax):
            raise ValueError(f"split x={x} outside ({self.xmin}, {self.xmax})")
        return (
            Rect(self.xmin, self.ymin, x, self.ymax),
            Rect(x, self.ymin, self.xmax, self.ymax),
        )

    def split_horizontal(self, y: float) -> tuple["Rect", "Rect"]:
        """Split at horizontal line *y* into (bottom, top)."""
        if not (self.ymin < y < self.ymax):
            raise ValueError(f"split y={y} outside ({self.ymin}, {self.ymax})")
        return (
            Rect(self.xmin, self.ymin, self.xmax, y),
            Rect(self.xmin, y, self.xmax, self.ymax),
        )

    def halves(self, axis: str = "x") -> tuple["Rect", "Rect"]:
        """Two equal halves along *axis* ('x' → left/right, 'y' → bottom/top)."""
        if axis == "x":
            return self.split_vertical((self.xmin + self.xmax) / 2.0)
        if axis == "y":
            return self.split_horizontal((self.ymin + self.ymax) / 2.0)
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")

    def union_bounds(self, other: "Rect") -> "Rect":
        """Smallest rectangle containing both (bounding box of the union)."""
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def clamp_point(self, p: Vec2) -> Vec2:
        """Closest point of the (closed) rectangle to *p*."""
        return p.clamped(self.xmin, self.ymin, self.xmax, self.ymax)

    def distance_to_point(self, p: Vec2) -> float:
        """Euclidean distance from *p* to the closed rectangle (0 inside)."""
        return self.clamp_point(p).distance_to(p)

    def sample_point(self, u: float, v: float) -> Vec2:
        """Point at fractional coordinates ``(u, v)`` in ``[0,1)^2``."""
        return Vec2(self.xmin + u * self.width, self.ymin + v * self.height)


def tile_world(bounds: Rect, columns: int, rows: int) -> list[Rect]:
    """Tile *bounds* into a ``columns x rows`` grid of equal rectangles.

    Used by the static-partitioning baseline and by tests.  Tiles are
    listed row-major, bottom row first.
    """
    if columns < 1 or rows < 1:
        raise ValueError("grid must be at least 1x1")
    tiles: list[Rect] = []
    for j in range(rows):
        for i in range(columns):
            tiles.append(
                Rect(
                    bounds.xmin + bounds.width * i / columns,
                    bounds.ymin + bounds.height * j / rows,
                    bounds.xmin + bounds.width * (i + 1) / columns,
                    bounds.ymin + bounds.height * (j + 1) / rows,
                )
            )
    return tiles
