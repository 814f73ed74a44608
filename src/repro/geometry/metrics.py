"""Game-specific distance metrics.

The paper lets each game define its own distance metric ``d(x, y)`` over
the game world.  The Matrix overlap-region machinery only needs two
operations from a metric:

* the set of points within distance R of an axis-aligned rectangle
  (for overlap computation) — exposed here as :meth:`Metric.expand_rect`;
* the distance from a point to a rectangle (the brute-force Equation 1
  of the coordinator's non-proximal queries) —
  :meth:`Metric.distance_to_rect`.

For the Chebyshev metric the R-neighbourhood of a rectangle is itself a
rectangle, which is the case the paper's axis-aligned bounding-box
computation handles exactly.
For the Euclidean metric the true set has rounded corners; expanding the
rectangle by R is the tight axis-aligned *over*-approximation, which
preserves correctness (consistency sets may only grow, never miss a
server).  Tests assert this conservativeness property.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.geometry.rect import Rect
from repro.geometry.vec import Vec2


class Metric(ABC):
    """A distance metric over the game world."""

    name: str = "abstract"

    @abstractmethod
    def distance(self, a: Vec2, b: Vec2) -> float:
        """Distance between two points."""

    def distance_to_rect(self, point: Vec2, rect: Rect) -> float:
        """Distance from *point* to the closed rectangle *rect*.

        The nearest point of the rectangle is the clamped one under any
        metric that grows with each per-axis gap (every Lp norm), so one
        ``distance`` call answers it for every metric.
        """
        return self.distance(point, rect.clamp_point(point))

    def expand_rect(self, rect: Rect, radius: float) -> Rect:
        """Axis-aligned superset of ``{p : d(p, rect) <= radius}``.

        Expanding every side by *radius* is exact for Chebyshev and a
        tight over-approximation for Euclidean.
        """
        return rect.expanded(radius)


class EuclideanMetric(Metric):
    """Ordinary L2 distance — the natural metric for open-field games."""

    name = "euclidean"

    def distance(self, a: Vec2, b: Vec2) -> float:
        # Not math.hypot: its last bit can differ, and the coordinator's
        # non-proximal queries compare this against the radius with <=.
        dx = a.x - b.x
        dy = a.y - b.y
        return (dx * dx + dy * dy) ** 0.5


class ChebyshevMetric(Metric):
    """L-infinity distance; visibility 'circles' are squares.

    This is the metric under which rectangle expansion is *exact*, and
    matches tile-based games where visibility is a square viewport.
    """

    name = "chebyshev"

    def distance(self, a: Vec2, b: Vec2) -> float:
        return max(abs(a.x - b.x), abs(a.y - b.y))


#: Registry of metrics by name.
METRICS: dict[str, type[Metric]] = {
    EuclideanMetric.name: EuclideanMetric,
    ChebyshevMetric.name: ChebyshevMetric,
}


def metric_by_name(name: str) -> Metric:
    """Instantiate a metric by *name*."""
    try:
        return METRICS[name]()
    except KeyError:
        raise ValueError(f"unknown metric {name!r}") from None
