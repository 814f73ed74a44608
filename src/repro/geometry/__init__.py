"""Spatial substrate: vectors, rectangles, metrics, overlap regions."""

from repro.geometry.metrics import (
    ChebyshevMetric,
    EuclideanMetric,
    Metric,
    metric_by_name,
)
from repro.geometry.rect import Rect, tile_world
from repro.geometry.sharding import ShardMap, grid_shape
from repro.geometry.regions import (
    ConsistencySet,
    OverlapCell,
    OverlapMapCache,
    OverlapRegion,
    PartitionIndex,
    RegionIndex,
    compute_overlap_map,
    consistency_set_at,
    decompose_partition,
    group_regions,
)
from repro.geometry.vec import Vec2

__all__ = [
    "ChebyshevMetric",
    "ConsistencySet",
    "EuclideanMetric",
    "Metric",
    "OverlapCell",
    "OverlapMapCache",
    "OverlapRegion",
    "PartitionIndex",
    "Rect",
    "RegionIndex",
    "ShardMap",
    "Vec2",
    "compute_overlap_map",
    "consistency_set_at",
    "decompose_partition",
    "grid_shape",
    "group_regions",
    "metric_by_name",
    "tile_world",
]
