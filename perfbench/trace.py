"""Per-layer attribution from outside the program.

A layer is a directory under ``src/repro``; a sub-layer is a file (or
``core/runtime/``) that an optimisation is expected to hit.  Time comes
from a ``SIGPROF`` sampler (:class:`LayerSampler`), counts from the
run's result, ``TrafficStats`` and ``PerfConfig`` snapshot
(:func:`layer_metrics`).  Nothing under ``src/`` knows it is traced.
"""

from __future__ import annotations

import signal
from collections import Counter

LAYERS = (
    "sim", "net", "core", "games", "workload", "geometry", "baselines",
    "harness", "other",
)
#: Layers whose event callbacks start work (``sim`` and ``harness`` only
#: ever run somebody else's callback; ``geometry`` is only ever called).
OWNER_LAYERS = ("net", "core", "games", "workload", "baselines")
#: Path prefix below ``src/repro/`` -> sub-layer metric stem.
SUBLAYERS = {
    "sim/events.py": "sim.events",
    "sim/sharded.py": "sim.sharded",
    "net/queue.py": "net.queue",
    "net/stats.py": "net.stats",
    "net/middleware.py": "net.middleware",
    "net/sharded.py": "net.sharded",
    "core/runtime/": "core.runtime",
    "games/grid.py": "games.grid",
}

#: Requested sampling interval; the kernel delivers at its own tick
#: (250 Hz on the reference host), which ``trace.samples`` reveals.
INTERVAL_S = 0.001


def layer_of(relative_path: str) -> tuple[str, str | None]:
    """``(layer, sub-layer or None)`` of a path relative to ``src/repro``.

    Directories outside :data:`LAYERS` (``perf``, ``analysis``,
    ``chaos`` ...) and files directly in the package are ``other``.
    """
    head, _, rest = relative_path.partition("/")
    layer = head if rest and head in LAYERS else "other"
    for prefix, sublayer in SUBLAYERS.items():
        if relative_path.startswith(prefix):
            return layer, sublayer
    return layer, None


_IGNORE = object()


class LayerSampler:
    """Charges CPU-time samples to layers by walking the Python stack.

    Each sample goes to the innermost frame under *package_dir* — C
    builtins and the standard library therefore land on the layer that
    called them — and, separately, to its *owner*: the layer whose event
    callback caused the work, i.e. the frame the outermost ``sim`` frame
    (the kernel's event loop) called into.  Work outside any event, such
    as result assembly, is owned by the layer it is in.  Samples that
    land in *ignore_files* (the benchmark's own speed probe) are dropped,
    not charged.
    """

    def __init__(self, package_dir: str, ignore_files: tuple[str, ...] = ()):
        self._prefix = package_dir.rstrip("/") + "/"
        self._where: dict[str, object] = dict.fromkeys(ignore_files, _IGNORE)
        self.self_samples: Counter[str] = Counter()
        self.owner_samples: Counter[str] = Counter()
        self.samples = 0
        self._previous = None

    def start(self) -> None:
        handler = signal.signal(signal.SIGPROF, self._sample)
        timer = signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._previous = (handler, timer)

    def stop(self) -> None:
        handler, timer = self._previous
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF, handler)

    def _sample(self, signum, frame) -> None:
        where_of = self._where
        inner = owner = called = None
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                where = where_of[filename]
            except KeyError:
                where = where_of[filename] = (
                    layer_of(filename[len(self._prefix):])
                    if filename.startswith(self._prefix)
                    else None
                )
            if where is _IGNORE:
                return
            if where is not None:
                if inner is None:
                    inner = where
                # Walking outwards: *called* is the nearest layer inside
                # the frame at hand, so at the last ``sim`` frame passed
                # it is what the event loop called.
                if where[0] == "sim":
                    owner = called or owner
                elif where[0] != "harness":
                    called = where[0]
            frame = frame.f_back
        layer, sublayer = inner or ("other", None)
        self.samples += 1
        self.self_samples[layer] += 1
        if sublayer is not None:
            self.self_samples[sublayer] += 1
        self.owner_samples[owner or layer] += 1


def layer_metrics(outcome, sampler: LayerSampler, run_s: float) -> dict:
    """Every per-layer metric one traced run can give, by name."""
    result = outcome.result
    traffic = result.traffic
    perf = result.perf_snapshot

    def counter(name: str) -> int:
        return perf["counters"].get(name, {}).get("count", 0)

    total = sampler.samples
    seconds = {
        name: run_s * count / total
        for name, count in sampler.self_samples.items()
    }
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = seconds.get(layer, 0.0)
        metrics[f"{layer}.share"] = sampler.self_samples[layer] / total
    for layer in OWNER_LAYERS:
        metrics[f"{layer}.owner_share"] = sampler.owner_samples[layer] / total
    for sublayer in SUBLAYERS.values():
        metrics[f"{sublayer}.self_s"] = seconds.get(sublayer, 0.0)

    events = result.events_processed
    messages = traffic.total.messages
    snapshots = traffic.kind_messages("gs.snapshot")
    windows = counter("shard.windows")
    step = perf["timers"].get("sim.step", {})
    metrics.update(
        {
            "sim.events": events,
            "sim.pending_mean": perf["samplers"]
            .get("sim.pending_events", {})
            .get("mean", 0.0),
            "sim.step_p50_us": step.get("p50_us", 0.0),
            "sim.step_p99_us": step.get("p99_us", 0.0),
            "sim.sharded.windows": windows,
            "sim.sharded.events_per_window": events / windows if windows else 0.0,
            "sim.sharded.cross_border": counter("shard.cross_border"),
            "sim.sharded.lane_wall_s": perf["timers"]
            .get("shard.lane_wall", {})
            .get("total_s", 0.0),
            "net.messages": messages,
            "net.bytes": traffic.total.bytes,
            "net.undeliverable": outcome.experiment.network.undeliverable_count,
            "net.queue.peak": result.max_queue(),
            "net.queue.dropped": getattr(result, "dropped_packets", 0),
            "net.profile_cache_misses": counter("net.profile_cache_misses"),
            "core.splits": getattr(result, "splits_completed", 0),
            "core.reclaims": getattr(result, "reclaims_completed", 0),
            "core.failed_splits": getattr(result, "failed_splits", 0),
            "core.forwards": traffic.kind_messages("matrix.forward"),
            "core.mc_messages": traffic.kind_messages("mc."),
            "games.snapshots": snapshots,
            "games.switches": traffic.kind_messages("gs.switch"),
            "workload.clients_total": len(outcome.experiment.fleet.clients),
            "workload.joins": traffic.kind_messages("client.hello"),
            "geometry.region_index_builds": counter("geometry.region_index_builds"),
            "geometry.overlap_recomputed": counter("geometry.overlap_recomputed"),
            "geometry.overlap_reused": counter("geometry.overlap_reused"),
            "sim.ns_per_event": seconds.get("sim", 0.0) / events * 1e9,
            "net.ns_per_msg": seconds.get("net", 0.0) / messages * 1e9,
            "games.us_per_snapshot": seconds.get("games", 0.0) / snapshots * 1e6,
            "trace.samples": total,
        }
    )
    return metrics
