"""Tests for the space-partitioned kernel.

Two layers, mirroring the module:

* engine unit tests — the :class:`ShardedSimulator` facade, cross-lane
  deferral and cancellation, the window-boundary edge cases (an event
  scheduled at exactly the barrier time, and at exactly the horizon),
  stop and re-entrancy, and the exchange flag each barrier writer sets;
* Matrix determinism — the engine's reason to exist: byte-identical
  ``TrafficStats`` (canonical digest) and sweep metrics for shards=1
  vs shards=2/4 on fig2-hotspot, steady-churn and lossy-wan, plus a
  literal golden so the oracle is not only compared with itself.
"""

import hashlib

import pytest

from repro.analysis.stats import p99_or_zero
from repro.core.config import LoadPolicyConfig, PerfConfig
from repro.games.profile import profile_by_name
from repro.geometry import Rect, Vec2
from repro.geometry.sharding import ShardMap
from repro.harness.compare import scaled_profile, scaled_run_arguments
from repro.harness.runner import run_scenario
from repro.net import ConstantLatency, LinkProfile, Node, handles
from repro.net.sharded import ShardedNetwork
from repro.sim import RngRegistry
from repro.sim.kernel import SimulationError
from repro.sim.sharded import ShardedSimulator
from repro.workload.scenarios import build_scenario


# ----------------------------------------------------------------------
# Engine unit tests
# ----------------------------------------------------------------------
class TestShardedSimulatorFacade:
    def test_validation(self):
        with pytest.raises(SimulationError):
            ShardedSimulator(0)

    def test_run_requires_positive_lookahead(self):
        engine = ShardedSimulator(2)
        engine.lane(0).at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="lookahead"):
            engine.run(until=2.0)

    def test_max_events_unsupported(self):
        engine = ShardedSimulator(1, lookahead=0.5)
        with pytest.raises(SimulationError, match="max_events"):
            engine.run(until=1.0, max_events=10)

    def test_single_lane_runs_like_the_classic_kernel(self):
        engine = ShardedSimulator(1, lookahead=0.5)
        trace = []
        engine.lane(0).at(0.25, lambda: trace.append(("a", engine.now)))
        engine.lane(0).at(0.75, lambda: trace.append(("b", engine.now)))
        engine.at(0.5, lambda: trace.append(("g", engine.now)))  # global
        engine.run(until=1.0)
        assert [label for label, _ in trace] == ["a", "g", "b"]
        assert [t for _, t in trace] == [0.25, 0.5, 0.75]
        assert engine.events_processed == 3
        assert engine.now == 1.0

    def test_event_at_exact_barrier_runs_in_next_window(self):
        """The window-boundary edge case: a lane drains *strictly*
        before the barrier, so an event landing at exactly the barrier
        instant executes in the following window — at every shard
        count, which is what keeps the schedule executor-independent."""
        engine = ShardedSimulator(2, lookahead=0.5)
        trace = []
        lane0 = engine.lane(0)

        def a():
            trace.append(("a", engine.now, engine.windows_run))
            # First barrier is min-event + lookahead = 1.0 + 0.5: this
            # lands exactly ON it.
            lane0.at(1.5, b)

        def b():
            trace.append(("b", engine.now, engine.windows_run))

        lane0.at(1.0, a)
        engine.run(until=3.0)
        assert [entry[:2] for entry in trace] == [("a", 1.0), ("b", 1.5)]
        window_of_a, window_of_b = trace[0][2], trace[1][2]
        assert window_of_b == window_of_a + 1

    def test_event_at_exact_horizon_still_executes(self):
        """Lane events at exactly ``until`` run (the final inclusive
        drain), matching the classic kernel's inclusive run(until)."""
        engine = ShardedSimulator(2, lookahead=0.5)
        ran = []
        engine.lane(1).at(3.0, lambda: ran.append(engine.now))
        engine.run(until=3.0)
        assert ran == [3.0]
        assert engine.now == 3.0

    def test_global_lane_runs_before_lane_events_at_same_instant(self):
        """At a barrier the control lane executes at exactly B; lane
        events at B belong to the next window.  Ties between control
        and shard work therefore order the same at any shard count."""
        engine = ShardedSimulator(2, lookahead=0.5)
        order = []
        engine.at(2.0, lambda: order.append("global"))
        engine.lane(0).at(2.0, lambda: order.append("lane"))
        engine.run(until=2.0)
        assert order == ["global", "lane"]

    def test_cross_lane_after_uses_the_callers_clock(self):
        """``after`` from inside a window resolves against the ACTIVE
        lane's clock, not the (lagging) target lane's — a cross-lane
        relative schedule means the same instant at any shard count."""
        engine = ShardedSimulator(2, lookahead=0.5)
        times = []

        def src():
            engine.lane(1).after(0.6, lambda: times.append(engine.now))

        engine.lane(0).at(1.0, src)
        engine.run(until=3.0)
        assert times == [1.6]

    def test_cross_lane_schedule_inside_lookahead_rejected(self):
        engine = ShardedSimulator(2, lookahead=0.5)
        engine.lane(0).at(
            1.0, lambda: engine.lane(1).after(0.2, lambda: None)
        )
        with pytest.raises(SimulationError, match="lookahead"):
            engine.run(until=3.0)

    def test_deferred_cross_lane_event_can_be_cancelled(self):
        """A cross-lane schedule is cancellable until its barrier
        injection; a cancelled deferral never reaches the target heap."""
        engine = ShardedSimulator(2, lookahead=0.5)
        ran = []
        holder = {}

        def src():
            holder["event"] = engine.lane(1).after(
                1.0, lambda: ran.append("dst")
            )

        engine.lane(0).at(1.0, src)
        engine.lane(0).at(1.4, lambda: engine.cancel(holder["event"]))
        engine.run(until=3.0)
        assert ran == []

    def test_cancelling_through_the_facade_is_accounted_on_the_holding_heap(self):
        """``engine.cancel`` must tell the heap that holds the event:
        the live count is ``len(heap) - cancelled``, so a cancellation
        nobody accounted reads as a live event until the discard, and
        as a negative ``cancelled`` after it."""
        engine = ShardedSimulator(2, lookahead=0.5)
        engine.cancel(engine.after(1.0, lambda: None))
        engine.at(5.0, lambda: None)
        assert engine.pending_events == 1
        engine.run(until=2.0)  # discards the cancelled entry
        assert engine.pending_events == 1
        engine.run(until=6.0)
        assert engine.pending_events == 0

    def test_cancelling_a_deferred_event_leaves_the_target_heap_alone(self):
        """A cross-lane schedule cancelled before its barrier is in no
        heap; cancelling it through the target lane must not hide one
        of that lane's live events."""
        engine = ShardedSimulator(2, lookahead=0.5)
        target = engine.lane(1)
        target.at(3.0, lambda: None)  # the one live event

        def src():
            target.cancel(target.after(1.0, lambda: None))
            assert target.pending_events == 1

        engine.lane(0).at(1.0, src)
        engine.run(until=2.0)  # the barrier drops the deferral
        assert target.pending_events == 1
        assert engine.pending_events == 1

    def test_facade_cancel_of_heaped_and_deferred_handles_keeps_pending_exact(
        self,
    ):
        """``engine.cancel`` finds the heap holding an entry by identity:
        lane 0 holds an entry equal to lane 1's (same time, lane-local
        seq and callback), and cancelling lane 1's must be accounted on
        lane 1.  A deferred handle is in no heap and is only marked."""
        engine = ShardedSimulator(2, lookahead=0.5)

        def live_entries(slot):
            return sum(
                1 for entry in engine.lane(slot)._heap if entry[2] is not None
            )

        def noop():
            return None

        engine.lane(0).at(5.0, noop)
        heaped = engine.lane(1).at(5.0, noop)
        twin = engine.lane(0)._heap[0]
        assert heaped == twin and heaped is not twin
        counts = []

        def src():
            deferred = engine.lane(1).after(1.0, noop)
            counts.append(engine.pending_events)  # the deferral is in no heap
            engine.cancel(heaped)
            engine.cancel(deferred)
            engine.cancel(deferred)
            counts.append(engine.pending_events)
            counts.append((engine.lane(0).pending_events, live_entries(0)))
            counts.append((engine.lane(1).pending_events, live_entries(1)))

        engine.lane(0).at(1.0, src)
        engine.run(until=2.0)  # the barrier drops the cancelled deferral
        assert counts == [2, 1, (1, 1), (0, 0)]
        assert engine.pending_events == 1
        assert engine.lane(1).pending_events == live_entries(1) == 0
        engine.run(until=6.0)
        assert engine.pending_events == 0

    def test_ring_of_lanes_delivers_every_cross_lane_ping_on_time(self):
        """Every lane ticks locally and pings its neighbour: each ping
        lands 0.6 s after the tick that sent it, and each lane sees its
        events in time order."""
        shards = 3
        engine = ShardedSimulator(shards, lookahead=0.5)
        traces: dict[int, list] = {i: [] for i in range(shards)}
        due: dict[int, list] = {i: [] for i in range(shards)}

        def install(i: int) -> None:
            lane = engine.lane(i)
            target = (i + 1) % shards

            def tick():
                traces[i].append(("tick", engine.now))
                if engine.now < 2.0:
                    lane.after(0.3, tick)
                    due[target].append(engine.now + 0.6)
                    engine.lane(target).after(
                        0.6, lambda: traces[target].append(("ping", engine.now))
                    )

            lane.at(0.1 * (i + 1), tick)

        for i in range(shards):
            install(i)
        engine.run(until=3.0)
        for i in range(shards):
            times = [time for _, time in traces[i]]
            assert times == sorted(times)
            pings = [time for kind, time in traces[i] if kind == "ping"]
            assert pings == due[i] and len(pings) >= 6

    @pytest.mark.parametrize("shards", [1, 2])
    def test_stop_takes_effect_at_the_barrier_at_any_shard_count(self, shards):
        """Every lane finishes the window a stop was called in — the
        stopping one included — and the clock lands on its barrier;
        the global lane's events at that barrier wait for the next
        run.  (Lane 1 is lane 0 at one shard.)"""
        engine = ShardedSimulator(shards, lookahead=0.5)
        fired = []

        def a():
            fired.append("a")
            engine.lane(0).stop()  # a node's ``self.sim.stop()``

        engine.lane(0).at(0.1, a)
        engine.lane(0).at(0.12, lambda: fired.append("c"))
        engine.lane(shards - 1).at(0.15, lambda: fired.append("b"))
        engine.at(0.6, lambda: fired.append("g"))
        engine.lane(0).at(0.7, lambda: fired.append("d"))
        engine.run(until=2.0)
        assert fired == ["a", "c", "b"]
        assert engine.now == 0.6
        engine.run(until=2.0)
        assert fired == ["a", "c", "b", "g", "d"]
        assert engine.now == 2.0

    def test_run_from_inside_an_event_raises(self):
        engine = ShardedSimulator(2, lookahead=0.5)
        refused = []

        def inner():
            for run in (engine.run, engine.lane(0).run, engine.lane(1).run):
                with pytest.raises(SimulationError, match="re-entrantly"):
                    run()
                refused.append(run)

        engine.lane(0).at(1.0, inner)
        engine.run(until=2.0)
        assert len(refused) == 3

    def test_perf_counters_track_windows(self):
        from repro.perf import PerfRegistry

        perf = PerfRegistry()
        engine = ShardedSimulator(2, lookahead=0.5, perf=perf)
        engine.lane(0).at(1.0, lambda: None)
        engine.run(until=2.0)
        snapshot = perf.snapshot()
        windows = engine.windows_run
        assert snapshot["counters"]["shard.windows"]["count"] == windows
        assert snapshot["timers"]["shard.lane_wall"]["count"] == 2 * windows


class Probe(Node):
    """Logs each ``probe`` as ``(name, arrival, window it ran in)``."""

    def __init__(self, name, log, x=None):
        super().__init__(name)
        if x is not None:
            self.shard_anchor = Vec2(x, 50)
        self._log = log

    @handles("probe")
    def _on_probe(self, message):
        self._log.append((self.name, self.sim.now, self.network.sim.windows_run))


def lanes_network():
    """Two lanes (x < 50, x >= 50) and a constant 10 ms link, which is
    also the lookahead."""
    engine = ShardedSimulator(2)
    network = ShardedNetwork(
        engine,
        ShardMap(Rect(0, 0, 100, 100), 2),
        RngRegistry(seed=1),
        default_profile=LinkProfile(ConstantLatency(0.01), 1e9),
    )
    engine.lookahead = network.minimum_cross_latency()
    return engine, network


class TestExchangeFlag:
    """Barrier exchange runs only after a window that set
    ``exchange_pending``.  In each run below one writer is the only
    cross-lane work there is, so a writer that did not set the flag
    would leave its work unapplied; each is applied at the barrier it
    always was, with the same arrival times and delivery counts."""

    def test_a_deferred_schedule(self):
        engine = ShardedSimulator(2, lookahead=0.5)
        trace = []
        handle = {}

        def src():
            handle["entry"] = engine.lane(1).after(
                0.6, lambda: trace.append(("dst", engine.now, engine.windows_run))
            )

        def look():  # the global lane, at the barrier closing src's window
            trace.append(("seq", handle["entry"][1], engine.windows_run))

        engine.lane(0).at(1.0, src)
        engine.at(1.5, look)
        engine.run(until=3.0)
        assert trace == [("seq", -1, 1), ("dst", 1.6, 2)]
        assert engine.windows_run == 3
        assert engine.pending_events == 0

    def test_a_node_removal_with_empty_outboxes(self):
        engine, network = lanes_network()
        log = []
        source = network.add_node(Probe("a", log, 10))
        network.add_node(Probe("c", log, 20))  # the sender's lane

        def send(payload):
            source.send("c", "probe", payload, 0)

        def send_then_remove():
            send(2)  # arrives on the barrier the removal is applied at
            network.remove_node("c")

        source.sim.at(0.5, send, 1)
        source.sim.at(1.0, send_then_remove)
        engine.run(until=2.0)
        assert log == [("c", 0.51, 2)]
        assert not network.has_node("c")
        assert (network.delivered_count, network.undeliverable_count) == (1, 1)
        assert network.cross_border_count == 0
        assert engine.windows_run == 5

    def test_a_global_lane_send_into_a_lane(self):
        engine, network = lanes_network()
        log = []
        control = network.add_node(Probe("g", log))  # no anchor: global lane
        network.add_node(Probe("b", log, 90))
        engine.at(1.0, lambda: control.send("b", "probe", None, 0))
        engine.run(until=2.0)
        assert log == [("b", 1.01, 2)]
        assert (network.delivered_count, network.undeliverable_count) == (1, 0)
        assert network.cross_border_count == 1
        assert engine.windows_run == 3


# ----------------------------------------------------------------------
# Matrix determinism: what the engine is kept for
# ----------------------------------------------------------------------
def run_sharded(
    name: str,
    scale: float,
    preview: float,
    shards: int,
    seed: int = 3,
    **options,
):
    scenario = build_scenario(name)
    return run_scenario(
        scenario,
        profile=scaled_profile(profile_by_name(scenario.game), scale),
        scale=scale,
        preview=preview,
        policy=LoadPolicyConfig().scaled(scale),
        seed=seed,
        shards=shards,
        **options,
    )


def matrix_row(name: str, scale: float, preview: float, shards: int) -> dict:
    """One sharded scenario run, reduced to its deterministic outputs."""
    outcome = run_sharded(name, scale, preview, shards)
    result = outcome.result
    return {
        "traffic_digest": result.traffic.canonical_digest(),
        "events": result.events_processed,
        "messages": result.traffic.total.messages,
        "bytes": result.traffic.total.bytes,
        "splits": result.splits_completed,
        "reclaims": result.reclaims_completed,
        "server_events": tuple(
            (event.time, event.kind, event.matrix_server, event.game_server)
            for event in outcome.experiment.deployment.events
        ),
    }


#: fig2-hotspot, scale 0.2, preview 40 s, seed 3, shards=2, as the
#: engine with per-lane accounting slots and three executors produced
#: it (commit 3e29abb) — the numbers the collapse to one serial-lane
#: engine had to keep.
HOTSPOT_2_SHARDS = {
    "traffic_sha256": (
        "aa318b74edf688015e8205ec717269ff9914856a14a408b18e1df711daa99177"
    ),
    "events": 75452,
    "messages": 36210,
    "bytes": 6708168,
    "windows_run": 35118,
    "cross_border_count": 3112,
    "delivered_count": 36197,
    "undeliverable_count": 0,
}
HOTSPOT_2_SHARDS_PERF = {
    "shard.cross_border": {"count": 3112, "value": 688376.0},
    "shard.windows": {"count": 35118, "value": 0.0},
}


class TestMatrixShardDeterminism:
    def test_fig2_hotspot_identical_at_any_shard_count(self):
        """Byte-identical TrafficStats (canonical digest) and event
        totals for shards=1 vs shards ∈ {2, 4}, through the split
        cascade of the paper's §4.1 hotspot."""
        reference = matrix_row("fig2-hotspot", 0.2, 40.0, shards=1)
        assert reference["events"] > 0
        assert reference["traffic_digest"]
        for shards in (2, 4):
            assert (
                matrix_row("fig2-hotspot", 0.2, 40.0, shards=shards)
                == reference
            )

    @pytest.mark.parametrize("perf", [False, True], ids=["plain", "perf"])
    def test_fig2_hotspot_two_shards_matches_the_pinned_golden(self, perf):
        """The oracle itself is pinned: the run's digest, totals, window
        grid and network counters are literals, and with ``PerfConfig``
        on the perf counters say the same."""
        outcome = run_sharded(
            "fig2-hotspot", 0.2, 40.0, shards=2,
            perf=PerfConfig(enabled=True) if perf else None,
        )
        result = outcome.result
        network = outcome.experiment.network
        assert {
            "traffic_sha256": hashlib.sha256(
                result.traffic.canonical_digest().encode()
            ).hexdigest(),
            "events": result.events_processed,
            "messages": result.traffic.total.messages,
            "bytes": result.traffic.total.bytes,
            "windows_run": outcome.experiment.sim.windows_run,
            "cross_border_count": network.cross_border_count,
            "delivered_count": network.delivered_count,
            "undeliverable_count": network.undeliverable_count,
        } == HOTSPOT_2_SHARDS
        if perf:
            counters = result.perf_snapshot["counters"]
            assert {
                name: counters[name] for name in HOTSPOT_2_SHARDS_PERF
            } == HOTSPOT_2_SHARDS_PERF

    def test_steady_churn_identical_at_any_shard_count(self):
        """Same bar under membership churn (joins/leaves dominate)."""
        reference = matrix_row("steady-churn", 0.25, 30.0, shards=1)
        assert reference["events"] > 0
        assert matrix_row("steady-churn", 0.25, 30.0, shards=4) == reference

    def test_sweep_metrics_identical_across_shard_counts(self):
        """The metrics of the ``run`` fan-out row (the sweep's), on the
        scaled run a CLI ``run`` builds, are byte-identical whatever the
        shard count."""
        arguments = scaled_run_arguments(
            build_scenario("steady-churn"), "matrix", 0.25, 3, preview=30.0
        )
        rows = []
        for shards in (1, 4):
            result = run_scenario(**arguments, shards=shards).result
            rows.append((
                result.events_processed,
                result.max_queue(),
                p99_or_zero(result.action_latencies),
                result.servers_used,
            ))
        assert rows[0] == rows[1]
        assert rows[0][0] > 0

    def test_chaos_armed_runs_refuse_sharding(self):
        with pytest.raises(ValueError, match=r"crash chaos faults \(ServerCrash\)"):
            run_scenario(
                "crash-during-split",
                scale=0.1,
                preview=30.0,
                seed=3,
                shards=2,
            )

    def test_link_degrade_chaos_identical_at_any_shard_count(self):
        """Barrier-aligned LinkDegrade windows survive sharding: the
        lossy-wan chaos scenario produces byte-identical traffic AND an
        identical fault report at shards 1, 2 and 4."""

        def chaos_row(shards: int) -> dict:
            outcome = run_sharded("lossy-wan", 0.15, 25.0, shards)
            report = outcome.experiment.chaos.report()
            return {
                "traffic_digest": (
                    outcome.result.traffic.canonical_digest()
                ),
                "events": outcome.result.events_processed,
                "link_dropped": report.link_dropped,
                "link_duplicated": report.link_duplicated,
                "faults": tuple(
                    (fault.fault, fault.at, fault.status)
                    for fault in report.faults
                ),
            }

        reference = chaos_row(1)
        assert reference["events"] > 0
        assert reference["link_dropped"] > 0
        assert chaos_row(2) == reference
        assert chaos_row(4) == reference

    def test_only_the_serial_executor_is_left(self):
        """perfbench still passes ``shard_executor="serial"``; the
        removed executors are refused by name, not ignored."""
        with pytest.raises(ValueError, match="thread and process"):
            run_sharded(
                "fig2-hotspot", 0.1, 5.0, shards=2, shard_executor="process"
            )
        outcome = run_sharded(
            "fig2-hotspot", 0.1, 5.0, shards=2, shard_executor="serial"
        )
        assert outcome.result.events_processed > 0
