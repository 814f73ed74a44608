"""Layer probes: direct timed calls into single layers' public functions.

Workload-independent companions of the traced run.  Where a workload's
``<layer>.self_s`` says *how much* of a run a layer took, a probe says
what one operation of that layer costs in isolation, so a change to one
layer can be sized before any scenario is run.  Inputs are drawn from
``--seed``; every value is the median over :data:`BATCHES` batches, in
host time scaled to the reference host by the same
:class:`~perfbench.speed.SpeedProbe` the end-to-end runs use.

``python3 -m perfbench.probes '{"seed": 1}'`` prints one JSON object,
probe name -> value.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from perfbench import speed

BATCHES = 31
#: Operations per timed batch: a batch lasts a few milliseconds.
OPS = 2000
RADIUS = 60.0
ENTITIES = 600


def probes(rng: random.Random) -> dict:
    """Probe name -> ``(factory, nanoseconds or microseconds per second)``.

    A factory builds one batch's state untimed and returns
    ``(run, operations)``; only ``run()`` is timed.
    """
    from repro import MatrixExperiment
    from repro.games.grid import SpatialGrid
    from repro.games.packets import PlayerUpdate
    from repro.games.profile import profile_by_name
    from repro.geometry import (
        OverlapMapCache, Rect, RegionIndex, Vec2, decompose_partition,
        metric_by_name, tile_world,
    )
    from repro.net.message import Message
    from repro.net.middleware import KindMetricsStage
    from repro.net.network import Network
    from repro.net.node import Node, handles
    from repro.net.stats import TrafficStats
    from repro.sim.kernel import Simulator
    from repro.workload.mobility import MobilityEnv, mobility_builder

    world = Rect(0.0, 0.0, 800.0, 800.0)
    metric = metric_by_name("euclidean")
    tiles = {f"ms.{i}": rect for i, rect in enumerate(tile_world(world, 4, 4))}

    def noop() -> None:
        return None

    def drain():
        sim = Simulator()

        def ticker(delay: float):
            def tick() -> None:
                sim.after(delay, tick)

            return tick

        for _ in range(256):
            delay = rng.uniform(1e-4, 1e-2)
            sim.after(delay, ticker(delay))
        return (lambda: sim.run(max_events=OPS)), OPS

    def schedule():
        sim = Simulator()
        delays = [rng.random() for _ in range(OPS)]

        def run() -> None:
            after = sim.after
            for delay in delays:
                after(delay, noop)

        return run, OPS

    class Sink(Node):
        def __init__(self, name: str, service_rate: float = float("inf")):
            super().__init__(name, service_rate=service_rate)
            self.received = 0

        @handles("probe")
        def _on_probe(self, message) -> None:
            self.received += 1

    def send(service_rate: float = float("inf"), staged: bool = False):
        def factory():
            sim = Simulator()
            network = Network(sim, rng=random.Random(rng.getrandbits(32)))
            source = network.add_node(Sink("a"))
            sink = network.add_node(Sink("b", service_rate=service_rate))
            if staged:
                source.use(KindMetricsStage())
                sink.use(KindMetricsStage())
            sizes = [rng.randrange(32, 512) for _ in range(OPS)]

            def run() -> None:
                for size in sizes:
                    source.send("b", "probe", None, size)
                sim.run()
                if sink.received != OPS:
                    raise RuntimeError(f"probe lost messages: {sink.received}")

            return run, OPS

        return factory

    def stats_record():
        names = [f"node.{i}" for i in range(64)]
        kinds = ["client.update", "gs.snapshot", "game.spatial", "matrix.forward"]
        messages = [
            Message(
                src=rng.choice(names),
                dst=rng.choice(names),
                kind=rng.choice(kinds),
                payload=None,
                size_bytes=rng.randrange(32, 512),
            )
            for _ in range(OPS)
        ]
        stats = TrafficStats()

        def run() -> None:
            record = stats.record
            for message in messages:
                record(message)

        return run, OPS

    def entities(dense: bool) -> list:
        if dense:
            center, sigma = world.center, 0.9 * RADIUS
            return [
                (f"e{i}", world.clamp_point(Vec2(
                    rng.gauss(center.x, sigma), rng.gauss(center.y, sigma)
                )))
                for i in range(ENTITIES)
            ]
        return [
            (f"e{i}", world.sample_point(rng.random(), rng.random()))
            for i in range(ENTITIES)
        ]

    def grid_query(dense: bool):
        def factory():
            placed = entities(dense)
            grid = SpatialGrid(RADIUS)
            for entity_id, position in placed:
                grid.insert(entity_id, position)

            def run() -> None:
                for entity_id, position in placed:
                    grid.count_within(position, RADIUS, 64, exclude_id=entity_id)

            return run, ENTITIES

        return factory

    def grid_rebuild():
        placed = entities(dense=True)
        grid = SpatialGrid(RADIUS)

        def run() -> None:
            grid.clear()
            for entity_id, position in placed:
                grid.insert(entity_id, position)

        return run, ENTITIES

    def region_lookup():
        owner = rng.choice(sorted(tiles))
        index = RegionIndex(
            tiles[owner], decompose_partition(owner, tiles, RADIUS, metric)
        )
        reach = tiles[owner].expanded(RADIUS / 4)  # some packets are foreign
        points = [
            reach.sample_point(rng.random(), rng.random()) for _ in range(OPS)
        ]

        def run() -> None:
            lookup = index.lookup_or_none
            for point in points:
                lookup(point)

        return run, OPS

    def overlap_map():
        cache = OverlapMapCache(metric)
        cache.compute(tiles, (RADIUS,))
        victim = rng.choice(sorted(tiles))
        after = dict(tiles)
        after[victim], after[victim + ".child"] = tiles[victim].halves("x")
        return (lambda: cache.compute(after, (RADIUS,))), 1

    def mobility_step():
        env = MobilityEnv(
            world=world,
            speed=25.0,
            rng=random.Random(rng.getrandbits(32)),
            center=world.center,
            spread=0.9 * RADIUS,
        )
        movers = [
            [mobility_builder(kind, env)(), world.sample_point(rng.random(), rng.random())]
            for kind in ("random_waypoint", "hotspot")
            for _ in range(50)
        ]

        def run() -> None:
            for _ in range(OPS // len(movers)):
                for mover in movers:
                    mover[1] = mover[0].step(mover[1], 0.5)

        return run, OPS

    def spatial():
        experiment = MatrixExperiment(
            profile_by_name("bzflag"), grid=(2, 1), seed=rng.getrandbits(32)
        )
        server = min(
            experiment.deployment.game_servers.values(),
            key=lambda handle: handle.map_range.xmin,
        )
        owned = server.map_range
        band = Rect(owned.xmax - RADIUS, owned.ymin, owned.xmax, owned.ymax)
        origins = [
            band.sample_point(rng.random(), rng.random()) for _ in range(OPS // 2)
        ]
        sim = experiment.sim
        sim.run(until=1.0)  # the coordinator's overlap tables arrive
        forwarded = experiment.network.stats.by_kind["matrix.forward"]

        def run() -> None:
            for seq, origin in enumerate(origins):
                server.port.send_spatial(
                    origin, PlayerUpdate("probe", origin, seq), 64
                )
            sim.run(until=sim.now + 2.0)
            if forwarded.messages != len(origins):
                raise RuntimeError(f"probe forwarded {forwarded.messages}")

        return run, len(origins)

    ns, us = 1e9, 1e6
    return {
        "sim.probe.drain_ns_per_event": (drain, ns),
        "sim.probe.schedule_ns": (schedule, ns),
        "net.probe.send_ns_per_msg": (send(), ns),
        "net.probe.queued_ns_per_msg": (send(service_rate=1e4), ns),
        "net.probe.stats_record_ns": (stats_record, ns),
        "net.probe.pipeline_ns_per_msg": (send(staged=True), ns),
        "games.probe.grid_dense_query_ns": (grid_query(dense=True), ns),
        "games.probe.grid_sparse_query_ns": (grid_query(dense=False), ns),
        "games.probe.grid_rebuild_ns_per_entity": (grid_rebuild, ns),
        "geometry.probe.region_lookup_ns": (region_lookup, ns),
        "geometry.probe.overlap_map_us": (overlap_map, us),
        "workload.probe.mobility_step_ns": (mobility_step, ns),
        "core.probe.spatial_ns_per_packet": (spatial, ns),
    }


def main(seed: int) -> dict:
    rng = random.Random(seed)
    probe = speed.SpeedProbe()
    probe.start()
    table = probes(rng)
    seconds_per_op = {}
    for name, (factory, _) in table.items():
        samples = []
        for _ in range(BATCHES):
            run, operations = factory()
            started = time.perf_counter()
            run()
            ended = time.perf_counter()
            samples.append(
                (ended - started - probe.slice_time(started, ended)) / operations
            )
        seconds_per_op[name] = statistics.median(samples)
    probe.stop()
    scale = probe.scale()
    return {
        name: seconds * scale * table[name][1]
        for name, seconds in seconds_per_op.items()
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1])["seed"])))
