"""Behavioural tests for the generic game server and client."""

import random

from repro.core.config import METRIC, LoadPolicyConfig
from repro.core.messages import SetRange
from repro.games.base import ClientRecord, GameClient, GameServer
from repro.games.profile import GameProfile, bzflag_profile
from repro.geometry import Rect, Vec2
from repro.harness.compare import scaled_profile
from repro.harness.experiment import MatrixExperiment
from repro.harness.runner import run_scenario
from repro.workload.mobility import Stationary


class MarchRight:
    """Test mobility: walk right at a fixed rate."""

    def __init__(self, step):
        self._step = step

    def step(self, position, dt):
        return Vec2(position.x + self._step * dt, position.y)


def grid_experiment(seed=0):
    experiment = MatrixExperiment(bzflag_profile(), seed=seed, grid=(2, 1))
    return experiment


def add_client(experiment, name, position, mobility=None):
    client = GameClient(
        name=name,
        profile=experiment.profile,
        mobility=mobility or Stationary(),
        rng=random.Random(1),
        relocate=experiment.deployment.locate_game_server,
    )
    experiment.network.add_node(client)
    client.join(experiment.deployment.locate_game_server(position), position)
    return client


def test_join_welcome_activates_client():
    experiment = grid_experiment()
    client = add_client(experiment, "client.1", Vec2(100, 400))
    experiment.sim.run(until=2.0)
    assert client.active
    assert client.server == "gs.1"
    gs = experiment.deployment.game_servers["gs.1"]
    assert gs.client_count == 1


def test_updates_flow_and_snapshots_return():
    experiment = grid_experiment()
    client = add_client(experiment, "client.1", Vec2(100, 400))
    experiment.sim.run(until=10.0)
    assert client.updates_sent >= 15
    traffic = experiment.network.stats
    # gs.1 tags each update it processes and hands it to ms.1.
    assert traffic.kind_messages("game.spatial") >= 15
    assert traffic.kind_messages("gs.snapshot") >= 8
    assert client._last_snapshot_at > 9.0


def test_action_latency_measured():
    experiment = grid_experiment()
    client = add_client(experiment, "client.1", Vec2(100, 400))
    experiment.sim.run(until=40.0)
    assert client.actions_sent >= 1
    assert client.action_latencies, "snapshot acks must resolve actions"
    # Latency is bounded by queueing + snapshot period + WAN legs.
    assert all(0.0 < lat < 3.0 for lat in client.action_latencies)


def test_leave_removes_client_from_server():
    experiment = grid_experiment()
    client = add_client(experiment, "client.1", Vec2(100, 400))
    experiment.sim.run(until=3.0)
    client.leave()
    experiment.sim.run(until=5.0)
    gs = experiment.deployment.game_servers["gs.1"]
    assert gs.client_count == 0
    assert not client.active


def test_silent_client_pruned_by_liveness_timeout():
    experiment = grid_experiment()
    client = add_client(experiment, "client.1", Vec2(100, 400))
    experiment.sim.run(until=3.0)
    # Kill the client's update loop without a goodbye (crash).
    client._update_task.stop()
    experiment.sim.run(until=20.0)
    gs = experiment.deployment.game_servers["gs.1"]
    assert gs.client_count == 0


def test_border_crossing_switches_server():
    experiment = grid_experiment()
    client = add_client(
        experiment, "client.1", Vec2(370.0, 400.0), mobility=MarchRight(20.0)
    )
    experiment.sim.run(until=15.0)
    assert client.server == "gs.2"
    assert len(client.switch_latencies) == 1
    assert all(0.0 < lat < 1.0 for lat in client.switch_latencies)
    assert experiment.deployment.game_servers["gs.2"].client_count == 1
    assert experiment.deployment.game_servers["gs.1"].client_count == 0


def test_handoff_hysteresis_prevents_flapping():
    """A client loitering exactly on the border switches at most once
    per deep crossing, not every tick."""
    class Wobble:
        def __init__(self):
            self._t = 0

        def step(self, position, dt):
            self._t += 1
            # +-2 units around the border at x=400.
            x = 400.0 + (2.0 if self._t % 2 else -2.0)
            return Vec2(x, position.y)

    experiment = grid_experiment()
    client = add_client(
        experiment, "client.1", Vec2(398.0, 400.0), mobility=Wobble()
    )
    experiment.sim.run(until=30.0)
    assert len(client.switch_latencies) <= 1


def test_cross_border_visibility_via_matrix():
    """Two clients on either side of the border must see each other
    (ghost entities) even though they live on different servers."""
    experiment = grid_experiment()
    left = add_client(experiment, "client.1", Vec2(380.0, 400.0))
    right = add_client(experiment, "client.2", Vec2(420.0, 400.0))
    experiment.sim.run(until=10.0)
    gs1 = experiment.deployment.game_servers["gs.1"]
    gs2 = experiment.deployment.game_servers["gs.2"]
    assert experiment.network.stats.kind_messages("matrix.deliver") > 0
    assert "client.2" in gs1._ghosts
    assert "client.1" in gs2._ghosts


def test_interior_clients_produce_no_cross_traffic():
    experiment = grid_experiment()
    add_client(experiment, "client.1", Vec2(100.0, 400.0))
    add_client(experiment, "client.2", Vec2(700.0, 400.0))
    experiment.sim.run(until=10.0)
    gs1 = experiment.deployment.game_servers["gs.1"]
    gs2 = experiment.deployment.game_servers["gs.2"]
    assert gs1._ghosts == {} and gs2._ghosts == {}
    traffic = experiment.network.stats
    assert traffic.kind_messages("matrix.forward") == 0
    assert traffic.kind_messages("matrix.deliver") == 0


def test_ghosts_expire():
    experiment = grid_experiment()
    left = add_client(experiment, "client.1", Vec2(380.0, 400.0))
    add_client(experiment, "client.2", Vec2(420.0, 400.0))
    experiment.sim.run(until=10.0)
    gs2 = experiment.deployment.game_servers["gs.2"]
    assert "client.1" in gs2._ghosts
    left.leave()
    experiment.sim.run(until=25.0)
    assert "client.1" not in gs2._ghosts


def test_snapshot_counts_nearby_entities():
    experiment = grid_experiment()
    clients = [
        add_client(experiment, f"client.{i}", Vec2(100.0 + i, 400.0))
        for i in range(1, 6)
    ]
    experiment.sim.run(until=6.0)
    # Every snapshot is sized by the four other clients in view.
    snapshots = experiment.network.stats.by_kind["gs.snapshot"]
    profile = experiment.profile
    assert snapshots.messages >= 5 * 4  # 5 clients x >=4 ticks
    assert snapshots.bytes == snapshots.messages * (
        profile.snapshot_base_bytes + 4 * profile.snapshot_per_entity_bytes
    )


class SendRecordingClient(GameClient):
    """A client whose sends are recorded in ``said``, not transmitted
    (``GameClient`` has slots, so a test cannot patch ``send`` on an
    instance of it)."""

    def send(self, dst, kind, payload, size_bytes):
        self.said.append((dst, kind))


def test_leave_says_goodbye_to_server_then_pending():
    """Send order decides which goodbye takes which latency draw, so
    it must not come from a hash-ordered set."""
    for i in range(8):
        client = SendRecordingClient(
            "client.1", bzflag_profile(), Stationary(), random.Random(1)
        )
        said = client.said = []
        client.server, client._pending = f"gs.{i}", f"gs.{i + 8}"
        client.leave()
        assert said == [(f"gs.{i}", "client.bye"), (f"gs.{i + 8}", "client.bye")]
        assert client.server is None and client._pending is None

    client.server = client._pending = "gs.1"
    said.clear()
    client.leave()
    assert said == [("gs.1", "client.bye")]


def test_snapshot_excludes_self_and_own_stale_ghost():
    """For ``ghost_lifetime`` after a handoff back, a client's own
    ghost sits in the grid beside it.  Neither counts for that client;
    the ghost still counts for everybody else (as it always did)."""
    profile = GameProfile(
        name="crowded",
        world=Rect(0.0, 0.0, 400.0, 400.0),
        visibility_radius=60.0,
        max_visible_entities=12,
    )
    experiment = MatrixExperiment(profile, seed=0)
    server = experiment.deployment.game_servers["gs.1"]
    rng = random.Random(7)

    def somewhere():
        spread = rng.choice([15.0, 120.0])  # capped and uncapped counts
        return profile.world.clamp_point(
            Vec2(rng.gauss(200.0, spread), rng.gauss(200.0, spread))
        )

    entities = []  # (id, position) of everything alive in the tick
    for i in range(60):
        record = ClientRecord(client_id=f"client.{i}", position=somewhere())
        server._clients[record.client_id] = record
        entities.append((record.client_id, record.position))
    for i in range(0, 60, 3):  # own ghosts: in range, or anywhere
        at = server._clients[f"client.{i}"].position
        ghost_at = somewhere() if i % 2 else Vec2(at.x, min(at.y + 5.0, 399.0))
        server._ghosts[f"client.{i}"] = (ghost_at, 10.0)
        entities.append((f"client.{i}", ghost_at))
    server._ghosts["client.away"] = (Vec2(200.0, 200.0), 10.0)
    entities.append(("client.away", Vec2(200.0, 200.0)))
    server._ghosts["client.gone"] = (Vec2(200.0, 200.0), -1.0)  # expired

    seen = {}  # client -> entities its snapshot is sized by
    base = profile.snapshot_base_bytes
    per_entity = profile.snapshot_per_entity_bytes
    server.send = lambda dst, kind, snapshot, size_bytes: seen.update(
        {dst: (size_bytes - base) / per_entity}
    )
    server._snapshot_tick()

    assert "client.gone" not in server._ghosts
    assert len(seen) == 60
    for client_id, record in server._clients.items():
        in_range = sum(
            1
            for entity_id, at in entities
            if entity_id != client_id
            and (at.x - record.position.x) ** 2 + (at.y - record.position.y) ** 2
            <= 60.0 * 60.0
        )
        assert seen[client_id] == min(in_range, 12)
    counts = set(seen.values())
    assert 12 in counts and min(counts) < 12


def fresh_rectangles(deployment):
    """(cached, recomputed) pairs for every per-packet rectangle."""
    for server in deployment.game_servers.values():
        yield server._handoff_range, server.map_range.expanded(
            server._handoff_margin
        )
    for server in deployment.matrix_servers.values():
        ctx = server.ctx
        yield ctx.reach, METRIC.expand_rect(
            ctx.partition, ctx.config.visibility_radius
        )


def test_handoff_rectangle_follows_bind_and_set_range():
    world = bzflag_profile().world
    server = GameServer("gs.9", bzflag_profile(), world)
    margin = server._handoff_margin
    assert server._handoff_range == world.expanded(margin)
    left, right = world.halves("x")
    server.port.bind("ms.9")
    server._set_range(left)
    assert server._handoff_range == left.expanded(margin)
    server._on_set_range(SetRange(partition=right, directory={"gs.9": right}))
    assert server.map_range == right
    assert server._handoff_range == right.expanded(margin)


def test_cached_rectangles_track_splits_and_reclaims():
    """The handoff rectangle (game server) and the forward-reach
    rectangle (Matrix server) are derived where the range is written;
    audit them against a fresh ``expanded`` all through a run whose
    lifecycle keeps rewriting ranges."""
    audits = []

    def audit(experiment):
        pairs = list(fresh_rectangles(experiment.deployment))
        assert all(cached == fresh for cached, fresh in pairs)
        audits.append(len(pairs))

    outcome = run_scenario(
        "fig2-hotspot",
        profile=scaled_profile(bzflag_profile(), 0.05),
        scale=0.05,
        policy=LoadPolicyConfig().scaled(0.05, floor_overload=6, floor_underload=3),
        seed=1,
        observe=lambda experiment: experiment.sim.every(
            1.0, lambda: audit(experiment)
        ),
    )
    assert outcome.result.splits_completed >= 3
    assert outcome.result.reclaims_completed >= 3
    assert max(audits) > min(audits)  # servers came and went meanwhile
