"""Split/reclaim failure paths: leases, counters, cooldowns, aborts.

The bugs these tests pin down (fixed in the chaos PR):

* a split cancelled after its host was granted leaked the host forever
  (``Lifecycle._on_host_acquired`` returned without releasing it);
* a pool-exhausted split still consumed the split cooldown and was
  counted as a split; a nacked reclaim did the same on the reclaim
  side;
* ``Lifecycle._finalize_split`` unpacked ``None`` (TypeError) when a
  transfer completion raced an abort.
"""

from tests.core.helpers import WORLD, ScriptedGameServer, build_deployment

from repro.core.config import LOAD_REPORT_PERIOD, LoadPolicyConfig
from repro.core.messages import ReclaimRequest
from repro.core.policy import ChildLoad, Decision, LoadPolicy
from repro.core.runtime.lifecycle import Split
from repro.games.base import GameServer
from repro.games.profile import profile_by_name
from repro.value import replace


# ----------------------------------------------------------------------
# Policy accounting (unit level)
# ----------------------------------------------------------------------
def _overload_policy(**overrides) -> LoadPolicyConfig:
    defaults = dict(
        overload_clients=100,
        underload_clients=50,
        consecutive_overload_reports=1,
        split_cooldown=10.0,
    )
    defaults.update(overrides)
    return LoadPolicyConfig(**defaults)


def test_failed_split_waits_one_cooldown_from_the_failure():
    policy = LoadPolicy(_overload_policy())
    assert policy.on_load_report(0.0, 150, None, False) is Decision.SPLIT
    policy.note_split_attempt()
    # The pool answers empty 3 s later: the next attempt waits one
    # split cooldown from the failure, not from the attempt.
    policy.note_split_failure(3.0)
    assert policy.on_load_report(12.0, 150, None, False) is Decision.NONE
    assert policy.on_load_report(13.0, 150, None, False) is Decision.SPLIT


def test_successful_split_keeps_historical_cooldown_timing():
    policy = LoadPolicy(_overload_policy())
    policy.note_split_attempt()
    policy.note_split_success(0.0)
    # Cooldown runs from the attempt, exactly as before the fix.
    assert policy.on_load_report(9.0, 150, None, False) is Decision.NONE
    assert policy.on_load_report(10.0, 150, None, False) is Decision.SPLIT


def test_failed_reclaim_waits_one_reclaim_cooldown_from_the_failure():
    policy = LoadPolicy(
        _overload_policy(
            consecutive_underload_reports=1,
            reclaim_cooldown=8.0,
            min_child_lifetime=0.0,
        )
    )
    idle_child = ChildLoad(client_count=10, has_children=False, born_at=0.0)
    assert policy.on_load_report(0.0, 10, idle_child, False) is Decision.RECLAIM
    policy.note_reclaim_attempt()
    policy.note_reclaim_failure(2.0)  # nacked
    assert policy.on_load_report(9.0, 10, idle_child, False) is Decision.NONE
    assert (
        policy.on_load_report(10.0, 10, idle_child, False) is Decision.RECLAIM
    )


# ----------------------------------------------------------------------
# Host-pool leases (integration level, scripted game servers)
# ----------------------------------------------------------------------
def _drive_split(sim, deployment, gs, clients=150, start=1.0, reports=3):
    for i in range(reports):
        sim.at(start + 0.5 * i, lambda c=clients: gs.report(c))


def test_pool_exhausted_split_consumes_nothing():
    sim, network, deployment = build_deployment(pool_capacity=0)
    ms, gs = deployment.bootstrap()
    _drive_split(sim, deployment, gs)
    sim.run(until=5.0)
    assert ms.ctx.stats.failed_splits >= 1
    assert ms.ctx.stats.splits_completed == 0
    assert not ms.lifecycle.busy
    assert deployment.pool.available == 0
    assert deployment.unaccounted_hosts() == []


def test_dying_server_releases_the_acquired_host():
    """The original leak: host granted while ``ctx.dying`` vanished."""
    sim, network, deployment = build_deployment(pool_capacity=2)
    ms, gs = deployment.bootstrap()
    sim.at(1.0, lambda: gs.report(150))
    sim.at(1.5, lambda: gs.report(150))  # split begins: host requested
    # The server is marked dying while the pool is still provisioning
    # (the acquire callback fires at ~2.5 with the 1s acquire delay).
    sim.at(2.0, lambda: setattr(ms.ctx, "dying", True))
    sim.run(until=6.0)
    assert ms.ctx.stats.splits_completed == 0
    # ``busy`` stays true while the server is dying; the split is over.
    assert ms.lifecycle.split is None
    # Without release_host this stayed at 1 forever.
    assert deployment.pool.available == 2
    assert deployment.unaccounted_hosts() == []


def test_abort_split_rolls_back_spawned_child():
    sim, network, deployment = build_deployment(pool_capacity=2)
    ms, gs = deployment.bootstrap()
    _drive_split(sim, deployment, gs)
    # Abort after the child pair booted (acquire 1.0 + spawn 1.5, so
    # the pair exists at t=4.0) but before the ~4ms bulk transfer can
    # complete; the pair must be torn down again.
    aborted = []

    def abort() -> None:
        aborted.append(ms.lifecycle.split)
        ms.lifecycle.abort_split()

    sim.at(4.001, abort)
    sim.run(until=8.0)
    assert ms.ctx.stats.splits_completed == 0
    assert ms.ctx.children == []
    assert not ms.lifecycle.busy
    assert deployment.pool.available == 2
    assert deployment.unaccounted_hosts() == []
    # A late transfer completion of the aborted split finds its record
    # gone: it is a no-op instead of a TypeError on unpacking None.
    assert aborted[0].child is not None
    ms.lifecycle._finalize_split(aborted[0])
    assert ms.ctx.stats.splits_completed == 0


def test_abort_before_spawn_releases_host_and_orphan_pair():
    sim, network, deployment = build_deployment(pool_capacity=2)
    ms, gs = deployment.bootstrap()
    _drive_split(sim, deployment, gs)
    # Abort inside the spawn window (host granted at ~2.5, pair boots
    # at ~4.0): the pair that boots afterwards is decommissioned.
    sim.at(3.0, lambda: ms.lifecycle.abort_split())
    sim.run(until=8.0)
    assert ms.ctx.stats.splits_completed == 0
    assert len(deployment.matrix_servers) == 1
    assert deployment.pool.available == 2
    assert deployment.unaccounted_hosts() == []


def test_aborted_split_grant_is_not_adopted_by_the_next_split():
    """A split begun right after an abort must not take over the aborted
    split's pool grant: that grant goes back, and only the new split's
    own host boots a child.  Before the in-flight record, both grants
    spawned a pair and the first one was orphaned for good, holding a
    host that ``unaccounted_hosts`` could not see."""
    sim, network, deployment = build_deployment(pool_capacity=3)
    ms, gs = deployment.bootstrap()

    def begin_abort_begin() -> None:
        ms.lifecycle.begin_split()
        ms.lifecycle.abort_split()
        ms.lifecycle.begin_split()

    sim.at(1.0, begin_abort_begin)
    sim.run(until=10.0)
    assert ms.ctx.stats.splits_completed == 1
    assert len(deployment.matrix_servers) == 2
    assert deployment.pool.available == 2
    assert deployment.unaccounted_hosts() == []


def test_nacked_reclaim_leaves_counters_and_cooldowns_untouched():
    policy = LoadPolicyConfig(
        overload_clients=100,
        underload_clients=50,
        consecutive_overload_reports=2,
        consecutive_underload_reports=2,
        split_cooldown=1.0,
        reclaim_cooldown=1.0,
        min_child_lifetime=1.0,
    )
    sim, network, deployment = build_deployment(pool_capacity=2, policy=policy)
    ms, gs = deployment.bootstrap()
    _drive_split(sim, deployment, gs)
    sim.run(until=6.0)
    assert ms.ctx.stats.splits_completed == 1
    child_ms = deployment.matrix_servers[ms.ctx.children[0].matrix_name]
    child_gs = deployment.game_servers[child_ms.game_server]
    # The child refuses the reclaim while busy (a split of its own).
    child_ms.lifecycle.split = Split(started_at=sim.now)
    # Child gossips a small load, parent reports underload repeatedly.
    for i in range(8):
        sim.at(6.5 + 0.5 * i, lambda: child_gs.report(10))
        sim.at(6.6 + 0.5 * i, lambda: gs.report(10))
    sim.run(until=9.0)
    assert ms.ctx.stats.failed_reclaims >= 1
    assert ms.ctx.stats.reclaims_completed == 0
    assert not ms.lifecycle.busy  # the nack cleared the in-flight state
    # Once the child is free again the parent retries one cooldown
    # after the last failure.
    child_ms.lifecycle.split = None
    sim.run(until=14.0)
    assert ms.ctx.stats.reclaims_completed == 1
    assert deployment.pool.available == 2 or ms.lifecycle.busy is False
    sim.run(until=15.0)
    assert deployment.unaccounted_hosts() == []


def test_stale_reclaim_watchdog_spares_the_retry_of_the_same_child():
    """A reclaim of a child that nacked is retried on the same
    ``ChildRecord``.  The first attempt's watchdog fires while the retry
    is in flight and must leave it alone: each attempt is its own
    record, so the retry completes."""
    sim, network, deployment = build_deployment(pool_capacity=2)
    ms, gs = deployment.bootstrap()
    _drive_split(sim, deployment, gs)
    sim.run(until=6.0)
    assert ms.ctx.stats.splits_completed == 1
    child_ms = deployment.matrix_servers[ms.ctx.children[0].matrix_name]
    deployment.config.lifecycle_timeout = 2.0
    # The child refuses the first attempt (a split of its own).
    child_ms.lifecycle.split = Split(started_at=sim.now)
    sim.at(6.0, ms.lifecycle.begin_reclaim)
    sim.run(until=7.0)
    assert ms.ctx.stats.failed_reclaims == 1
    child_ms.lifecycle.split = None
    # The retry is still transferring when the first watchdog fires at 8.
    sim.at(7.999, ms.lifecycle.begin_reclaim)
    sim.run(until=8.0005)
    assert ms.lifecycle.busy
    sim.run(until=10.0)
    assert ms.ctx.stats.reclaims_completed == 1
    assert ms.ctx.stats.failed_reclaims == 1
    assert len(deployment.matrix_servers) == 1
    sim.run(until=11.0)
    assert deployment.unaccounted_hosts() == []


def test_reclaim_abort_revives_an_evacuating_child():
    """A parent that gave up on a reclaim (its watchdog fired, or it
    was refused) drops the child's late ack and answers
    ``matrix.ctl.reclaim_abort``: the child that evacuated for nothing
    leaves ``dying``/``busy``, and its game server's periodic duties
    (load reports, snapshot ticks) run again."""
    profile = replace(
        profile_by_name("bzflag"), world=WORLD, visibility_radius=50.0
    )
    # Real game servers report their (empty) load every period: a policy
    # that never reclaims on its own leaves the one reclaim to the test.
    policy = LoadPolicyConfig(
        overload_clients=100,
        underload_clients=50,
        consecutive_underload_reports=10**6,
    )
    sim, network, deployment = build_deployment(
        pool_capacity=2,
        policy=policy,
        game_server_factory=lambda name, partition: GameServer(
            name, profile, partition
        ),
    )
    ms, gs = deployment.bootstrap()
    sim.at(1.0, ms.lifecycle.begin_split)
    sim.run(until=6.0)
    assert ms.ctx.stats.splits_completed == 1
    child_ms = deployment.matrix_servers[ms.ctx.children[0].matrix_name]
    child_gs = deployment.game_servers[child_ms.game_server]
    reports = []
    report_load = child_gs.port.report_load

    def counted_report(*load):
        reports.append(sim.now)
        report_load(*load)

    child_gs.port.report_load = counted_report

    # A reclaim request the parent no longer tracks: the child evacuates
    # (game server shut down) and sends its state back.
    request = ReclaimRequest(parent=ms.name, parent_game_server=ms.game_server)
    sim.at(
        6.0,
        lambda: ms.ctx.control_send(
            child_ms.name, "matrix.ctl.reclaim_req", request
        ),
    )
    sim.run(until=6.002)
    assert child_ms.ctx.dying and child_ms.lifecycle.busy
    assert not child_gs._tasks
    sim.run(until=6.5)
    assert not child_ms.ctx.dying and not child_ms.lifecycle.busy
    assert child_gs._tasks
    assert child_ms.name in deployment.matrix_servers
    assert ms.ctx.stats.reclaims_completed == 0
    # The resumed duties report load again.
    del reports[:]
    sim.run(until=6.5 + 3 * LOAD_REPORT_PERIOD)
    assert len(reports) == 3
    assert deployment.unaccounted_hosts() == []
