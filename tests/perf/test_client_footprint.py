"""A memory budget for what one game client keeps.

The memory twin of the frame budgets (``test_message_path_budget.py``,
``test_player_path_budget.py``): a run builds one client per player,
and the fleet keeps every client until the run ends, departed ones
included.  A playing client also holds two ``random.Random`` streams
(its own and its mobility model's), which a departed one drops; the
rest of what a client keeps is bookkeeping, so:

* a ``GameClient``, its ``ReceiveQueue``, its update ``PeriodicTask``
  and its mobility model hold their attributes in slots, with no
  instance dict;
* an infinite-rate receive queue allocates its deque only when a
  message first has to wait.  A client queue that never backlogged
  holds none;
* none of a departed client's objects references a stream.

All three are checked on every client of a short ``steady-churn`` run, the
one catalog run where clients leave mid-run and keep receiving
messages, and the first on one instance of every registered mobility
model.

The budget counts the tracemalloc bytes that 256 clients built for
that run keep, per client.  Each client is built with the run's
profile and the churn phase's mobility model, attached, welcomed (which
starts its update task) and sent one snapshot.  The streams are built
before the window, so they are not counted.

==========  ======================  =================  ===============  ===============  ==========
Python      instance dicts, deques  slots, lazy deque  no copies kept   no unread state  budget
==========  ======================  =================  ===============  ===============  ==========
3.10        2 976                   1 824              1 744            1 713            <= 1 800
3.11        4 048                   1 776              1 696            1 664            <= 1 800
3.12        4 008                   1 776              1 696            1 664            <= 1 800
==========  ======================  =================  ===============  ===============  ==========

"No copies kept": the stage list lives on the node (no pipeline
object), and ``active`` and the sequence numbers are derived.  "No
unread state": ``snapshots_received`` and ``switches_completed`` left
the client and ``busy_time`` its queue; the commit before measured
1 737 / 1 688 / 1 688, the value records having come in between.
3.13 measures 1 664.

The two streams come to another 5.3 kB (3.10) or 5.8 kB (3.11, 3.12)
per client (docs/ARCHITECTURE.md, "What a client holds").
"""

import gc
import random
import tracemalloc

import pytest

from repro.games.base import GameClient
from repro.games.packets import Snapshot
from repro.geometry import Rect, Vec2
from repro.harness.runner import run_scenario
from repro.net import Message, Network
from repro.sim import Simulator
from repro.workload.mobility import (
    MobilityEnv,
    MobilitySpec,
    list_mobility_models,
)

#: Bytes one client keeps, streams aside.
BUDGET = 1800


class PrebuiltStreams:
    """A stand-in for a ``MobilityEnv`` whose per-model streams already
    exist."""

    __slots__ = ("world", "speed", "rng", "center", "spread", "streams")

    def __init__(self, world, speed, rng, streams) -> None:
        self.world = world
        self.speed = speed
        self.rng = rng
        self.center = None
        self.spread = None
        self.streams = streams

    def child_rng(self) -> random.Random:
        return next(self.streams)


@pytest.fixture(scope="module")
def churn():
    return run_scenario("steady-churn", scale=0.25, preview=60.0, seed=1)


def per_client_objects(client):
    task = client._update_task
    return [client, client.inbox, client.mobility] + (
        [task] if task is not None else []
    )


def test_no_per_client_object_has_an_instance_dict(churn):
    clients = churn.experiment.fleet.clients
    assert any(not client.active for client in clients)
    assert any(client._update_task is not None for client in clients)
    with_dict = {
        type(obj).__name__
        for client in clients
        for obj in per_client_objects(client)
        if hasattr(obj, "__dict__")
    }
    assert with_dict == set()


def test_a_departed_client_references_no_stream(churn):
    departed = [c for c in churn.experiment.fleet.clients if c.departed]
    assert len(departed) > 20
    assert [
        client.name
        for client in departed
        for obj in per_client_objects(client)
        if any(isinstance(ref, random.Random) for ref in gc.get_referents(obj))
    ] == []


@pytest.mark.parametrize("kind", list_mobility_models())
def test_no_registered_mobility_model_has_an_instance_dict(kind):
    world = Rect(0.0, 0.0, 400.0, 400.0)
    env = MobilityEnv(world, 25.0, random.Random(1), Vec2(200.0, 200.0), 40.0)
    assert not hasattr(MobilitySpec(kind).builder(env)(), "__dict__")


def test_a_client_queue_that_never_backlogged_holds_no_deque(churn):
    clients = churn.experiment.fleet.clients
    calm = [client for client in clients if client.inbox.peak_length <= 1]
    assert len(calm) > 100
    assert [c.name for c in calm if c.inbox._queue is not None] == []


def kept_bytes_per_client(profile, spec, n=256):
    """tracemalloc bytes kept per client by *n* clients on *profile*
    moving by *spec*, each welcomed and sent one snapshot; their
    streams, names and messages are made before the window."""
    sim = Simulator()
    network = Network(sim)
    env = PrebuiltStreams(
        profile.world,
        profile.move_speed,
        random.Random(0),
        streams=iter([random.Random(i) for i in range(n)]),
    )
    build_mobility = spec.builder(env)
    streams = [random.Random(n + i) for i in range(n)]
    names = [f"client.{i}" for i in range(n)]
    mail = [
        (
            Message("gs.1", name, "gs.welcome", None, 64),
            Message("gs.1", name, "gs.snapshot", Snapshot(0), 48),
        )
        for name in names
    ]
    clients = [None] * n
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            client = GameClient(names[i], profile, build_mobility(), streams[i])
            client.attach(network)
            for message in mail[i]:
                client.inbox.deliver(message)
            clients[i] = client
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(client.active for client in clients)
    return kept / n


def test_bytes_kept_per_client(churn):
    churn_phase = churn.scenario.phases[1]
    spec = churn_phase.mobility or MobilitySpec()
    kept = kept_bytes_per_client(churn.experiment.profile, spec)
    assert kept <= BUDGET, f"{kept:.0f} bytes per client"
