"""A deterministic budget for the player-update and snapshot paths.

Counts Python ``call`` events (``sys.setprofile``), like
``test_message_path_budget.py``, on the two per-entity paths every game
workload spends its time in (docs/ARCHITECTURE.md, "The life of a
player update and a snapshot tick"):

* **update** — from ``GameClient._update_tick`` (hotspot mobility) to
  the return of the game server's ``client.update`` handler, handoff
  check included, the Matrix port stubbed;
* **snapshot** — per client of one 200-client ``_snapshot_tick``: grid
  rebuild, visibility counts, one snapshot send each.

Both cross the network, whose frames ``test_message_path_budget.py``
already pins, so the budget is on the calls *outside* the message path
(``MESSAGE_PATH`` below): the game, workload and geometry layers.

==========  =====================  =====================  =======
per ...     before (PR 13)         now                    budget
==========  =====================  =====================  =======
update      21.38 (39.73 in all)    8.50 (17.85 in all)   <= 9.0
snapshot     5.02 (13.03 in all)    2.02 (7.02 in all)    <= 2.5
==========  =====================  =====================  =======

"Before" is ``Vec2`` arithmetic per step (five temporaries and a
clamp), a ``Rect.expanded`` per handoff check, and ``insert`` → ``_key``
plus ``count_within`` → ``_key`` per client per tick.  Each budget is
under 60 % of the count it replaced (42 % and 50 %); the fractions are
the occasional ``_pick_loiter_point`` and the once-per-tick calls.
"""

import gc
import random
import sys

from repro.games.base import GameClient, GameServer
from repro.games.profile import GameProfile
from repro.geometry import Rect, Vec2
from repro.net import LinkProfile, Network, NormalLatency
from repro.sim import Simulator
from repro.workload.mobility import HotspotMobility

WORLD = Rect(0.0, 0.0, 800.0, 800.0)
CENTER = Vec2(400.0, 400.0)


#: Frames of the message path (send, wire, kernel, receive queue,
#: dispatch, the latency draw): ``test_message_path_budget.py``'s.
MESSAGE_PATH = ("/repro/net/", "/repro/sim/", "/random.py")


def count_calls(body):
    """(calls outside the message path, all calls) made by *body*."""
    own = total = 0

    def count(frame, event, arg):
        nonlocal own, total
        if event == "call":
            total += 1
            filename = frame.f_code.co_filename
            if not any(part in filename for part in MESSAGE_PATH):
                own += 1

    # See test_message_path_budget.py: no collection inside the window.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        body()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return own, total


def crowd(clients):
    """One game server owning the whole world, *clients* joined to it,
    and the list of packets its stubbed Matrix port was handed."""
    profile = GameProfile(
        name="budget", world=WORLD, visibility_radius=60.0, action_rate=0.0
    )
    sim = Simulator()
    network = Network(
        sim,
        rng=random.Random(1),
        default_profile=LinkProfile(NormalLatency(25e-3, 8e-3, floor=5e-3), 1.25e6),
    )
    server = network.add_node(GameServer("gs.1", profile, WORLD))
    tagged = []
    server.port.send_spatial = lambda **packet: tagged.append(packet)
    rng = random.Random(2)
    fleet = []
    for i in range(clients):
        mobility = HotspotMobility(
            WORLD, CENTER, 54.0, profile.move_speed, random.Random(rng.getrandbits(32))
        )
        client = network.add_node(
            GameClient(f"client.{i}", profile, mobility, random.Random(i))
        )
        client.join(
            "gs.1",
            WORLD.clamp_point(Vec2(rng.gauss(400.0, 54.0), rng.gauss(400.0, 54.0))),
        )
        fleet.append(client)
    sim.run(until=2.0)
    for client in fleet:
        assert client.active
        client._update_task.stop()
    sim.run()
    return sim, server, fleet, tagged


def calls_per_update():
    sim, server, fleet, tagged = crowd(20)
    rounds = 300
    before = len(tagged)

    def body():
        for _ in range(rounds):
            for client in fleet:
                client._update_tick()
            sim.run()

    own, total = count_calls(body)
    updates = len(tagged) - before  # each processed update is tagged
    assert updates == rounds * len(fleet)
    return own / updates, total / updates


def calls_per_snapshot():
    sim, server, fleet, _ = crowd(200)
    server._snapshot_tick()  # the budget is for the steady state
    own, total = count_calls(server._snapshot_tick)
    snapshots = server.network.stats.by_kind["gs.snapshot"]
    assert snapshots.messages == 2 * len(fleet)
    return own / len(fleet), total / len(fleet)


def test_calls_per_player_update():
    own, total = calls_per_update()
    assert (own, total) == calls_per_update()  # repeats exactly
    assert own <= 9.0


def test_calls_per_snapshot_client():
    own, total = calls_per_snapshot()
    assert (own, total) == calls_per_snapshot()
    assert own <= 2.5
