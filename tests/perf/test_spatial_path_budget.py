"""A deterministic budget for one forwarded player update.

Counts Python ``call`` events (``sys.setprofile``), like
``test_message_path_budget.py``, along the path Matrix adds to a game
packet (§3.1, §3.2.3): a ``client.update`` for a client in the overlap
band of a 2 x 1 grid is handled by its game server, tagged and sent as
``game.spatial`` to the co-located Matrix server, looked up and sent as
``matrix.forward`` to the peer, range-checked and sent as
``matrix.deliver`` to the peer's game server, and handed to the game's
``on_deliver`` callback.  Three messages, each paying the message path
``test_message_path_budget.py`` pins, plus the routing between them.
docs/ARCHITECTURE.md, "The life of a forwarded update", names the
frames.

Frames per forwarded update went 76 → 69 → 54 → 46.  The seven that went
first only passed the message on: two ``MatrixServer._on_*`` relays
into the router, three ``ServerContext.send`` relays into
``Node.send``, and two calls of a ``SpatialPacket`` accessor that
returned ``self.origin``.  The fifteen after them were the kernel's:
six ``Event.__init__`` (a delivery and a service period per message),
three ``Node.sim`` and three ``Simulator.now`` property reads, and the
three ``_start_next`` hops of the finite-rate queues.  The last
eight were per-message bookkeeping: three ``TrafficStats.record`` and
three ``Node.handle_message`` frames (a resolved route accounts inline
and the queue calls the handler itself), and two
``ConstantLatency.sample`` calls on the loopback link between a game
server and its Matrix server (a route carries the fixed latency).
``BUDGET`` fails at 54.
"""

import gc
import sys

from repro.games.base import ClientRecord
from repro.games.packets import PlayerUpdate
from repro.games.profile import profile_by_name
from repro.geometry import Vec2
from repro.harness.experiment import MatrixExperiment
from repro.net.message import Message

UPDATES = 500
BUDGET = 47


def count_calls(run):
    """Python ``call`` events while *run()* executes."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # See test_message_path_budget.py: no collection inside the window.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return calls


def frames_per_forwarded_update():
    profile = profile_by_name("bzflag")
    experiment = MatrixExperiment(profile, grid=(2, 1), seed=1)
    sim = experiment.sim
    sim.run(until=1.0)  # registrations answered, overlap tables installed
    experiment._sampler.task.stop()
    home, peer = experiment.game_servers.values()
    for server in (home, peer):
        server.shutdown()  # no load reports or snapshot ticks in the count

    # One client of the left server, inside the band its right-hand
    # neighbour must stay consistent with.
    border = home.map_range.xmax
    position = Vec2(
        border - profile.visibility_radius / 2, home.map_range.center.y
    )
    assert peer.map_range.xmin == border
    home._clients["client.0"] = ClientRecord("client.0", position)
    sim.run()  # whatever the duties left in flight

    update = PlayerUpdate(client_id="client.0", position=position, seq=1)

    def burst(updates):
        for _ in range(updates):
            home.handle_message(
                Message(
                    "client.0",
                    home.name,
                    "client.update",
                    update,
                    profile.update_bytes,
                )
            )
        sim.run()

    # First use resolves the handlers and fills the network's memos; the
    # budget is for the steady state.
    burst(1)
    assert peer.remote_updates_seen == 1
    calls = count_calls(lambda: burst(UPDATES))
    assert peer.remote_updates_seen == UPDATES + 1
    forwarded = sum(
        server.ctx.stats.forwarded_packets
        for server in experiment.deployment.matrix_servers.values()
    )
    assert forwarded == UPDATES + 1
    return calls / UPDATES


def test_frames_per_forwarded_update():
    frames = frames_per_forwarded_update()
    assert frames == frames_per_forwarded_update()  # repeats exactly
    assert frames <= BUDGET
