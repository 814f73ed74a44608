"""Non-proximal consistency query relay (§3.2.4).

The rare long-range interaction (a teleport, a map-wide spell) needs
the consistency set of a point far outside the local overlap tables.
The game server asks its Matrix server, which relays the question to
the MC and translates the answer back into game-server names.
"""

from __future__ import annotations

import itertools

from repro.core.messages import ConsistencyQuery, ConsistencyReply
from repro.core.runtime.context import ServerContext
from repro.net.dispatch import handles
from repro.net.message import Message


class QueryRelay:
    """Relays game-server consistency queries through the MC."""

    def __init__(self, ctx: ServerContext) -> None:
        self._ctx = ctx
        # Unique per relay: the MC replies to the relay that asked.
        self._query_ids = itertools.count(1)
        #: mc request id -> originating game-server request id.
        self._relay: dict[int, int] = {}

    @handles("matrix.query")
    def on_game_query(self, message: Message) -> None:
        ctx = self._ctx
        query: ConsistencyQuery = message.payload
        mc_id = next(self._query_ids)
        self._relay[mc_id] = query.request_id
        relayed = ConsistencyQuery(
            point=query.point, exclude=ctx.name, request_id=mc_id
        )
        ctx.control_send(ctx.coordinator, "mc.query", relayed)

    @handles("mc.reply")
    def on_mc_reply(self, message: Message) -> None:
        ctx = self._ctx
        reply: ConsistencyReply = message.payload
        gs_request = self._relay.pop(reply.request_id, None)
        if gs_request is None:
            return
        game_servers = frozenset(
            ctx.server_map[ms] for ms in reply.servers if ms in ctx.server_map
        )
        out = ConsistencyReply(request_id=gs_request, servers=game_servers)
        ctx.control_send(ctx.game_server, "gs.query_reply", out)
