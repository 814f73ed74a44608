"""Load reports and parent/child load gossip (§3.2.2, §3.2.3).

The co-located game server reports its load periodically; each server
additionally gossips its own load up to its parent so the parent can
judge whether the youngest child is reclaimable.  The policy state
machine turns the report stream into split/reclaim decisions, which are
handed to the :class:`~repro.core.runtime.lifecycle.Lifecycle`.
"""

from __future__ import annotations

from repro.core.config import LOAD_REPORT_BYTES
from repro.core.messages import LoadGossip, LoadReport
from repro.core.policy import ChildLoad, Decision
from repro.core.runtime.context import ServerContext
from repro.core.runtime.lifecycle import Lifecycle
from repro.net.dispatch import handles
from repro.net.message import Message


class LoadMonitor:
    """Consumes load traffic and drives the split/reclaim policy."""

    def __init__(self, ctx: ServerContext, lifecycle: Lifecycle) -> None:
        self._ctx = ctx
        self._lifecycle = lifecycle

    @handles("matrix.load")
    def on_load_report(self, message: Message) -> None:
        ctx = self._ctx
        report: LoadReport = message.payload
        if ctx.dying:
            return
        ctx.client_count = report.client_count
        if ctx.parent is not None:
            gossip = LoadGossip(
                server=ctx.name,
                client_count=report.client_count,
                has_children=bool(ctx.children),
            )
            ctx.send(
                ctx.parent,
                "matrix.gossip",
                gossip,
                size_bytes=LOAD_REPORT_BYTES,
            )
        decision = ctx.policy.on_load_report(
            ctx.now,
            report.client_count,
            self.youngest_child_load(),
            self._lifecycle.busy,
        )
        if decision is Decision.SPLIT:
            self._lifecycle.begin_split()
        elif decision is Decision.RECLAIM:
            self._lifecycle.begin_reclaim()

    def youngest_child_load(self) -> ChildLoad | None:
        """Latest gossiped load of the youngest child (None = unknown)."""
        ctx = self._ctx
        if not ctx.children:
            return None
        child = ctx.children[-1]
        return ctx.child_loads.get(child.matrix_name)

    @handles("matrix.gossip")
    def on_gossip(self, message: Message) -> None:
        ctx = self._ctx
        gossip: LoadGossip = message.payload
        for child in ctx.children:
            if child.matrix_name == gossip.server:
                ctx.child_loads[gossip.server] = ChildLoad(
                    client_count=gossip.client_count,
                    has_children=gossip.has_children,
                    born_at=child.born_at,
                )
                return
