"""Split and reclaim state machines (§3.2.3).

* **Splitting** — on sustained overload, acquire a host from the pool,
  split the partition (default: split-to-left), spawn a child Matrix
  server + game server pair, transfer the map state, then atomically
  announce the new ranges to the MC.  Purely local decisions; recursion
  happens naturally because the policy keeps firing while overloaded.
* **Reclamation** — on sustained underload, reclaim the youngest
  childless child (LIFO keeps merged partitions rectangular), evacuate
  its clients to the parent's game server, transfer state back, release
  the host to the pool, and announce the merge to the MC.
* **Abort and rollback** — every in-flight operation can be cancelled
  (peer crashed, watchdog fired, server is dying): acquired hosts go
  back to the pool, spawned-but-unannounced children are decommissioned,
  and the policy backs off from the failure.  Watchdogs are armed only
  when ``MatrixConfig.lifecycle_timeout`` is set (the chaos driver
  does); without injected faults no peer can go silent mid-protocol.

An operation in flight is one record — :class:`Split` and
:class:`Reclaim` on the parent, :class:`Evacuation` on the child — and
the record exists only while the operation does.  Every callback the
operation issues (the pool grant, the pair boot, the transfer's
completion, the watchdog) is bound to its record and does nothing
unless that record is still the current one, so a late callback of an
aborted or finished operation cannot act on its successor.
"""

from __future__ import annotations

from repro.core.messages import (
    ReclaimAck,
    ReclaimNotice,
    ReclaimRequest,
    SplitGrant,
    SplitNotice,
)
from repro.core.runtime.context import ChildRecord, ServerContext
from repro.core.runtime.transfer import StateTransfer
from repro.geometry import Rect
from repro.net.dispatch import handles
from repro.net.message import Message


class Split:
    """A split in flight.  The pool grant sets ``host`` and the cut
    ``kept``/``given``; ``child`` is the booted, unannounced (ms, gs)."""

    __slots__ = ("started_at", "host", "kept", "given", "child")

    def __init__(
        self, started_at: float, host: str | None = None,
        kept: Rect | None = None, given: Rect | None = None,
        child: tuple[str, str] | None = None,
    ) -> None:
        self.started_at = started_at
        self.host = host
        self.kept = kept
        self.given = given
        self.child = child


class Reclaim:
    """A reclaim in flight, on the parent side.  New on every attempt:
    an old attempt's watchdog must not abort a retry of the same child."""

    __slots__ = ("child", "started_at")

    def __init__(self, child: ChildRecord, started_at: float) -> None:
        self.child = child
        self.started_at = started_at


class Evacuation:
    """A reclaim in flight, on the child side (request to ack)."""

    __slots__ = ()


class Lifecycle:
    """Orchestrates this server's splits and reclaims."""

    def __init__(self, ctx: ServerContext, transfer: StateTransfer) -> None:
        self._ctx = ctx
        self._transfer = transfer
        # Crash semantics: no callback may act for a halted lifecycle.
        self._halted = False
        #: The split in flight (None outside one).  The deployment
        #: supervisor, the chaos driver and the fuzz audit read it.
        self.split: Split | None = None
        self._reclaim: Reclaim | None = None
        self._evacuation: Evacuation | None = None

    def _current(self, record: Split | Reclaim | Evacuation) -> bool:
        """Is *record* still an operation in flight on a live server?"""
        return not self._halted and record in (
            self.split, self._reclaim, self._evacuation
        )

    @property
    def busy(self) -> bool:
        """True while a split or reclaim is in flight or the server is
        dying: the policy takes no decision, and a reclaim is refused."""
        return (
            self.split is not None
            or self._reclaim is not None
            or self._ctx.dying
        )

    # ------------------------------------------------------------------
    # Split orchestration
    # ------------------------------------------------------------------
    def begin_split(self) -> None:
        ctx = self._ctx
        split = self.split = Split(started_at=ctx.now)
        ctx.policy.note_split_attempt()
        self._arm_watchdog(split, self.abort_split)
        ctx.fabric.acquire_host(
            lambda host_id: self._on_host_acquired(split, host_id)
        )

    def _on_host_acquired(self, split: Split, host_id: str | None) -> None:
        ctx = self._ctx
        if not self._current(split):
            # Aborted (or the whole server crashed) while the pool was
            # provisioning: the host was never recorded here, so it
            # must go straight back — a corpse continuing its split
            # would spawn a child nobody can ever reclaim.
            if host_id is not None:
                ctx.fabric.release_host(host_id)
            return
        if ctx.dying:
            # This server is being reclaimed: the split is off, and the
            # freshly granted host must not leak with it.
            if host_id is not None:
                ctx.fabric.release_host(host_id)
            self._split_failed()
            return
        if host_id is None:
            # Pool exhausted: Matrix degrades to static behaviour here.
            self._split_failed()
            return
        positions = ctx.fabric.client_positions(ctx.game_server)
        split.kept, split.given = ctx.strategy.split(ctx.partition, positions)
        split.host = host_id
        ctx.fabric.spawn_pair(
            host_id,
            split.given,
            ctx.name,
            lambda child_ms, child_gs: self._on_child_ready(
                split, child_ms, child_gs
            ),
        )

    def _on_child_ready(
        self, split: Split, child_ms: str, child_gs: str
    ) -> None:
        if not self._current(split):
            # The split was cancelled while the pair was booting: the
            # fresh pair is an orphan — tear it down and free its host
            # (the fabric resolves the host from its own records).
            self._ctx.fabric.decommission_pair(child_ms, None)
            return
        ctx = self._ctx
        split.child = (child_ms, child_gs)
        grant = SplitGrant(
            parent=ctx.name,
            child_partition=split.given,
            parent_partition=split.kept,
        )
        ctx.control_send(child_ms, "matrix.ctl.split_grant", grant)
        self._transfer.start(
            child_ms, split.given, lambda: self._finalize_split(split)
        )

    def _finalize_split(self, split: Split) -> None:
        if not self._current(split):
            return  # split was aborted; the late completion is a no-op
        ctx = self._ctx
        child_ms, child_gs = split.child
        ctx.partition = split.kept
        ctx.children.append(
            ChildRecord(
                matrix_name=child_ms,
                game_server=child_gs,
                host_id=split.host,
                born_at=ctx.now,
            )
        )
        notice = SplitNotice(
            parent=ctx.name,
            parent_partition=split.kept,
            child=child_ms,
            child_game_server=child_gs,
            child_partition=split.given,
        )
        ctx.control_send(ctx.coordinator, "mc.split", notice)
        self.split = None
        ctx.policy.note_split_success(split.started_at)
        ctx.stats.splits_completed += 1

    def _split_failed(self) -> None:
        """Roll up a split that never got resources (no cleanup owed)."""
        ctx = self._ctx
        self.split = None
        ctx.policy.note_split_failure(ctx.now)
        ctx.stats.failed_splits += 1

    def abort_split(self) -> bool:
        """Cancel the in-flight split and roll back its resources.

        Releases the acquired host (or decommissions the spawned child
        pair) and backs the policy off; the split's late callbacks find
        it gone and do nothing.  Returns False when no split was in
        flight.
        """
        split = self.split
        if split is None:
            return False
        ctx = self._ctx
        if split.child is not None:
            ctx.fabric.decommission_pair(split.child[0], split.host)
        elif split.host is not None:
            ctx.fabric.release_host(split.host)
        self._split_failed()
        return True

    @handles("matrix.ctl.split_grant")
    def on_split_grant(self, message: Message) -> None:
        # The child was constructed with its partition already; the
        # grant confirms the parent relationship for the protocol's sake.
        grant: SplitGrant = message.payload
        self._ctx.parent = grant.parent

    # ------------------------------------------------------------------
    # Reclaim orchestration
    # ------------------------------------------------------------------
    def begin_reclaim(self) -> None:
        ctx = self._ctx
        reclaim = self._reclaim = Reclaim(ctx.children[-1], ctx.now)
        ctx.policy.note_reclaim_attempt()
        # Timed out mid-protocol: the child may already be evacuating.
        self._arm_watchdog(
            reclaim, lambda: self._abort_reclaim(notify_child=True)
        )
        request = ReclaimRequest(
            parent=ctx.name, parent_game_server=ctx.game_server
        )
        ctx.control_send(
            reclaim.child.matrix_name, "matrix.ctl.reclaim_req", request
        )

    @handles("matrix.ctl.reclaim_req")
    def on_reclaim_request(self, message: Message) -> None:
        ctx = self._ctx
        request: ReclaimRequest = message.payload
        if self.busy or ctx.children:
            # Mid-operation, or we have children of our own: refuse.
            ctx.control_send(message.src, "matrix.ctl.reclaim_nack", None)
            return
        ctx.dying = True
        evacuation = self._evacuation = Evacuation()
        # The parent vanished mid-reclaim: come back up.
        self._arm_watchdog(evacuation, self._revive)
        # Evacuate our clients to the parent's game server, then send
        # the dynamic state back.
        ctx.control_send(ctx.game_server, "gs.evacuate", request.parent_game_server)
        self._transfer.start(
            request.parent,
            ctx.partition,
            lambda: self._finalize_reclaim_child(evacuation),
        )

    def _finalize_reclaim_child(self, evacuation: Evacuation) -> None:
        """Child side: state is back at the parent; announce and die."""
        if not self._current(evacuation):
            return  # revived meanwhile; the late completion is a no-op
        ctx = self._ctx
        self._evacuation = None
        ack = ReclaimAck(
            child=ctx.name,
            child_partition=ctx.partition,
            client_count=ctx.client_count,
        )
        ctx.control_send(ctx.parent, "matrix.ctl.reclaim_ack", ack)

    def _revive(self) -> None:
        ctx = self._ctx
        self._evacuation = None
        ctx.dying = False
        # The evacuation already shut the game server down; resume its
        # periodic duties so the partition serves rejoining clients.
        ctx.control_send(ctx.game_server, "gs.resume", None)

    @handles("matrix.ctl.reclaim_nack")
    def on_reclaim_nack(self, message: Message) -> None:
        reclaim = self._reclaim
        if reclaim is None or message.src != reclaim.child.matrix_name:
            # No reclaim in flight, or a queue-delayed nack from an
            # earlier (already timed-out) reclaim: not ours to abort.
            return
        # A nacking child refused before going dying: no notice owed.
        self._abort_reclaim(notify_child=False)

    def _abort_reclaim(self, notify_child: bool) -> None:
        """Parent side: the reclaim was refused or timed out.

        With *notify_child* the child is told the reclaim is off
        (``reclaim_abort``): if it already went ``dying`` it must come
        back up and keep serving its partition — otherwise it would
        idle as a zombie forever, holding its host with its game
        server shut down.
        """
        ctx = self._ctx
        child_ms = self._reclaim.child.matrix_name
        self._reclaim = None
        if notify_child:
            ctx.control_send(child_ms, "matrix.ctl.reclaim_abort", None)
        ctx.policy.note_reclaim_failure(ctx.now)
        ctx.stats.failed_reclaims += 1

    @handles("matrix.ctl.reclaim_abort")
    def on_reclaim_abort(self, message: Message) -> None:
        """Child side: the parent cancelled the reclaim — come back up.

        Idempotent with the evacuate watchdog and harmless after a
        plain nack (the child never went dying).  Covers the window
        where the child's state transfer completed *after* the parent
        aborted: the parent drops the stale ack, and this notice undoes
        the child's shutdown.
        """
        if self._ctx.dying:
            self._revive()

    @handles("matrix.ctl.reclaim_ack")
    def on_reclaim_ack(self, message: Message) -> None:
        ctx = self._ctx
        ack: ReclaimAck = message.payload
        reclaim = self._reclaim
        if reclaim is None or reclaim.child.matrix_name != ack.child:
            # Stale ack from a reclaim this parent already aborted:
            # the child finished evacuating for nothing — revive it.
            ctx.control_send(ack.child, "matrix.ctl.reclaim_abort", None)
            return
        ctx.partition = ctx.partition.union_bounds(ack.child_partition)
        ctx.children = [
            c for c in ctx.children if c.matrix_name != ack.child
        ]
        ctx.child_loads.pop(ack.child, None)
        notice = ReclaimNotice(
            parent=ctx.name,
            merged_partition=ctx.partition,
            child=ack.child,
        )
        ctx.control_send(ctx.coordinator, "mc.reclaim", notice)
        child = reclaim.child
        ctx.fabric.decommission_pair(child.matrix_name, child.host_id)
        self._reclaim = None
        ctx.policy.note_reclaim_success(reclaim.started_at)
        ctx.stats.reclaims_completed += 1

    # ------------------------------------------------------------------
    # Watchdogs
    # ------------------------------------------------------------------
    def _arm_watchdog(self, record, on_timeout) -> None:
        """Run *on_timeout* after the configured timeout, if any, unless
        *record* is no longer current by then."""
        timeout = self._ctx.config.lifecycle_timeout
        if timeout is None:
            return

        def fire() -> None:
            if self._current(record):
                on_timeout()

        self._ctx.node.sim.after(timeout, fire)

    def halt(self) -> None:
        """Crash semantics: every callback still to come does nothing.

        A dead host must not keep executing abort/resume logic (sending
        to removed nodes, double-decommissioning the child the
        supervisor already reclaimed); a pool-acquire or pair-boot
        callback landing after the crash returns its resources instead
        of continuing the split post-mortem.  The in-flight records are
        deliberately left intact: the supervisor's autopsy reads
        ``split`` to reclaim the corpse's leases.
        """
        self._halted = True
