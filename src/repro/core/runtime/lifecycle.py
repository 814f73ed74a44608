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
  pending transfers are forgotten so late completions are no-ops, and
  the policy's success cooldown is restored in favour of the distinct
  failed-attempt backoff.  Watchdogs are armed only when
  ``MatrixConfig.lifecycle_timeout`` is set (the chaos driver does);
  without injected faults no peer can go silent mid-protocol.
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


class Lifecycle:
    """Orchestrates this server's splits and reclaims."""

    def __init__(self, ctx: ServerContext, transfer: StateTransfer) -> None:
        self._ctx = ctx
        self._transfer = transfer
        transfer.on_complete("split", self._finalize_split)
        transfer.on_complete("reclaim", self._finalize_reclaim_child)
        # Crash semantics: no callback may act for a halted lifecycle.
        self._halted = False
        # Split-in-flight context.
        self._split_active = False
        self._pending_kept: Rect | None = None
        self._pending_given: Rect | None = None
        self._pending_host: str | None = None
        self._pending_child: tuple[str, str] | None = None
        # Reclaim-in-flight context (on the parent side).
        self._reclaiming: ChildRecord | None = None
        # Reclaim-in-flight context (on the child side).
        self._evacuating = False
        # Watchdog epochs: a check fires only if no newer operation
        # (or completion) superseded the one it was armed for.
        self._split_epoch = 0
        self._reclaim_epoch = 0
        self._evacuate_epoch = 0

    # ------------------------------------------------------------------
    # Introspection (used by the deployment supervisor and tests)
    # ------------------------------------------------------------------
    @property
    def split_in_flight(self) -> bool:
        """True between ``begin_split`` and its finalize/abort."""
        return self._split_active

    @property
    def in_flight_host(self) -> str | None:
        """Pool host held by the in-flight split (None outside one)."""
        return self._pending_host

    @property
    def in_flight_child(self) -> tuple[str, str] | None:
        """(ms, gs) names of the spawned-but-unannounced split child."""
        return self._pending_child

    # ------------------------------------------------------------------
    # Split orchestration
    # ------------------------------------------------------------------
    def begin_split(self) -> None:
        ctx = self._ctx
        ctx.busy = True
        self._split_active = True
        self._split_epoch += 1
        ctx.policy.note_split_attempt(ctx.now)
        self._arm_watchdog(self._check_split_stuck, self._split_epoch)
        ctx.fabric.acquire_host(self._on_host_acquired)

    def _on_host_acquired(self, host_id: str | None) -> None:
        ctx = self._ctx
        if self._halted or not self._split_active:
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
        kept, given = ctx.strategy.split(ctx.partition, positions)
        self._pending_kept = kept
        self._pending_given = given
        self._pending_host = host_id
        ctx.fabric.spawn_pair(host_id, given, ctx.name, self._on_child_ready)

    def _on_child_ready(self, child_ms: str, child_gs: str) -> None:
        if self._halted or not self._split_active or self._pending_given is None:
            # The split was cancelled while the pair was booting: the
            # fresh pair is an orphan — tear it down and free its host
            # (the fabric resolves the host from its own records).
            self._ctx.fabric.decommission_pair(child_ms, None)
            return
        ctx = self._ctx
        self._pending_child = (child_ms, child_gs)
        grant = SplitGrant(
            parent=ctx.name,
            child_partition=self._pending_given,
            parent_partition=self._pending_kept,
        )
        ctx.control_send(child_ms, "matrix.ctl.split_grant", grant)
        self._transfer.start(child_ms, self._pending_given, context="split")

    def _finalize_split(self) -> None:
        if self._pending_child is None:
            return  # split was aborted; the late completion is a no-op
        ctx = self._ctx
        child_ms, child_gs = self._pending_child
        ctx.partition = self._pending_kept
        ctx.children.append(
            ChildRecord(
                matrix_name=child_ms,
                game_server=child_gs,
                host_id=self._pending_host,
                born_at=ctx.now,
            )
        )
        notice = SplitNotice(
            parent=ctx.name,
            parent_partition=self._pending_kept,
            child=child_ms,
            child_game_server=child_gs,
            child_partition=self._pending_given,
            visibility_radius=ctx.config.visibility_radius,
        )
        ctx.control_send(ctx.coordinator, "mc.split", notice)
        self._clear_split_state()
        ctx.policy.note_split_success()
        ctx.stats.splits_completed += 1
        ctx.busy = False

    def _clear_split_state(self) -> None:
        self._split_active = False
        self._split_epoch += 1
        self._pending_kept = None
        self._pending_given = None
        self._pending_host = None
        self._pending_child = None

    def _split_failed(self) -> None:
        """Roll up a split that never got resources (no cleanup owed)."""
        ctx = self._ctx
        self._clear_split_state()
        ctx.policy.note_split_failure(ctx.now)
        ctx.stats.failed_splits += 1
        ctx.busy = False

    def abort_split(self) -> bool:
        """Cancel the in-flight split and roll back its resources.

        Releases the acquired host (or decommissions the spawned child
        pair), forgets the pending state transfer so a late completion
        is a no-op, restores the policy cooldown and backs off.
        Returns False when no split was in flight.
        """
        if not self._split_active:
            return False
        ctx = self._ctx
        self._transfer.cancel("split")
        child = self._pending_child
        host = self._pending_host
        if child is not None:
            ctx.fabric.decommission_pair(child[0], host)
        elif host is not None:
            ctx.fabric.release_host(host)
        self._split_failed()
        return True

    def _check_split_stuck(self, epoch: int) -> None:
        if epoch != self._split_epoch or not self._split_active:
            return
        self.abort_split()

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
        child = ctx.children[-1]
        ctx.busy = True
        self._reclaiming = child
        self._reclaim_epoch += 1
        ctx.policy.note_reclaim_attempt(ctx.now)
        self._arm_watchdog(self._check_reclaim_stuck, self._reclaim_epoch)
        request = ReclaimRequest(
            parent=ctx.name, parent_game_server=ctx.game_server
        )
        ctx.control_send(child.matrix_name, "matrix.ctl.reclaim_req", request)

    @handles("matrix.ctl.reclaim_req")
    def on_reclaim_request(self, message: Message) -> None:
        ctx = self._ctx
        request: ReclaimRequest = message.payload
        if ctx.busy or ctx.children:
            # Mid-split, or we have children of our own: refuse.
            ctx.control_send(message.src, "matrix.ctl.reclaim_nack", None)
            return
        ctx.busy = True
        ctx.dying = True
        self._evacuating = True
        self._evacuate_epoch += 1
        self._arm_watchdog(self._check_evacuate_stuck, self._evacuate_epoch)
        # Evacuate our clients to the parent's game server, then send
        # the dynamic state back.
        ctx.control_send(ctx.game_server, "gs.evacuate", request.parent_game_server)
        self._transfer.start(request.parent, ctx.partition, "reclaim")

    def _finalize_reclaim_child(self) -> None:
        """Child side: state is back at the parent; announce and die."""
        ctx = self._ctx
        self._evacuating = False
        ack = ReclaimAck(
            child=ctx.name,
            child_partition=ctx.partition,
            client_count=ctx.client_count,
        )
        ctx.control_send(ctx.parent, "matrix.ctl.reclaim_ack", ack)

    def _check_evacuate_stuck(self, epoch: int) -> None:
        """Child side: the parent vanished mid-reclaim — come back up."""
        if epoch != self._evacuate_epoch or not self._evacuating:
            return
        ctx = self._ctx
        self._evacuating = False
        self._transfer.cancel("reclaim")
        ctx.dying = False
        ctx.busy = False
        # The evacuation already shut the game server down; resume its
        # periodic duties so the partition serves rejoining clients.
        ctx.control_send(ctx.game_server, "gs.resume", None)

    @handles("matrix.ctl.reclaim_nack")
    def on_reclaim_nack(self, message: Message) -> None:
        child = self._reclaiming
        if child is None or message.src != child.matrix_name:
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
        child = self._reclaiming
        self._reclaiming = None
        self._reclaim_epoch += 1
        if notify_child and child is not None:
            ctx.control_send(
                child.matrix_name, "matrix.ctl.reclaim_abort", None
            )
        ctx.policy.note_reclaim_failure(ctx.now)
        ctx.stats.failed_reclaims += 1
        ctx.busy = False

    def _check_reclaim_stuck(self, epoch: int) -> None:
        if epoch != self._reclaim_epoch or self._reclaiming is None:
            return
        # Timed out mid-protocol: the child may already be evacuating.
        self._abort_reclaim(notify_child=True)

    @handles("matrix.ctl.reclaim_abort")
    def on_reclaim_abort(self, message: Message) -> None:
        """Child side: the parent cancelled the reclaim — come back up.

        Idempotent with the evacuate watchdog and harmless after a
        plain nack (the child never went dying).  Covers the window
        where the child's state transfer completed *after* the parent
        aborted: the parent drops the stale ack, and this notice undoes
        the child's shutdown.
        """
        ctx = self._ctx
        if not ctx.dying:
            return
        self._evacuating = False
        self._evacuate_epoch += 1
        self._transfer.cancel("reclaim")
        ctx.dying = False
        ctx.busy = False
        ctx.control_send(ctx.game_server, "gs.resume", None)

    @handles("matrix.ctl.reclaim_ack")
    def on_reclaim_ack(self, message: Message) -> None:
        ctx = self._ctx
        ack: ReclaimAck = message.payload
        child = self._reclaiming
        if child is None or child.matrix_name != ack.child:
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
        ctx.fabric.decommission_pair(child.matrix_name, child.host_id)
        self._reclaiming = None
        self._reclaim_epoch += 1
        ctx.policy.note_reclaim_success()
        ctx.stats.reclaims_completed += 1
        ctx.busy = False

    # ------------------------------------------------------------------
    # Watchdogs
    # ------------------------------------------------------------------
    def _arm_watchdog(self, check, epoch: int) -> None:
        """Schedule *check(epoch)* after the configured timeout, if any."""
        timeout = self._ctx.config.lifecycle_timeout
        if timeout is None:
            return
        self._ctx.node.sim.after(timeout, lambda: check(epoch))

    def halt(self) -> None:
        """Crash semantics: disarm watchdogs and dead-letter callbacks.

        Bumps all epochs so armed checks become no-ops — a dead host
        must not keep executing abort/resume logic (sending to removed
        nodes, double-decommissioning the child the supervisor already
        reclaimed) — and flags the lifecycle so a pool-acquire or
        pair-boot callback landing after the crash returns its
        resources instead of continuing the split post-mortem.
        In-flight state is deliberately left intact: the supervisor's
        autopsy reads it to reclaim the corpse's leases.
        """
        self._halted = True
        self._split_epoch += 1
        self._reclaim_epoch += 1
        self._evacuate_epoch += 1
