"""Split/reclaim decision logic with oscillation damping (§3.2.3).

The paper: "Matrix uses simple heuristics (not described) to prevent
oscillations and ensure stability in the splitting / reclamation
process."  The heuristics implemented here are the standard trio:

1. *persistence* — overload must be seen in k consecutive load reports
   before a split fires (filters one-report blips);
2. *cool-downs* — a server that just split (or reclaimed) waits before
   doing it again, so state transfers settle between decisions;
3. *reclaim margin* — a child is only reclaimed when the merged load
   would sit comfortably below the overload threshold
   (``reclaim_combined_factor``), so a reclaim cannot immediately
   trigger a re-split.
"""

from __future__ import annotations

from enum import Enum

from repro.core.config import LoadPolicyConfig


class Decision(Enum):
    """What the policy wants the Matrix server to do right now."""

    NONE = "none"
    SPLIT = "split"
    RECLAIM = "reclaim"


class ChildLoad:
    """Last known load of one child server (from gossip)."""

    __slots__ = ("client_count", "has_children", "born_at")

    def __init__(
        self, client_count: int, has_children: bool, born_at: float
    ) -> None:
        self.client_count = client_count
        self.has_children = has_children
        self.born_at = born_at


class LoadPolicy:
    """Per-Matrix-server split/reclaim decision state machine."""

    def __init__(self, config: LoadPolicyConfig) -> None:
        self._config = config
        self._consecutive_overloads = 0
        self._consecutive_underloads = 0
        self._last_split_at = float("-inf")
        self._last_reclaim_at = float("-inf")
        self._last_failed_split_at = float("-inf")
        self._last_failed_reclaim_at = float("-inf")

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    def is_overloaded(self, client_count: int) -> bool:
        """Paper Fig 2: 'a server is overloaded when it has 300+ clients'."""
        return client_count >= self._config.overload_clients

    def is_underloaded(self, client_count: int) -> bool:
        """Paper Fig 2: underloaded below 150 clients."""
        return client_count < self._config.underload_clients

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def on_load_report(
        self,
        now: float,
        client_count: int,
        youngest_child: ChildLoad | None,
        busy: bool,
    ) -> Decision:
        """Evaluate one load report and return the action to take.

        *youngest_child* is the most recently spawned, still-live child
        (reclamation is LIFO so partitions merge back into rectangles);
        *busy* is True while a split/reclaim is already in flight, which
        suppresses new decisions entirely.
        """
        config = self._config

        if self.is_overloaded(client_count):
            self._consecutive_overloads += 1
        else:
            self._consecutive_overloads = 0

        reclaim_viable = (
            youngest_child is not None
            and not youngest_child.has_children
            and self.is_underloaded(client_count)
            and self.is_underloaded(youngest_child.client_count)
            and client_count + youngest_child.client_count
            <= config.reclaim_combined_factor * config.overload_clients
        )
        if reclaim_viable:
            self._consecutive_underloads += 1
        else:
            self._consecutive_underloads = 0

        if busy:
            return Decision.NONE

        if (
            self._consecutive_overloads >= config.consecutive_overload_reports
            and now - self._last_split_at >= config.split_cooldown
            and now - self._last_failed_split_at >= config.split_cooldown
        ):
            return Decision.SPLIT

        if (
            reclaim_viable
            and self._consecutive_underloads
            >= config.consecutive_underload_reports
            and now - youngest_child.born_at >= config.min_child_lifetime
            and now - self._last_reclaim_at >= config.reclaim_cooldown
            and now - self._last_failed_reclaim_at >= config.reclaim_cooldown
        ):
            return Decision.RECLAIM

        return Decision.NONE

    # ------------------------------------------------------------------
    # Feedback from the server
    # ------------------------------------------------------------------
    # The lifecycle reports each split/reclaim in two halves: an
    # *attempt* when it starts (restarts the persistence count) and a
    # *success*/*failure* when the outcome is known.  No decision is
    # taken while one is in flight (``busy``), so the cooldown is
    # stamped at the outcome: a success stamps it from the attempt's
    # start, and a failure — a pool-exhausted split, a nacked reclaim —
    # leaves it alone and backs off one cooldown from the failure
    # instead.  Completed and failed operations are counted in the
    # server's ServerStats, not here.

    def note_split_attempt(self) -> None:
        """A split was initiated (outcome not yet known)."""
        self._consecutive_overloads = 0

    def note_split_success(self, started_at: float) -> None:
        """The split started at *started_at* completed: cool down."""
        self._last_split_at = started_at

    def note_split_failure(self, now: float) -> None:
        """The in-flight split failed at *now*: back off."""
        self._last_failed_split_at = now

    def note_reclaim_attempt(self) -> None:
        """A reclaim was initiated (outcome not yet known)."""
        self._consecutive_underloads = 0

    def note_reclaim_success(self, started_at: float) -> None:
        """The reclaim started at *started_at* was acked: cool down."""
        self._last_reclaim_at = started_at

    def note_reclaim_failure(self, now: float) -> None:
        """The in-flight reclaim was nacked/aborted at *now*: back off."""
        self._last_failed_reclaim_at = now
