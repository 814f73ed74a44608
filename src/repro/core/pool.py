"""The server resource pool.

§3.2.3: "a Matrix server will first check, using some non-Matrix
external entity, for an available Matrix server."  This models that
entity: a finite pool of spare hosts with a provisioning delay.  When
the pool is exhausted, acquisition fails — which is exactly the regime
where Matrix degrades to static-partitioning behaviour (and what the
scalability bench explores).
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class ServerPool:
    """A finite pool of spare server hosts."""

    def __init__(
        self,
        sim: "Simulator",
        capacity: int,
        acquire_delay: float = 0.0,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"negative capacity: {capacity}")
        self._sim = sim
        self._capacity = capacity
        #: Hosts currently free.
        self.available = capacity
        self._acquire_delay = acquire_delay
        self._next_host = 0
        self._issued: set[str] = set()
        #: Reserved hosts whose provisioning callback has not fired yet
        #: (they belong to nobody until it does — leak audits skip them).
        self._provisioning: set[str] = set()
        self.acquire_failures = 0

    @property
    def issued(self) -> frozenset[str]:
        """Ids of hosts currently handed out (leak audits)."""
        return frozenset(self._issued)

    @property
    def provisioning(self) -> frozenset[str]:
        """Reserved hosts still inside their provisioning delay."""
        return frozenset(self._provisioning)

    def try_acquire(self, callback: Callable[[str | None], None]) -> bool:
        """Request a host; *callback* fires with a host id or ``None``.

        The host id arrives after the provisioning delay (models boot +
        image activation).  Returns ``True`` when a host was reserved,
        ``False`` when the pool was empty (callback still fires, with
        ``None``, so callers have one code path).
        """
        if self.available == 0:
            self.acquire_failures += 1
            self._sim.after(0.0, lambda: callback(None))
            return False
        self.available -= 1
        self._next_host += 1
        host_id = f"host-{self._next_host}"
        self._issued.add(host_id)
        self._provisioning.add(host_id)

        def deliver() -> None:
            self._provisioning.discard(host_id)
            callback(host_id)

        self._sim.after(self._acquire_delay, deliver)
        return True

    def release(self, host_id: str) -> bool:
        """Return a host to the pool.

        Hosts the pool never issued (e.g. the bootstrap server's own
        machine, or grid-bootstrap hosts) are ignored — they were never
        pool capacity.  Double-releasing an issued host raises.
        """
        if host_id not in self._issued:
            return False
        if self.available >= self._capacity:
            raise RuntimeError("release would exceed pool capacity")
        self._issued.discard(host_id)
        self._provisioning.discard(host_id)
        self.available += 1
        return True
