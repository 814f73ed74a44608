"""Traffic accounting for the simulated network.

The microbenchmarks in §4.2 are statements about traffic composition:
the coordinator's share of messages is negligible, and inter-Matrix-
server bytes track the size of the overlap regions.  This module keeps
the counters those benchmarks read.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.net.message import Message


@dataclass(slots=True)
class Counter:
    """Message count + byte count for one traffic class."""

    messages: int = 0
    bytes: int = 0

    def add(self, size: int) -> None:
        self.messages += 1
        self.bytes += size

    def merge(self, other: "Counter") -> None:
        self.messages += other.messages
        self.bytes += other.bytes


@dataclass
class TrafficStats:
    """Aggregated traffic counters with per-kind and per-pair breakdowns.

    Two tables are stored, the two that carry information: ``by_kind``
    and ``by_pair``.  ``total``, ``by_node_sent`` and
    ``by_node_received`` are sums over them, built on read, so the
    per-message cost is two table updates and a run holds no table it
    can recompute.
    """

    by_kind: dict[str, Counter] = field(
        default_factory=lambda: defaultdict(Counter)
    )
    by_pair: dict[tuple[str, str], Counter] = field(
        default_factory=lambda: defaultdict(Counter)
    )

    def record(self, message: Message) -> None:
        """Account one sent message."""
        size = message.size_bytes
        entry = self.by_kind[message.kind]
        entry.messages += 1
        entry.bytes += size
        entry = self.by_pair[message.src, message.dst]
        entry.messages += 1
        entry.bytes += size

    @property
    def total(self) -> Counter:
        """All traffic (the sum over ``by_kind``)."""
        total = Counter()
        for counter in self.by_kind.values():
            total.merge(counter)
        return total

    @property
    def by_node_sent(self) -> dict[str, Counter]:
        """Traffic per sending node (``by_pair`` summed over destinations)."""
        return self._by_endpoint(0)

    @property
    def by_node_received(self) -> dict[str, Counter]:
        """Traffic per addressed node (``by_pair`` summed over sources)."""
        return self._by_endpoint(1)

    def _by_endpoint(self, end: int) -> dict[str, Counter]:
        table: dict[str, Counter] = defaultdict(Counter)
        for pair, counter in self.by_pair.items():
            table[pair[end]].merge(counter)
        return table

    def canonical_digest(self) -> str:
        """A key-order-independent serialisation of every counter.

        Two stats objects digest identically iff every breakdown agrees
        exactly; dict insertion order (which differs between a sharded
        and a single-kernel run) does not affect it.  This is the
        "byte-identical ``TrafficStats``" the shard determinism tests
        and the scaling bench compare.
        """
        total = self.total
        parts = [f"total={total.messages}:{total.bytes}"]
        for table_name in ("by_kind", "by_pair", "by_node_sent", "by_node_received"):
            table = getattr(self, table_name)
            for key in sorted(table, key=repr):
                counter = table[key]
                if counter.messages or counter.bytes:
                    parts.append(
                        f"{table_name}[{key!r}]={counter.messages}:{counter.bytes}"
                    )
        return "\n".join(parts)

    # ------------------------------------------------------------------
    # Queries used by the microbenchmarks
    # ------------------------------------------------------------------
    def kind_bytes(self, prefix: str) -> int:
        """Total bytes of messages whose kind starts with *prefix*."""
        return sum(
            counter.bytes
            for kind, counter in self.by_kind.items()
            if kind.startswith(prefix)
        )

    def kind_messages(self, prefix: str) -> int:
        """Total messages whose kind starts with *prefix*.

        The architecture backends use this to report their consistency
        traffic (``mirror.*``, ``p2p.*``, ``dht.*``) without touching
        the counter internals.
        """
        return sum(
            counter.messages
            for kind, counter in self.by_kind.items()
            if kind.startswith(prefix)
        )
