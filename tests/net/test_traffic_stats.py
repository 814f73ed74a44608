"""Accounting equivalence for :class:`TrafficStats`.

``TrafficStats`` stores two tables and derives the rest on read; the
reference here keeps all five, one ``add`` per table per message — the
accounting the derived views replaced.
"""

import dataclasses
import pickle
from collections import defaultdict

from hypothesis import given, settings, strategies as st

from repro.net import Message, TrafficStats

NODES = ["client.1", "client.2", "gs.0", "ms.0", "mc"]
KINDS = ["game.update", "game.snapshot", "matrix.forward", "mc.sync"]

streams = st.lists(
    st.tuples(
        st.sampled_from(NODES),
        st.sampled_from(NODES),
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=2000),
    ),
    max_size=60,
)


def message(src, dst, kind, size):
    return Message(src=src, dst=dst, kind=kind, payload=None, size_bytes=size)


class FiveTableReference:
    """Every breakdown stored and updated per message: (messages, bytes)."""

    def __init__(self):
        self.total = [0, 0]
        self.by_kind = defaultdict(lambda: [0, 0])
        self.by_pair = defaultdict(lambda: [0, 0])
        self.by_node_sent = defaultdict(lambda: [0, 0])
        self.by_node_received = defaultdict(lambda: [0, 0])

    def record(self, src, dst, kind, size):
        for entry in (
            self.total,
            self.by_kind[kind],
            self.by_pair[(src, dst)],
            self.by_node_sent[src],
            self.by_node_received[dst],
        ):
            entry[0] += 1
            entry[1] += size


def as_pairs(table):
    return {
        key: (counter.messages, counter.bytes)
        for key, counter in table.items()
        if counter.messages or counter.bytes
    }


@settings(max_examples=60, deadline=None)
@given(stream=streams, data=st.data())
def test_stats_equal_the_five_table_reference(stream, data):
    reference = FiveTableReference()
    stats = TrafficStats()
    for src, dst, kind, size in stream:
        reference.record(src, dst, kind, size)
        stats.record(message(src, dst, kind, size))

    assert (stats.total.messages, stats.total.bytes) == tuple(reference.total)
    for name in ("by_kind", "by_pair", "by_node_sent", "by_node_received"):
        expected = {k: tuple(v) for k, v in getattr(reference, name).items()}
        assert as_pairs(getattr(stats, name)) == expected, name
    for kind in KINDS + ["game.", "m", "absent"]:
        matching = [v for k, v in reference.by_kind.items() if k.startswith(kind)]
        assert stats.kind_messages(kind) == sum(v[0] for v in matching)
        assert stats.kind_bytes(kind) == sum(v[1] for v in matching)

    # A sharded run records the same messages in another order.
    reordered = TrafficStats()
    for src, dst, kind, size in data.draw(st.permutations(stream)):
        reordered.record(message(src, dst, kind, size))
    assert reordered.canonical_digest() == stats.canonical_digest()


def test_record_updates_exactly_the_two_stored_tables():
    assert [f.name for f in dataclasses.fields(TrafficStats)] == ["by_kind", "by_pair"]
    stats = TrafficStats()
    stats.record(message("a", "b", "k", 7))
    assert vars(stats) == {"by_kind": stats.by_kind, "by_pair": stats.by_pair}
    assert as_pairs(stats.by_kind) == {"k": (1, 7)}
    assert as_pairs(stats.by_pair) == {("a", "b"): (1, 7)}


GOLDEN_STREAM = [
    ("client.1", "gs.0", "game.update", 64),
    ("client.2", "gs.0", "game.update", 72),
    ("gs.0", "client.1", "game.snapshot", 480),
    ("gs.0", "ms.0", "matrix.forward", 96),
    ("ms.0", "mc", "mc.sync", 0),
    ("client.1", "gs.0", "game.update", 64),
]

GOLDEN_DIGEST = """\
total=6:776
by_kind['game.snapshot']=1:480
by_kind['game.update']=3:200
by_kind['matrix.forward']=1:96
by_kind['mc.sync']=1:0
by_pair[('client.1', 'gs.0')]=2:128
by_pair[('client.2', 'gs.0')]=1:72
by_pair[('gs.0', 'client.1')]=1:480
by_pair[('gs.0', 'ms.0')]=1:96
by_pair[('ms.0', 'mc')]=1:0
by_node_sent['client.1']=2:128
by_node_sent['client.2']=1:72
by_node_sent['gs.0']=2:576
by_node_sent['ms.0']=1:0
by_node_received['client.1']=1:480
by_node_received['gs.0']=3:200
by_node_received['mc']=1:0
by_node_received['ms.0']=1:96"""


def golden_stats():
    stats = TrafficStats()
    for src, dst, kind, size in GOLDEN_STREAM:
        stats.record(message(src, dst, kind, size))
    return stats


def test_canonical_digest_format_is_pinned():
    assert golden_stats().canonical_digest() == GOLDEN_DIGEST


def test_message_and_stats_survive_a_pickle_round_trip():
    # ``--jobs`` grid workers ship both between processes.
    original = Message(
        src="gs.0", dst="client.1", kind="game.snapshot",
        payload={"tick": 3, "near": ("client.2",)}, size_bytes=480,
    )
    original.sent_at = 12.5
    clone = pickle.loads(pickle.dumps(original))
    assert clone is not original
    for slot in Message.__slots__:
        assert getattr(clone, slot) == getattr(original, slot), slot

    stats = golden_stats()
    restored = pickle.loads(pickle.dumps(stats))
    assert restored.canonical_digest() == GOLDEN_DIGEST
    restored.record(message("mc", "ms.0", "mc.sync", 8))  # still a live table
    assert restored.total.messages == 7
    assert stats.total.messages == 6
