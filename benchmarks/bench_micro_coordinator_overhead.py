"""M-mc — central-coordinator overhead (§4.2).

Expected shape: "the overhead of using a central coordinator was
negligible" — the MC is off the data path, so its traffic share is a
vanishing fraction even during a split/reclaim-heavy hotspot run.
"""

from common import fig2_result, record

from repro.harness.micro import coordinator_overhead


def test_coordinator_overhead():
    overhead = coordinator_overhead(fig2_result())
    lines = [
        "M-mc: Matrix Coordinator traffic share during the Fig 2 "
        "hotspot run (splits + reclaims included)",
        f"  MC messages: {overhead.mc_messages} of "
        f"{overhead.total_messages} "
        f"({overhead.message_fraction * 100:.4f} %)",
        f"  MC bytes:    {overhead.mc_bytes} of {overhead.total_bytes} "
        f"({overhead.byte_fraction * 100:.4f} %)",
        "",
        "paper: 'the overhead of using a central coordinator was "
        "negligible'",
    ]
    record("micro_coordinator_overhead", "\n".join(lines))

    assert overhead.mc_messages > 0, "splits must have involved the MC"
    assert overhead.message_fraction < 0.01
    assert overhead.byte_fraction < 0.01
