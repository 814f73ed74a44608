"""Path -> layer mapping, including the sub-layer files and ``other``."""

import pytest

from perfbench.runner import ROOT
from perfbench.trace import LAYERS, SUBLAYERS, layer_of


@pytest.mark.parametrize(
    "path, expected",
    [
        ("sim/kernel.py", ("sim", None)),
        ("sim/events.py", ("sim", "sim.events")),
        ("sim/sharded.py", ("sim", "sim.sharded")),
        ("net/network.py", ("net", None)),
        ("net/queue.py", ("net", "net.queue")),
        ("net/stats.py", ("net", "net.stats")),
        ("net/middleware.py", ("net", "net.middleware")),
        ("net/sharded.py", ("net", "net.sharded")),
        ("core/deployment.py", ("core", None)),
        ("core/runtime/router.py", ("core", "core.runtime")),
        ("games/base.py", ("games", None)),
        ("games/grid.py", ("games", "games.grid")),
        ("workload/scenarios/spec.py", ("workload", None)),
        ("geometry/regions.py", ("geometry", None)),
        ("baselines/p2p.py", ("baselines", None)),
        ("harness/runner.py", ("harness", None)),
        ("perf/instruments.py", ("other", None)),
        ("analysis/stats.py", ("other", None)),
        ("cli.py", ("other", None)),
        ("__init__.py", ("other", None)),
        ("other/thing.py", ("other", None)),
    ],
)
def test_layer_of(path, expected):
    assert layer_of(path) == expected


def test_every_layer_and_sublayer_exists_in_the_program():
    package = ROOT / "src" / "repro"
    for layer in LAYERS:
        assert layer == "other" or (package / layer).is_dir(), layer
    for prefix, sublayer in SUBLAYERS.items():
        assert (package / prefix).exists(), prefix
        assert sublayer.split(".")[0] == prefix.split("/")[0]
