"""A run imports only what it runs.

``setup_s`` (perfbench) is what ``python -m repro run`` pays before the
first event, and almost all of it is imports.  The pool, chaos, the
shard lanes, each backend (the Matrix runtime included), traces,
fuzzing and the paper's analysis load at the call that uses them, so a
plain Matrix run never pays for a rival and a rival run never pays for
Matrix.  Each check runs in a fresh interpreter: inside pytest
every module is long since imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.runner import backend_names

SRC = Path(__file__).resolve().parents[2] / "src"

#: Modules a plain Matrix run has no use for.
NOT_IN_A_PLAIN_RUN = (
    "multiprocessing",
    "concurrent.futures",
    "repro.chaos",
    "repro.trace",
    "repro.fuzz",
    "repro.sim.sharded",
    "repro.net.sharded",
    "repro.geometry.sharding",
    "repro.baselines.dht",
    "repro.baselines.mirrored",
    "repro.baselines.p2p",
    "repro.baselines.static",
    "repro.harness.parallel",
    "repro.harness.micro",
    "repro.harness.userstudy",
    "repro.harness.sweep",
    "repro.harness.fuzz",
    "repro.analysis.asymptotic",
    "repro.analysis.asciiplot",
)

#: The Matrix runtime, which a rival backend's run never uses.
MATRIX_RUNTIME = (
    "repro.harness.experiment",
    "repro.core.coordinator",
    "repro.core.deployment",
    "repro.core.policy",
    "repro.core.pool",
    "repro.core.runtime",
)

#: The modules loaded when a scaled ``fig2-hotspot`` run on *backend*
#: reaches its ``observe`` hook: ``import repro``, the arguments built
#: the way ``perfbench/workloads.py`` ``run_arguments`` builds them, and
#: the experiment (perfbench's ``setup_s``).
SETUP_PROBE = """
import json, sys
import repro
from repro.core.config import LoadPolicyConfig
from repro.games.profile import profile_by_name
from repro.harness.compare import scaled_profile
from repro.harness.gridcells import backend_run_options
from repro.workload.scenarios import build_scenario

class SetUp(Exception):
    pass

def observe(experiment):
    raise SetUp(sorted(sys.modules))

backend, scale = sys.argv[1], 0.25
scenario = build_scenario("fig2-hotspot")
policy = LoadPolicyConfig().scaled(scale, floor_overload=6, floor_underload=3)
try:
    repro.run_scenario(
        scenario,
        backend=backend,
        profile=scaled_profile(profile_by_name(scenario.game), scale),
        scale=scale,
        observe=observe,
        **backend_run_options(backend, scale, policy, seed=1),
    )
except SetUp as reached:
    print(json.dumps(reached.args[0]))
"""

#: One scaled run on *backend*: the modules first imported between the
#: ``observe`` hook and ``run_scenario`` returning.
RUN_PROBE = """
import json, sys
from repro.harness.compare import scaled_run_arguments
from repro.harness.gridcells import GRID_FLOORS
from repro.harness.runner import run_scenario
from repro.workload.scenarios import build_scenario

observed = {}
run_scenario(
    observe=lambda experiment: observed.update(modules=set(sys.modules)),
    **scaled_run_arguments(
        build_scenario("fig2-hotspot"), sys.argv[1], 0.05, 1, **GRID_FLOORS
    ),
)
print(json.dumps(sorted(set(sys.modules) - observed["modules"])))
"""


def fresh_interpreter(probe: str, *args: str):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_setup_of_a_plain_matrix_run_loads_no_optional_module():
    loaded = set(fresh_interpreter(SETUP_PROBE, "matrix"))
    assert [name for name in NOT_IN_A_PLAIN_RUN if name in loaded] == []


@pytest.mark.parametrize("backend", ["static", "p2p"])
def test_setup_of_a_rival_run_loads_no_matrix_runtime(backend):
    loaded = set(fresh_interpreter(SETUP_PROBE, backend))
    assert [name for name in MATRIX_RUNTIME if name in loaded] == []


@pytest.mark.parametrize("backend", backend_names())
def test_no_module_is_imported_while_a_run_runs(backend):
    assert fresh_interpreter(RUN_PROBE, backend) == []
