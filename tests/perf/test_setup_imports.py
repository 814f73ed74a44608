"""A run imports only what it runs.

``setup_s`` (perfbench) is what ``python -m repro run`` pays before the
first event, and almost all of it is imports.  The pool, chaos, the
shard lanes, each backend (the Matrix runtime included), traces,
fuzzing and the paper's analysis load at the call that uses them, so a
plain Matrix run never pays for a rival and a rival run never pays for
Matrix.  Each check runs in a fresh interpreter: inside pytest
every module is long since imported.

Importing a ``@dataclass`` compiles its generated methods from source
on every run (none of that code is cached in ``.pyc``), so a record
on the set-up path is a plain ``__slots__`` class unless something
reads it as a dataclass.
"""

import importlib
import json
import os
import pickle
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

#: The records a run still declares with ``@dataclass`` when it reaches
#: ``observe``, each with the code that reads it as one.
READ_AS_DATACLASSES = (
    # LoadPolicyConfig.scaled calls replace(), perfbench's describe()
    # asdict(), and tests/core/test_config.py pins its fields().
    "repro.core.config.LoadPolicyConfig",
    # tests/core/test_config.py pins their fields().
    "repro.core.config.MatrixConfig",
    "repro.core.config.PerfConfig",
    # tests/net/test_traffic_stats.py pins its fields().
    "repro.net.stats.TrafficStats",
    # harness.compare.scaled_profile and harness.micro call replace().
    "repro.games.profile.GameProfile",
    # Scenario.scaled and preview, fuzz.shrink, harness.gridcells and
    # harness.micro call replace(); tests/fuzz compares it by value.
    "repro.workload.scenarios.spec.Scenario",
    # Each phase's scaled() calls replace(); tests/fuzz compares every
    # phase by value, through Scenario.__eq__ or directly.
    "repro.workload.scenarios.spec.ArrivalWave",
    "repro.workload.scenarios.spec.Churn",
    "repro.workload.scenarios.spec.Departure",
    "repro.workload.scenarios.spec.HotspotWave",
    # tests/fuzz compares these by value, through Scenario.__eq__.
    "repro.workload.scenarios.spec.CoordinatorCrash",
    "repro.workload.scenarios.spec.LinkDegrade",
    "repro.workload.scenarios.spec.MapPoint",
    "repro.workload.scenarios.spec.Migration",
    "repro.workload.scenarios.spec.Recovery",
    "repro.workload.scenarios.spec.ServerCrash",
    "repro.workload.mobility.MobilitySpec",
    # The mobility models compare positions by value (arrived == stop).
    "repro.geometry.vec.Vec2",
    # OverlapMapCache.compute compares partitions by value.
    "repro.geometry.rect.Rect",
    # tests/core/test_failover.py and tests/geometry/test_regions.py
    # compare overlap cells by value.
    "repro.geometry.regions.OverlapCell",
    # tests/harness/test_micro_and_compare.py compares outcomes by value.
    "repro.harness.compare.SystemOutcome",
    # Frozen values that nothing compares or copies: their immutability
    # is what is read.
    "repro.analysis.stats.Summary",
    "repro.baselines.backend.BackendInfo",
    "repro.geometry.regions.OverlapRegion",
    "repro.harness.compare.Verdict",
    "repro.workload.mobility.MobilityEnv",
)

#: A rival backend's own frozen values, loaded by its builder.
RIVAL_DATACLASSES = {"p2p": ("repro.baselines.p2p.P2PCost",)}

#: The records that were dataclasses and are plain ``__slots__``
#: classes: ``None`` names every class of the module.
SLOTTED_RECORDS = {
    "repro.core.messages": None,
    "repro.games.packets": None,
    "repro.games.base": ("ClientRecord",),
    "repro.net.stats": ("Counter",),
    "repro.net.network": ("LinkProfile",),
    "repro.core.policy": ("ChildLoad",),
    "repro.core.runtime.context": ("ChildRecord", "ServerStats"),
    "repro.core.runtime.transfer": ("_IncomingTransfer",),
    "repro.core.runtime.lifecycle": ("Split", "Reclaim", "Evacuation"),
    "repro.core.deployment": ("ServerEvent", "CrashRecovery"),
    "repro.baselines.backend": ("BackendResult",),
    "repro.harness.experiment": ("ExperimentResult",),
    "repro.harness.runner": ("ScenarioOutcome",),
}

#: The modules loaded when a scaled ``fig2-hotspot`` run on *backend*
#: reaches its ``observe`` hook, and the classes among them declared
#: with ``@dataclass``: ``import repro``, the arguments built the way
#: ``perfbench/workloads.py`` ``run_arguments`` builds them, and the
#: experiment (perfbench's ``setup_s``).
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
    records = sorted(
        f"{name}.{cls.__qualname__}"
        for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == name
        and "__dataclass_fields__" in vars(cls)
    )
    raise SetUp({"modules": sorted(sys.modules), "dataclasses": records})

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
    loaded = set(fresh_interpreter(SETUP_PROBE, "matrix")["modules"])
    assert [name for name in NOT_IN_A_PLAIN_RUN if name in loaded] == []


@pytest.mark.parametrize("backend", ["static", "p2p"])
def test_setup_of_a_rival_run_loads_no_matrix_runtime(backend):
    loaded = set(fresh_interpreter(SETUP_PROBE, backend)["modules"])
    assert [name for name in MATRIX_RUNTIME if name in loaded] == []


@pytest.mark.parametrize("backend", ["matrix", "static", "p2p"])
def test_setup_declares_dataclasses_only_where_one_is_read(backend):
    expected = READ_AS_DATACLASSES + RIVAL_DATACLASSES.get(backend, ())
    reached = fresh_interpreter(SETUP_PROBE, backend)
    assert reached["dataclasses"] == sorted(expected)


def slotted_records():
    for module_name, names in SLOTTED_RECORDS.items():
        module = importlib.import_module(module_name)
        if names is None:
            names = [
                name
                for name, value in vars(module).items()
                if isinstance(value, type) and value.__module__ == module_name
            ]
        for name in names:
            yield getattr(module, name)


@pytest.mark.parametrize("cls", slotted_records(), ids=lambda c: c.__name__)
def test_a_slotted_record_pickles_with_its_slot_values(cls):
    """``ExperimentResult``, ``ServerEvent`` and ``CrashRecovery`` cross
    the ``--jobs`` pool; every record keeps pickling by its slots."""
    slots = [
        name
        for klass in cls.__mro__
        for name in vars(klass).get("__slots__", ())
    ]
    record = cls.__new__(cls)
    for number, name in enumerate(slots):
        setattr(record, name, (name, number))
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls
    assert not hasattr(copy, "__dict__")
    assert [getattr(copy, name) for name in slots] == [
        (name, number) for number, name in enumerate(slots)
    ]


@pytest.mark.parametrize("backend", backend_names())
def test_no_module_is_imported_while_a_run_runs(backend):
    assert fresh_interpreter(RUN_PROBE, backend) == []
