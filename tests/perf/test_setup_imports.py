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
reads it as a dataclass.  An immutable one subclasses
:class:`repro.value.Value` and keeps a frozen dataclass's equality,
hash, repr and immutability.
"""

import importlib
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.stats import Summary
from repro.baselines.backend import BackendInfo
from repro.baselines.dht import LookupCost, LookupHop, LookupResult
from repro.baselines.mirrored import MirroredCost
from repro.baselines.p2p import P2PCost
from repro.geometry import OverlapCell, OverlapRegion, Rect, Vec2
from repro.harness.compare import SystemOutcome, Verdict
from repro.harness.runner import backend_names
from repro.value import Value, replace
from repro.workload.mobility import MobilityEnv, MobilitySpec
from repro.workload.scenarios.spec import (
    ArrivalWave,
    Churn,
    CoordinatorCrash,
    Departure,
    HotspotWave,
    LinkDegrade,
    MapPoint,
    Migration,
    Recovery,
    Scenario,
    ServerCrash,
)

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
    # perfbench's describe() calls asdict() on it.
    "repro.core.config.LoadPolicyConfig",
)

#: The records that were dataclasses and are plain ``__slots__``
#: classes: ``None`` names every class of the module.
SLOTTED_RECORDS = {
    "repro.core.messages": None,
    "repro.games.packets": None,
    "repro.games.base": ("ClientRecord",),
    "repro.games.profile": ("GameProfile",),
    "repro.net.stats": ("Counter", "TrafficStats"),
    "repro.net.network": ("LinkProfile",),
    "repro.core.config": ("MatrixConfig", "PerfConfig"),
    "repro.core.policy": ("ChildLoad",),
    "repro.core.runtime.context": ("ChildRecord", "ServerStats"),
    "repro.core.runtime.transfer": ("_IncomingTransfer",),
    "repro.core.runtime.lifecycle": ("Split", "Reclaim", "Evacuation"),
    "repro.core.deployment": ("ServerEvent", "CrashRecovery"),
    "repro.baselines.backend": ("BackendInfo", "BackendResult"),
    "repro.baselines.dht": ("LookupCost", "LookupHop", "LookupResult"),
    "repro.baselines.mirrored": ("MirroredCost",),
    "repro.baselines.p2p": ("P2PCost",),
    "repro.harness.experiment": ("ExperimentResult",),
    "repro.harness.runner": ("ScenarioOutcome",),
    "repro.harness.compare": ("SystemOutcome", "Verdict"),
    "repro.analysis.stats": ("Summary",),
    "repro.geometry.vec": ("Vec2",),
    "repro.geometry.rect": ("Rect",),
    "repro.geometry.regions": ("OverlapCell", "OverlapRegion"),
    "repro.workload.mobility": ("MobilityEnv", "MobilitySpec"),
    "repro.workload.scenarios.spec": (
        "MapPoint", "ArrivalWave", "HotspotWave", "Departure", "Migration",
        "Churn", "ServerCrash", "CoordinatorCrash", "LinkDegrade",
        "Recovery", "Scenario",
    ),
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


@pytest.mark.parametrize("backend", backend_names())
def test_setup_declares_dataclasses_only_where_one_is_read(backend):
    reached = fresh_interpreter(SETUP_PROBE, backend)
    assert reached["dataclasses"] == list(READ_AS_DATACLASSES)


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


#: One valid instance of each :class:`~repro.value.Value` record (a
#: value record pickles as its constructor call, so its checks run).
WORLD = Rect(0.0, 0.0, 100.0, 100.0)
VALUE_SAMPLES = (
    Vec2(1.5, -2.0),
    Rect(0.0, 1.0, 2.0, 3.0),
    OverlapCell(Rect(0.0, 0.0, 5.0, 5.0), frozenset({"ms.2"})),
    OverlapRegion(frozenset({"ms.2"}), (Rect(0.0, 0.0, 5.0, 5.0),)),
    Summary(3, 2.0, 1.0, 2.0, 2.8, 2.98, 3.0),
    BackendInfo("matrix", "splits", "overlap tables", "forwards"),
    SystemOutcome("matrix", 12.0, 0, 0.2, 4, False),
    Verdict(100, 0.9, 1.5),
    MapPoint(0.25, 0.75),
    ArrivalWave(
        count=5,
        mobility=MobilitySpec("commuter", {"stops": 3}),
        center=MapPoint(0.5, 0.5),
    ),
    HotspotWave(40, MapPoint(0.5, 0.5), at=10.0, group="hot"),
    Departure("hot", 5, 50.0, 2.0),
    Migration("hot", MapPoint(0.2, 0.2), at=30.0),
    Churn(0.5, 0.0, 60.0),
    ServerCrash(12.0, "busiest"),
    CoordinatorCrash(20.0),
    LinkDegrade(5.0, 10.0, 0.1, 0.05, ("matrix.forward",)),
    Recovery(15.0),
    Scenario(
        "sample", "a sample", (ArrivalWave(count=5), ServerCrash(12.0)),
        60.0, grid=(2, 1),
    ),
    MobilitySpec("flock", {"spacing": 15.0}),
    MobilityEnv(WORLD, 25.0, random.Random(1), Vec2(5.0, 5.0), 4.0),
    P2PCost(1200.0, 5000.0),
    LookupCost(8, 1.5, 0.5e-3),
    LookupHop(1, "dht-ms.1", "dht-ms.3", 2),
    LookupResult(1, "dht-ms.3"),
    MirroredCost(3, 90, 225.0, 450.0, 225.0),
)


def test_every_value_record_has_a_sample():
    values = [cls for cls in slotted_records() if issubclass(cls, Value)]
    assert sorted(cls.__name__ for cls in values) == sorted(
        type(sample).__name__ for sample in VALUE_SAMPLES
    )


@pytest.mark.parametrize("cls", slotted_records(), ids=lambda c: c.__name__)
def test_a_slotted_record_pickles_with_its_slot_values(cls):
    """``ExperimentResult``, ``ServerEvent``, ``CrashRecovery``,
    ``SystemOutcome`` and ``Summary`` cross the ``--jobs`` pool; every
    record keeps pickling by its slots."""
    if issubclass(cls, Value):
        (record,) = [s for s in VALUE_SAMPLES if type(s) is cls]
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls
        assert pickle.dumps(copy) == pickle.dumps(record)
        return
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


@pytest.mark.parametrize(
    "value", VALUE_SAMPLES, ids=lambda v: type(v).__name__
)
def test_a_value_record_keeps_a_frozen_dataclass_contract(value):
    """Equal fields, equal records and hashes (the field tuple's hash,
    so no set or dict order moves); no attribute beyond the fields;
    ``replace`` keeps the type."""
    cls = type(value)
    fields = tuple(getattr(value, name) for name in cls.__slots__)
    copy = replace(value)
    assert type(copy) is cls and copy is not value
    assert copy == value and not copy != value
    assert value != fields
    try:
        expected = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(copy) == expected
    with pytest.raises(AttributeError):
        value.unknown = None
    assert not hasattr(value, "__dict__")


def test_a_value_record_prints_as_its_dataclass_did():
    assert repr(ArrivalWave(count=5)) == (
        "ArrivalWave(count=5, at=0.0, group='background', mobility=None, "
        "over=0.0, center=None, spread_fraction=0.9)"
    )
    with pytest.raises(ValueError) as refused:
        Rect(1, 0, 0, 1)
    assert str(refused.value) == (
        "degenerate rect: Rect(xmin=1, ymin=0, xmax=0, ymax=1)"
    )


@pytest.mark.parametrize("backend", backend_names())
def test_no_module_is_imported_while_a_run_runs(backend):
    assert fresh_interpreter(RUN_PROBE, backend) == []
