"""Validation tests for Matrix configuration, and the option inventory.

The inventory pins every settable value of the configuration objects
and of the constructors that build a Matrix run, the way the frame
budgets in ``tests/perf`` pin the hot paths.  An option holds a value
some caller outside the tests and examples sets differently from the
default; a value with one setting is a constant of the module that
owns the behaviour (``docs/ARCHITECTURE.md``, "Configuration").  The
lists below went from 74 settable values to 37 when the one-value
options became constants, to 36 when the distance metric did, to 35
when the perf step stride did, and to 34 when extra chaos faults
became scenario phases.  The chaos driver and the fuzz entry points
are pinned too, so the backend, fault and bound knobs they lost stay
gone.
Adding a name here means naming, in the same change, its second caller
outside the tests.
"""

import dataclasses
import inspect

import pytest

from repro.baselines.backend import ArchitectureBackend
from repro.chaos import ChaosDriver
from repro.core.api import MatrixPort
from repro.core.config import (
    SPATIAL_TAG_BYTES,
    STATE_CHUNK_BYTES,
    LoadPolicyConfig,
    MatrixConfig,
    PerfConfig,
)
from repro.core.deployment import MatrixDeployment
from repro.core.runtime import MatrixServer
from repro.games.base import GameClient, GameServer
from repro.geometry import Rect
from repro.harness.experiment import MatrixExperiment
from repro.harness.fuzz import fuzz_grid_tasks, run_fuzz_case
from repro.harness.runner import run_scenario
from repro.workload.fleet import ClientFleet


def test_default_config_valid():
    config = MatrixConfig()
    assert config.policy.overload_clients == 300
    assert config.policy.underload_clients == 150


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        MatrixConfig(visibility_radius=-1.0)


def test_radius_dominating_world_rejected():
    """R so large that localized consistency degenerates is refused."""
    with pytest.raises(ValueError):
        MatrixConfig(
            world=Rect(0, 0, 100, 100), visibility_radius=60.0
        )


def test_wire_defaults_sane():
    assert SPATIAL_TAG_BYTES > 0
    assert STATE_CHUNK_BYTES >= 1024


# ----------------------------------------------------------------------
# Option inventory
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "config, fields",
    [
        (
            MatrixConfig,
            [
                "world", "visibility_radius",
                "split_strategy", "policy", "batch_spatial_forwards",
                "lifecycle_timeout",
            ],
        ),
        (
            LoadPolicyConfig,
            [
                "overload_clients", "underload_clients",
                "consecutive_overload_reports",
                "consecutive_underload_reports", "split_cooldown",
                "reclaim_cooldown", "min_child_lifetime",
                "reclaim_combined_factor",
            ],
        ),
        (PerfConfig, ["enabled"]),
    ],
)
def test_config_fields_are_pinned(config, fields):
    assert [field.name for field in dataclasses.fields(config)] == fields


@pytest.mark.parametrize(
    "builder, keywords",
    [
        (
            MatrixExperiment,
            [
                "policy", "seed", "pool_capacity", "grid", "perf",
                "replicated_mc", "split_strategy", "batch_spatial_forwards",
            ],
        ),
        (ArchitectureBackend, ["seed", "perf"]),
        (MatrixDeployment, ["pool_capacity", "replicated_mc"]),
        (MatrixServer, ["parent", "host_id", "coordinator"]),
        (MatrixPort, []),
        (GameServer, ["queue_capacity"]),
        (GameClient, ["relocate", "position"]),
        (ClientFleet, []),
        (ChaosDriver, []),
        (
            run_fuzz_case,
            ["profile", "scale", "preview", "settle", "extra_invariants"],
        ),
        (fuzz_grid_tasks, ["profile", "scale", "preview", "settle"]),
    ],
)
def test_constructor_keywords_are_pinned(builder, keywords):
    parameters = inspect.signature(builder).parameters.values()
    assert [
        parameter.name
        for parameter in parameters
        if parameter.default is not inspect.Parameter.empty
    ] == keywords


def test_chaos_driver_takes_its_backend_from_the_experiment():
    parameters = inspect.signature(ChaosDriver).parameters
    assert list(parameters) == ["scenario", "experiment"]


def test_perf_survives_a_non_default_matrix_option():
    """Perf and a Matrix option together: the snapshot is collected."""
    outcome = run_scenario(
        "uniform-roam",
        scale=0.02,
        preview=5.0,
        seed=1,
        perf=PerfConfig(enabled=True),
        split_strategy="longest-axis",
    )
    assert outcome.experiment.config.split_strategy == "longest-axis"
    assert outcome.result.perf_snapshot is not None
