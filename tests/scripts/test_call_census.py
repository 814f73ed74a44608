"""The call census (``scripts/call_census.py``) on a toy package."""

import importlib
import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "call_census", ROOT / "scripts" / "call_census.py"
)
call_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(call_census)

TOY = '''
    import sys
    from typing import Protocol


    class Port(Protocol):
        def send(self, payload) -> None:
            """Send *payload*."""


    def shipped():
        return 1


    def tested_only():
        return 2


    def never_called():
        return 3


    def after_reset():
        return 4


    def clears_the_hook():
        sys.setprofile(None)
        return after_reset()
'''


@pytest.fixture
def toy(tmp_path, monkeypatch):
    package = tmp_path / "toy_census"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(TOY))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield package, importlib.import_module("toy_census.mod")
    sys.modules.pop("toy_census.mod", None)
    sys.modules.pop("toy_census", None)


def test_census_lists_test_only_and_never_called_functions(toy):
    package, mod = toy
    before = sys.getprofile()
    with call_census.CallRecorder() as surface:
        mod.shipped()
        # A call after the code under census clears the profile hook
        # still counts: otherwise after_reset would be listed as never.
        mod.clears_the_hook()
    with call_census.CallRecorder() as tests:
        mod.tested_only()
    assert sys.getprofile() is before

    test_only, never = call_census.census(
        call_census.defined_functions(package),
        surface.keys(package),
        tests.keys(package),
    )
    # The docstring-only Protocol method is not listed at all.
    assert [key[2] for key in test_only] == ["tested_only"]
    assert [key[2] for key in never] == ["never_called"]


def test_cli_steps_are_the_smoke_bench_jobs_repro_commands():
    """The census runs what CI's ``smoke-bench`` job runs: every distinct
    ``python -m repro`` command of the committed workflow, serially."""
    steps = call_census.cli_steps()
    assert len(steps) == 24 == len(set(steps))
    assert steps[:3] == ["list-scenarios", "list-mobility", "list-backends"]
    assert "run fig2-hotspot --scale 0.05 --seed 1" in steps
    for backend in ("p2p", "dht", "static", "mirrored"):
        assert f"run fig2-hotspot --backend {backend} --scale 0.05 --seed 1" in steps
    assert "run flash-crowd --scale 0.05 --seed 1 --shards 2" in steps
    assert "run crash-during-split --scale 0.05 --seed 1" in steps
    assert "run steady-churn --scale 0.25 --seed 1" in steps
    assert "run failover-storm --scale 0.05 --seed 1" in steps
    assert not [step for step in steps if "--jobs" in step or "|" in step]
    # The two takes are diffed only after both are recorded.
    assert steps.index("diff take1.trace take2.trace") > max(
        steps.index(step) for step in steps if step.startswith("record")
    )
