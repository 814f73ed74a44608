"""The top-level ``repro`` package: its version and its names."""

import re
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_the_package_and_its_metadata_carry_one_version():
    # A regex, not tomllib: the suite also runs on Python 3.10.
    project = PYPROJECT.read_text().split("[project]", 1)[1]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M)
    assert declared is not None
    assert repro.__version__ == declared.group(1)


def test_every_top_level_name_resolves():
    from repro.harness.experiment import MatrixExperiment

    assert all(getattr(repro, name) is not None for name in repro.__all__)
    assert repro.MatrixExperiment is MatrixExperiment
    with pytest.raises(AttributeError, match="MatrixServer"):
        repro.MatrixServer
