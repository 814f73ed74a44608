"""``BENCHMARK.json`` against the driver's limits, and the benchmark's
output against ``BENCHMARK.json`` (at ``--quick`` scale)."""

import json
import re
import subprocess
import sys

import pytest

from perfbench.runner import END_TO_END, PER_LAYER, ROOT, SPEC, WORKLOAD_NAMES

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def perfbench(*arguments):
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *arguments],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_benchmark_json_is_within_the_drivers_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert END_TO_END["setup_s"] == {
        "name": "setup_s", "unit": "s", "better": "lower",
        "bound": max(metric["bound"] for metric in SPEC["end_to_end"]),
    }
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 4) <= 3420  # set-up and start-up


def test_every_workload_is_defined_and_pinned():
    from perfbench.runner import EXPECTED
    from perfbench.workloads import WORKLOADS

    assert list(WORKLOADS) == WORKLOAD_NAMES
    assert sorted(EXPECTED) == sorted(WORKLOAD_NAMES)
    for workload in WORKLOAD_NAMES:
        assert EXPECTED[workload]["1"]["scale"] == WORKLOADS[workload].scale


@pytest.fixture(scope="module")
def quick():
    done = perfbench("--quick")
    assert done.returncode == 0, done.stderr
    report = json.loads((ROOT / "perfbench" / "output" / "quick.json").read_text())
    return done.stdout, report


def test_quick_suite_reports_every_listed_name_with_its_unit(quick):
    stdout, report = quick
    assert list(report["workloads"]) == WORKLOAD_NAMES
    for workload in report["workloads"].values():
        assert workload["failures"] == []
        for table, reported in (
            (END_TO_END, workload["end_to_end"]),
            (PER_LAYER, workload["per_layer"]),
        ):
            assert set(reported) == set(table)
            for name, entry in reported.items():
                assert entry["unit"] == table[name]["unit"]
                value = entry.get("median", entry.get("value"))
                assert isinstance(value, (int, float))
    for name, metric in {**END_TO_END, **PER_LAYER}.items():
        lines = re.findall(
            rf"^  {re.escape(name)} +\S+ {re.escape(metric['unit'])}\b",
            stdout, flags=re.MULTILINE,
        )
        assert len(lines) == len(WORKLOAD_NAMES), name


def test_quick_suite_carries_provenance(quick):
    _, report = quick
    assert {
        "git_sha", "git_dirty", "python", "platform", "cpu_count",
        "PYTHONHASHSEED", "seed", "rounds", "scale_factor",
    } <= set(report["provenance"])
    for name, workload in report["workloads"].items():
        effective = workload["effective"]
        assert {"scenario", "backend", "scale", "seed"} <= set(effective)
        assert len(workload["fingerprint"]["sha256"]) == 64


def test_driver_protocol_last_line():
    done = perfbench(
        "--workload", "churn", "--seed", "5", "--seconds", "1",
        "--trace", "0", "--quick",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == END_TO_END[name]["unit"] and entry["value"] > 0
