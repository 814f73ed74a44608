"""Parent side: start children one at a time, check and summarise them.

The parent never imports ``repro``.  Every number comes from a fresh
child (:mod:`perfbench.child`, :mod:`perfbench.probes`) started with
``PYTHONHASHSEED=0`` and waited for before the next one starts, so no
two measured processes ever share the host's two cores.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from perfbench.stats import summary

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
#: Fingerprints of every workload at the pinned seeds, on the commit
#: that last changed simulated behaviour on purpose.
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

#: The values every run of one workload and seed must reproduce exactly.
DETERMINISTIC = (
    "fingerprint", "violations", "sim_action_mean_ms", "sim_acked_share",
    "actions_sent", "simulated",
)
#: ``--quick`` and the warm-up run every workload at this share of its scale.
QUICK_FACTOR = 0.1
#: Set-up-only children per full run: a set-up is 0.1 s and noisy, a
#: child that stops after it costs 0.2 s.
SETUPS_PER_RUN = 2
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark cannot run at all (as opposed to: a run failed)."""


def start_child(module: str, spec: dict) -> dict | None:
    """Run ``python -m <module> <spec>`` to completion; its JSON, or None
    when it crashed or hung (its stderr is passed through)."""
    environment = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    # Children import from cached byte code, as a user's second run does:
    # the warm-up writes it, whatever the caller's environment says.
    environment.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        done = subprocess.run(
            [sys.executable, "-m", module, json.dumps(spec)],
            cwd=ROOT,
            env=environment,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {module} {spec} timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def run_once(
    workload: str,
    seed: int,
    scale_factor: float = 1.0,
    trace: bool = False,
    setup_only: bool = False,
) -> dict | None:
    return start_child(
        "perfbench.child",
        {
            "workload": workload,
            "seed": seed,
            "scale_factor": scale_factor,
            "trace": trace,
            "setup_only": setup_only,
        },
    )


def measure_once(
    workload: str, seed: int, scale_factor: float, runs: list, setups: list
) -> None:
    """One untraced run onto *runs* and, interleaved with it so drift
    hits both alike, :data:`SETUPS_PER_RUN` set-ups onto *setups*."""
    runs.append(run_once(workload, seed, scale_factor))
    for _ in range(SETUPS_PER_RUN):
        setups.append(run_once(workload, seed, scale_factor, setup_only=True))


def warm_up(workload: str, seed: int) -> None:
    """One small untimed run, so no measured child compiles ``.pyc`` files.

    Also where a checkout without the program is found out: the child
    cannot import ``repro`` and the benchmark stops without a result.
    """
    if run_once(workload, seed, scale_factor=QUICK_FACTOR) is None:
        raise BenchmarkError(f"the warm-up run of {workload!r} failed")


def measure_for(
    workload: str, seed: int, seconds: float, scale_factor: float
) -> tuple[list, list]:
    """``(runs, setups)`` of *workload*, back to back, for about *seconds*.

    At least two runs, so the agreement check has something to compare;
    then as many as finish inside the budget, judged by the slowest so far.
    """
    runs: list = []
    setups: list = []
    started = time.monotonic()
    slowest = 0.0
    while len(runs) < 2 or time.monotonic() - started + slowest <= seconds:
        began = time.monotonic()
        measure_once(workload, seed, scale_factor, runs, setups)
        slowest = max(slowest, time.monotonic() - began)
    return runs, setups


def finished(runs: list) -> list:
    """The runs that reported (a crashed or hung child is ``None``)."""
    return [run for run in runs if run is not None]


def check(
    workload: str, seed: int, runs: list, setups: list = ()
) -> tuple[list[str], list[str], bool]:
    """``(failures, notes, pinned)`` for all runs of one workload and seed.

    A failure is a child that crashed, or a run that disagreed with its
    siblings on a deterministic value (tracing must be observation-only); the
    workload's operations then count as failed.  Notes do not fail the
    benchmark: invariant violations (see :mod:`perfbench.child` for why
    not) and drift from ``expected.json``.  *pinned* is False on drift:
    simulated behaviour changed, which voids a performance comparison
    with an earlier commit but is not an error.
    """
    failures, notes = [], []
    good = finished(runs)
    crashed = len(runs) - len(good) + len(setups) - len(finished(setups))
    if crashed:
        failures.append(f"{crashed} run(s) crashed or hung")
    if not good:
        return failures, notes, True
    first = good[0]
    for run in good[1:]:
        for key in DETERMINISTIC:
            if run[key] != first[key]:
                failures.append(
                    f"runs disagree on {key}: {first[key]} != {run[key]}"
                )
    notes.extend(f"invariant violated: {v}" for v in first["violations"])
    expected = EXPECTED.get(workload, {}).get(str(seed))
    pinned = (
        expected is None
        or first["effective"]["scale"] != expected["scale"]
        or all(first[key] == expected[key] for key in ("fingerprint", "violations"))
    )
    if not pinned:
        notes.append(
            "fingerprint differs from perfbench/expected.json: simulated "
            "behaviour changed, so a performance comparison with an earlier "
            "commit on this workload is void"
        )
    return failures, notes, pinned


def operations(runs: list, failures: list[str]) -> tuple[int, int]:
    """``(attempted, failed)`` client actions over *runs*.

    Operations are client actions (``GameClient.actions_sent``).  A
    crashed run attempted as many as its siblings; when any check
    failed, every action of the workload counts as failed.
    """
    sent = [run["actions_sent"] for run in finished(runs)]
    attempted = sum(sent) + (len(runs) - len(sent)) * max(sent, default=1)
    return attempted, attempted if failures else 0


#: The unscaled wall seconds behind ``run_s``, and the scale applied.
HOST_TIMES = ("run_wall_s", "speed_scale")


def summarize(runs: list, names) -> dict:
    """Median, quartiles and n over *runs* of each value in *names*."""
    return {
        name: summary([run[name] for run in finished(runs)]) for name in names
    }


def end_to_end(runs: list, setups: list) -> dict:
    """Every end-to-end metric: ``setup_s`` over the set-up-only
    children, the others over the full runs."""
    return {
        name: summarize(setups if name == "setup_s" else runs, [name])[name]
        for name in END_TO_END
    }


def per_layer(
    untraced_run_s: float, traced: dict, probes: dict, pinned: bool
) -> dict:
    """All per-layer metrics: the traced run's, the probes' and the two
    that compare the traced run with the untraced ones."""
    return {
        **traced["layers"],
        **probes,
        "trace.overhead_ratio": traced["run_s"] / untraced_run_s,
        "harness.fingerprint_match": float(pinned),
    }


def provenance() -> dict:
    """Where and on what these numbers were taken (ROADMAP item (c))."""

    def git(*arguments: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *arguments], cwd=ROOT, capture_output=True, text=True
            )
        except FileNotFoundError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "PYTHONHASHSEED": "0",
    }
