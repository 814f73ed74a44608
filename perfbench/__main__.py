"""``python3 -m perfbench``: one command, four ways to call it.

* no arguments — the whole suite: every workload, ``--rounds`` untraced
  runs each (interleaved), one traced run each, the layer probes; prints
  every metric by name with its unit and writes
  ``perfbench/output/latest.json``;
* ``--workload W --seed N --seconds S --trace 0|1`` — the driver's
  protocol (see ``BENCHMARK.json``): one workload, and as the last line
  of standard output one JSON object with ``correct``, ``attempted``,
  ``failed`` and ``metrics``;
* ``--selfcheck`` — the suite twice, failing if two sets of runs of the
  same code disagree by more than the benchmark's own bounds;
* ``--quick`` — a tenth of the scale and, for the suite, one round: a
  schema and plumbing smoke test whose numbers mean nothing.

Exits non-zero when a check failed or the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import sys

from perfbench import runner
from perfbench.runner import END_TO_END, PER_LAYER, SPEC, WORKLOAD_NAMES

OUTPUT = runner.ROOT / "perfbench" / "output"


def show(title: str, table: dict, values: dict) -> None:
    """Print *values* by name with the units *table* gives them."""
    if set(values) != set(table):
        raise runner.BenchmarkError(
            "metrics out of step with BENCHMARK.json: "
            f"{sorted(set(values) ^ set(table))}"
        )
    print(title)
    for name, value in values.items():
        unit = table[name]["unit"]
        if isinstance(value, dict):
            print(
                f"  {name:<40} {value['median']:>14.6g} {unit:<6} "
                f"q1 {value['q1']:.6g}  q3 {value['q3']:.6g}  n {value['n']}"
            )
        else:
            print(f"  {name:<40} {value:>14.6g} {unit}")


def report_checks(workload: str, failures: list[str], notes: list[str]) -> None:
    for label, lines in (("FAILED", failures), ("NOTE", notes)):
        for line in lines:
            print(f"perfbench: {label} {workload}: {line}", file=sys.stderr)


def result_line(runs: list, failures: list[str], table: dict, values: dict) -> bool:
    """Print the driver's result object as the last line; True when correct."""
    attempted, failed = runner.operations(runs, failures)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": table[name]["unit"]}
                    for name, value in values.items()
                },
            }
        )
    )
    return not failures


def driver_end_to_end(
    workload: str, seed: int, seconds: float, scale_factor: float
) -> bool:
    """``--trace 0``: untraced runs for *seconds*, medians of each metric."""
    runner.warm_up(workload, seed)
    runs, setups = runner.measure_for(workload, seed, seconds, scale_factor)
    failures, notes, _ = runner.check(workload, seed, runs, setups)
    report_checks(workload, failures, notes)
    good = runner.finished(runs)
    if not good or not runner.finished(setups):
        raise runner.BenchmarkError("no run to report")
    summaries = runner.end_to_end(runs, setups)
    show(f"{workload} seed {seed}: end to end", END_TO_END, summaries)
    print(
        "perfbench: host wall seconds per run, and the speed scale applied:",
        [(round(r["run_wall_s"], 3), round(r["speed_scale"], 3)) for r in good],
        file=sys.stderr,
    )
    medians = {name: s["median"] for name, s in summaries.items()}
    return result_line(runs, failures, END_TO_END, medians)


def driver_per_layer(workload: str, seed: int, scale_factor: float) -> bool:
    """``--trace 1``: one untraced run, one traced run, the probes.  The
    work is fixed, so ``--seconds`` does not apply."""
    runner.warm_up(workload, seed)
    runs = [
        runner.run_once(workload, seed, scale_factor),
        runner.run_once(workload, seed, scale_factor, trace=True),
    ]
    probes = runner.start_child("perfbench.probes", {"seed": seed})
    if None in runs or probes is None:
        raise runner.BenchmarkError("a run or the layer probes crashed")
    failures, notes, pinned = runner.check(workload, seed, runs)
    report_checks(workload, failures, notes)
    untraced, traced = runs
    values = runner.per_layer(untraced["run_s"], traced, probes, pinned)
    show(f"{workload} seed {seed}: per-layer", PER_LAYER, values)
    return result_line(runs, failures, PER_LAYER, values)


def suite(seed: int, rounds: int, scale_factor: float) -> dict:
    """Every workload, end to end and per layer; the report as data."""
    for workload in WORKLOAD_NAMES:
        runner.warm_up(workload, seed)
    runs: dict[str, list] = {workload: [] for workload in WORKLOAD_NAMES}
    setups: dict[str, list] = {workload: [] for workload in WORKLOAD_NAMES}
    for _ in range(rounds):
        for workload in WORKLOAD_NAMES:  # round-robin: drift hits all alike
            runner.measure_once(
                workload, seed, scale_factor, runs[workload], setups[workload]
            )
    traced = {
        workload: runner.run_once(workload, seed, scale_factor, trace=True)
        for workload in WORKLOAD_NAMES
    }
    probes = runner.start_child("perfbench.probes", {"seed": seed})
    if probes is None or None in traced.values():
        raise runner.BenchmarkError("a traced run or the layer probes crashed")

    report = {
        "provenance": {
            **runner.provenance(),
            "seed": seed,
            "rounds": rounds,
            "scale_factor": scale_factor,
        },
        "workloads": {},
    }
    for workload in WORKLOAD_NAMES:
        every = runs[workload] + [traced[workload]]
        failures, notes, pinned = runner.check(
            workload, seed, every, setups[workload]
        )
        report_checks(workload, failures, notes)
        attempted, failed = runner.operations(every, failures)
        if not runner.finished(runs[workload]) or not runner.finished(
            setups[workload]
        ):
            raise runner.BenchmarkError(f"no run of {workload} to report")
        summaries = runner.end_to_end(runs[workload], setups[workload])
        layers = runner.per_layer(
            summaries["run_s"]["median"], traced[workload], probes, pinned
        )
        show(f"== {workload}: end to end", END_TO_END, summaries)
        show(f"== {workload}: per-layer", PER_LAYER, layers)
        report["workloads"][workload] = {
            "effective": traced[workload]["effective"],
            "fingerprint": traced[workload]["fingerprint"],
            "violations": traced[workload]["violations"],
            "simulated": traced[workload]["simulated"],
            "failures": failures,
            "notes": notes,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {
                name: {**s, "unit": END_TO_END[name]["unit"]}
                for name, s in summaries.items()
            },
            "host": runner.summarize(runs[workload], runner.HOST_TIMES),
            "per_layer": {
                name: {"value": value, "unit": PER_LAYER[name]["unit"]}
                for name, value in layers.items()
            },
        }
    return report


def correct(report: dict) -> bool:
    return not any(w["failures"] for w in report["workloads"].values())


def write(report: dict, name: str) -> None:
    OUTPUT.mkdir(exist_ok=True)
    (OUTPUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {OUTPUT / name}")


def selfcheck(seed: int, rounds: int) -> bool:
    """Two sets of runs of the same code must agree within the bounds."""
    first, second = suite(seed, rounds, 1.0), suite(seed, rounds, 1.0)
    agreed = correct(first) and correct(second)
    for workload in WORKLOAD_NAMES:
        for name, metric in END_TO_END.items():
            a, b = (
                r["workloads"][workload]["end_to_end"][name]["median"]
                for r in (first, second)
            )
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "ok" if abs(worse) <= metric["bound"] else "DISAGREE"
            agreed = agreed and verdict == "ok"
            print(
                f"selfcheck {workload:<14} {name:<18} {a:>12.6g} "
                f"{b:>12.6g} {worse:+8.2%} (bound {metric['bound']:.0%}) "
                f"{verdict}"
            )
    return agreed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--quick", action="store_true")
    options = parser.parse_args(argv)
    scale_factor = runner.QUICK_FACTOR if options.quick else 1.0
    try:
        if options.workload is not None and options.trace:
            ok = driver_per_layer(options.workload, options.seed, scale_factor)
        elif options.workload is not None:
            ok = driver_end_to_end(
                options.workload, options.seed, options.seconds, scale_factor
            )
        elif options.selfcheck:
            ok = selfcheck(options.seed, options.rounds)
        else:
            rounds = 1 if options.quick else options.rounds
            report = suite(options.seed, rounds, scale_factor)
            write(report, "quick.json" if options.quick else "latest.json")
            ok = correct(report)
    except runner.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
