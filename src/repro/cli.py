"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``list-scenarios`` — the registered scenario catalog.
* ``list-mobility`` — the registered mobility models.
* ``list-backends`` — the registered architecture backends and their
  ownership/routing/consistency answers.
* ``run <scenario>`` — run one scenario on a backend and print a
  summary (``--scale`` shrinks the population *and* the policy
  thresholds/server capacity together, preserving the dynamics).
* ``compare <scenario>`` — run one scenario on several backends and
  print the shared-verdict comparison table (the generalised T-static).
* ``sweep`` — run every registered scenario and print a comparison
  table (the CLI face of the scenario-sweep benchmark); also writes the
  ``BENCH_scenario_sweep.json`` payload (``--json`` to relocate it).
* ``perf [scenario]`` — run one scenario with :mod:`repro.perf`
  instrumentation on and print the counter/timer/sampler report, or
  ``perf --suite`` for the consolidated throughput suite (the CLI face
  of ``benchmarks/bench_perf_suite.py``).
* ``fuzz`` — generative scenario fuzzing: run N seeded random
  scenarios through the invariant harness (:mod:`repro.fuzz`); a
  failure names its seed, ``--shrink`` reduces it to a minimal phase
  list, and ``--artifacts DIR`` records the failing run's trace.
* ``record <scenario>...`` — run scenarios with the trace recorder
  attached and write versioned ``.trace`` files (the client-visible
  event stream; see :mod:`repro.trace`).
* ``replay <trace>...`` — re-run recorded traces through the replay
  backend and self-check the round-trip digest.
* ``diff <a> <b>`` — regression-compare two trace files (exit 1 on
  drift).

The grid-shaped subcommands take ``--jobs N`` to fan their independent
cells out over N ``spawn`` worker processes
(:mod:`repro.harness.parallel`): ``sweep`` and ``perf --suite``
parallelise over scenarios, ``compare`` over backends, and ``run`` over
scenarios when several are named.  The default is serial, and every
deterministic output is bit-identical whatever ``--jobs`` is — only
wall-clock readings move.
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.stats import percentile
from repro.core.config import LoadPolicyConfig, PerfConfig
from repro.games.profile import profile_by_name
from repro.harness.compare import (
    compare_backends,
    format_backends_table,
    scaled_profile,
)
from repro.harness.parallel import GridTask, run_grid
from repro.harness.runner import backend_infos, backend_names, run_scenario
from repro.harness.sweep import (
    format_sweep_table,
    run_sweep_grid,
    write_sweep_json,
)
from repro.workload.mobility import list_mobility_models
from repro.workload.scenarios import build_scenario, scenario_names


def _scaled_setup(game: str, scale: float):
    """Profile + policy scaled coherently with the population."""
    profile = profile_by_name(game)
    if scale != 1.0:
        profile = scaled_profile(profile, scale)
    return profile, LoadPolicyConfig().scaled(scale)


def _print_scenarios() -> None:
    names = scenario_names()
    width = max(len(name) for name in names)
    print(f"{len(names)} registered scenarios:\n")
    for name in names:
        scn = build_scenario(name)
        phases = ", ".join(type(p).__name__ for p in scn.phases)
        print(f"  {name:<{width}}  {scn.game:<9} {scn.duration:>6.0f}s  "
              f"[{phases}]")
        print(f"  {'':<{width}}  {scn.description}")
        print()


def _print_mobility() -> None:
    names = list_mobility_models()
    print(f"{len(names)} registered mobility models:")
    for name in names:
        print(f"  {name}")


def _print_backends() -> None:
    infos = backend_infos()
    print(f"{len(infos)} registered architecture backends:\n")
    for info in infos:
        print(f"  {info.name} — {info.summary}")
        print(f"    ownership   : {info.ownership}")
        print(f"    routing     : {info.routing}")
        print(f"    consistency : {info.consistency}")
        print()


def _summarize_run(outcome, wall: float) -> None:
    result = outcome.result
    print(f"scenario : {outcome.scenario.name}")
    print(f"backend  : {outcome.backend}")
    print(f"duration : {outcome.scenario.duration:.0f}s simulated "
          f"({wall:.1f}s wall)")
    latencies = result.action_latencies
    p50 = percentile(latencies, 50) if latencies else 0.0
    p99 = percentile(latencies, 99) if latencies else 0.0
    if outcome.backend == "matrix":
        print(f"servers  : peak {result.peak_servers_in_use}, "
              f"final {result.final_server_count():.0f}, "
              f"splits {result.splits_completed}, "
              f"reclaims {result.reclaims_completed}")
        print(f"clients  : peak {result.total_clients.max():.0f}")
        print(f"events   : {result.events_processed}")
    else:
        print(f"servers  : {result.servers_used} (fixed)")
        print(f"events   : {result.events_processed}")
        print(f"dropped  : {result.dropped_packets} packets")
    print(f"queue    : peak {result.max_queue():.0f}")
    print(f"latency  : p50 {p50 * 1000:.1f}ms, p99 {p99 * 1000:.1f}ms "
          f"({len(latencies)} actions)")
    consistency = getattr(result, "consistency", None)
    if consistency:
        rendered = ", ".join(
            f"{key}={value:g}" for key, value in consistency.items()
        )
        print(f"consistency: {rendered}")
    _summarize_chaos(outcome)


def _summarize_chaos(outcome) -> None:
    """Append the fault-injection read-out when chaos was armed."""
    driver = getattr(outcome.experiment, "chaos", None)
    if driver is None:
        return
    report = driver.report()
    print("chaos    :")
    for fault in report.faults:
        detail = f" ({fault.detail})" if fault.detail else ""
        print(f"  t={fault.at:>6.1f}s {fault.fault:<18} "
              f"{fault.status}{detail}")
    for recovery in report.recoveries:
        took = recovery.recovery_time
        took_text = f"{took:.1f}s" if took is not None else "UNRECOVERED"
        print(f"  {recovery.victim} -> {recovery.replacement or '?'} "
              f"recovered in {took_text}")
    if report.mc_promoted_at is not None:
        print(f"  standby MC promoted at t={report.mc_promoted_at:.1f}s")
    print(f"  packets lost {report.undeliverable_packets}, "
          f"link-dropped {report.link_dropped}, "
          f"client rejoins {report.client_rejoins}, "
          f"leaked hosts {len(report.leaked_hosts)}")


def run_summary_cell(
    name: str,
    backend: str,
    scale: float,
    seed: int,
    duration: float | None,
    no_faults: bool,
    shards: int | None = None,
) -> dict:
    """One ``run`` fan-out cell (module-level: picklable for workers)."""
    scenario = build_scenario(name)
    profile, policy = _scaled_setup(scenario.game, scale)
    options = {"seed": seed}
    if backend == "matrix":
        options["policy"] = policy
        if shards is not None:
            options["shards"] = shards
    outcome = run_scenario(
        scenario,
        backend=backend,
        profile=profile,
        scale=scale,
        preview=duration,
        chaos=False if no_faults else "auto",
        **options,
    )
    result = outcome.result
    latencies = result.action_latencies
    servers = getattr(result, "peak_servers_in_use", None)
    if servers is None:
        servers = getattr(result, "servers_used", 0)
    return {
        "scenario": name,
        "events": result.events_processed,
        "peak_queue": result.max_queue(),
        "p99_latency": percentile(latencies, 99) if latencies else 0.0,
        "servers": servers,
    }


def _cmd_run(args) -> int:
    if len(args.scenarios) > 1:
        return _cmd_run_many(args)
    scenario = build_scenario(args.scenarios[0])
    profile, policy = _scaled_setup(scenario.game, args.scale)
    if args.shards is not None and args.backend != "matrix":
        print("error: --shards only applies to the matrix backend")
        return 2
    options = {"seed": args.seed}
    if args.backend == "matrix":
        options["policy"] = policy
        if args.shards is not None:
            options["shards"] = args.shards
    started = time.perf_counter()
    outcome = run_scenario(
        scenario,
        backend=args.backend,
        profile=profile,
        scale=args.scale,
        preview=args.duration,
        chaos=False if args.no_faults else "auto",
        **options,
    )
    _summarize_run(outcome, time.perf_counter() - started)
    return 0


def _cmd_run_many(args) -> int:
    """Several scenarios named: fan out and print a compact table."""
    tasks = [
        GridTask(
            key=(name,),
            fn=run_summary_cell,
            kwargs=dict(
                name=name,
                backend=args.backend,
                scale=args.scale,
                seed=args.seed,
                duration=args.duration,
                no_faults=args.no_faults,
                shards=args.shards if args.backend == "matrix" else None,
            ),
        )
        for name in dict.fromkeys(args.scenarios)  # dedup, keep order
    ]
    cells = run_grid(
        tasks,
        jobs=args.jobs,
        on_result=lambda cell: print(
            f"ran {cell.key[0]} ({cell.wall_seconds:.1f}s)"
        ),
    )
    print()
    print(
        f"{len(cells)} scenarios on {args.backend} "
        f"(scale={args.scale:g}, seed={args.seed}, jobs={args.jobs or 1}):"
    )
    print(
        f"{'scenario':<20} {'events':>10} {'peak q':>8} "
        f"{'p99 (s)':>8} {'servers':>8} {'wall (s)':>9}"
    )
    for cell in cells:
        row = cell.value
        print(
            f"{row['scenario']:<20} {row['events']:>10} "
            f"{row['peak_queue']:>8.0f} {row['p99_latency']:>8.3f} "
            f"{row['servers']:>8} {cell.wall_seconds:>9.1f}"
        )
    return 0


def record_trace_cell(
    name: str,
    backend: str,
    seed: int,
    scale: float,
    duration: float | None,
    out: str,
    shards: int | None = None,
) -> dict:
    """One ``record`` fan-out cell (module-level: picklable)."""
    from repro.trace.recorder import record_scenario

    scenario = build_scenario(name)
    profile, policy = _scaled_setup(scenario.game, scale)
    options = {}
    if backend == "matrix":
        options["policy"] = policy
        if shards is not None:
            options["shards"] = shards
    run = record_scenario(
        scenario,
        backend=backend,
        profile=profile,
        scale=scale,
        preview=duration,
        seed=seed,
        **options,
    )
    path = run.write(out)
    return {
        "scenario": name,
        "path": str(path),
        "events": run.header.events,
        "digest": run.header.digest,
    }


def _trace_out_path(out: str, name: str, many: bool) -> str:
    """Where one scenario's trace lands for ``record --out``."""
    from pathlib import Path

    target = Path(out)
    if not many and target.suffix:  # explicit file for a single trace
        return str(target)
    return str(target / f"{name}.trace")


def _cmd_record(args) -> int:
    from repro.harness.parallel import GridTaskError

    names = list(dict.fromkeys(args.scenarios))  # dedup, keep order
    many = len(names) > 1
    tasks = [
        GridTask(
            key=(name,),
            fn=record_trace_cell,
            kwargs=dict(
                name=name,
                backend=args.backend,
                seed=args.seed,
                scale=args.scale,
                duration=args.duration,
                out=_trace_out_path(args.out, name, many),
                shards=args.shards if args.backend == "matrix" else None,
            ),
        )
        for name in names
    ]
    try:
        cells = run_grid(tasks, jobs=args.jobs)
    except GridTaskError as exc:
        print(exc)
        return 1
    for cell in cells:
        row = cell.value
        print(
            f"recorded {row['scenario']}: {row['events']} events -> "
            f"{row['path']}"
        )
        print(f"  {row['digest']}")
    return 0


def _cmd_replay(args) -> int:
    from repro.trace.format import TraceCompatibilityError, TraceError
    from repro.trace.replay import replay_trace

    drifted = False
    for path in args.traces:
        try:
            outcome = replay_trace(path, backend=args.backend)
        except TraceCompatibilityError as exc:
            print(f"error: {exc}")
            return 2
        except TraceError as exc:
            print(f"error: {exc}")
            return 2
        result = outcome.result
        verdict = "ok" if result.matches_recording else "DRIFT"
        drifted = drifted or not result.matches_recording
        print(
            f"replayed {outcome.scenario.name}: "
            f"{result.replayed_messages} messages over "
            f"{result.endpoints} endpoints [{verdict}]"
        )
        print(f"  recorded {result.recorded_digest}")
    return 1 if drifted else 0


def _cmd_diff(args) -> int:
    from repro.trace.diff import diff_traces, format_diff
    from repro.trace.format import TraceError

    try:
        diff = diff_traces(args.trace_a, args.trace_b)
    except TraceError as exc:
        print(f"error: {exc}")
        return 2
    print(format_diff(diff, label_a=args.trace_a, label_b=args.trace_b))
    return 0 if diff.clean else 1


def _fuzz_seed_from_key(key: tuple) -> int | None:
    """Recover the generator seed from a fuzz cell key (seed=N)."""
    for part in key:
        text = str(part)
        if text.startswith("seed="):
            try:
                return int(text.removeprefix("seed="))
            except ValueError:
                return None
    return None


def _cmd_fuzz(args) -> int:
    from repro.fuzz.generator import fuzz_profile
    from repro.harness.fuzz import fuzz_grid_tasks
    from repro.harness.parallel import GridTaskError

    try:
        fuzz_profile(args.profile)  # fail fast on a typo'd profile name
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.seed_start, args.seed_start + args.seeds))
    tasks = fuzz_grid_tasks(
        seeds,
        args.profile,
        scale=args.scale,
        preview=args.duration,
        settle=args.settle,
        shards=args.shards,
    )
    try:
        cells = run_grid(
            tasks,
            jobs=args.jobs,
            on_result=lambda cell: print(
                f"ok {'/'.join(str(p) for p in cell.key)} "
                f"({cell.wall_seconds:.1f}s)"
            ),
        )
    except GridTaskError as exc:
        print(exc)
        seed = _fuzz_seed_from_key(exc.key)
        if seed is not None:
            _report_fuzz_failure(args, seed)
        return 1
    print()
    print(
        f"fuzz: {len(cells)} seeds passed the invariant harness "
        f"(profile={args.profile}, scale={args.scale:g}, "
        f"jobs={args.jobs or 1})"
    )
    total_phases = sum(cell.value["phases"] for cell in cells)
    total_events = sum(cell.value["events"] for cell in cells)
    print(f"  {total_phases} phases generated, {total_events} events "
          f"processed, 0 violations")
    return 0


def _report_fuzz_failure(args, seed: int) -> None:
    """Post-mortem for one failing fuzz seed: trace, then shrink."""
    print(f"\nfailing seed: {seed} (reproduce with: python -m repro fuzz "
          f"--seed {seed} --profile {args.profile} --scale {args.scale:g}"
          + (f" --duration {args.duration:g}" if args.duration else "")
          + ")")
    if args.artifacts:
        from pathlib import Path

        from repro.fuzz.generator import generate_scenario
        from repro.trace.recorder import record_scenario

        scenario = generate_scenario(seed, args.profile)
        profile, policy = _scaled_setup(scenario.game, args.scale)
        try:
            run = record_scenario(
                scenario,
                backend="matrix",
                profile=profile,
                scale=args.scale,
                preview=args.duration,
                seed=seed,
                policy=policy,
            )
            path = run.write(
                Path(args.artifacts)
                / f"fuzz-{args.profile}-{seed}.trace"
            )
            print(f"failing trace recorded: {path}")
        except Exception as exc:  # the run may crash before finishing
            print(f"could not record failing trace: {exc}")
    if args.shrink:
        from repro.harness.fuzz import shrink_fuzz_failure

        print("shrinking (bounded re-runs)...")
        shrunk = shrink_fuzz_failure(
            seed,
            args.profile,
            scale=args.scale,
            preview=args.duration,
            settle=args.settle,
            max_iterations=args.shrink_iterations,
        )
        print(
            f"minimal reproducer after {shrunk.iterations} runs "
            f"({shrunk.removed} phases removed):"
        )
        for phase in shrunk.scenario.phases:
            print(f"  {phase!r}")


def _cmd_perf(args) -> int:
    from repro.perf import format_report

    if args.suite:
        from repro.harness.perfsuite import (
            format_suite_table,
            kernel_comparison,
            run_perf_suite,
        )

        scenarios = run_perf_suite(
            args.scale,
            seed=args.seed,
            preview=args.duration,
            step_sample_every=args.sample_every,
            jobs=args.jobs,
        )
        kernel = kernel_comparison()
        print(f"perf suite (scale={args.scale:g}, seed={args.seed}, "
              f"jobs={args.jobs or 1}):")
        print(format_suite_table(scenarios))
        print()
        print(
            f"kernel drain: {kernel['events_per_sec']:,.0f} ev/s optimized "
            f"vs {kernel['legacy_events_per_sec']:,.0f} ev/s legacy "
            f"({kernel['speedup_vs_rich_heap']:.2f}x)"
        )
        return 0

    if args.scenario is None:
        print("error: a scenario name is required unless --suite is given")
        return 2
    scenario = build_scenario(args.scenario)
    profile, policy = _scaled_setup(scenario.game, args.scale)
    started = time.perf_counter()
    outcome = run_scenario(
        scenario,
        profile=profile,
        scale=args.scale,
        preview=args.duration,
        policy=policy,
        perf=PerfConfig(
            enabled=True, step_sample_every=args.sample_every
        ),
        seed=args.seed,
    )
    _summarize_run(outcome, time.perf_counter() - started)
    print()
    print(
        format_report(
            outcome.experiment.perf,
            title=f"perf report: {scenario.name} @ scale {args.scale:g}",
        )
    )
    return 0


def _cmd_compare(args) -> int:
    scenario = build_scenario(args.scenario)
    backends = (
        tuple(args.backends.split(",")) if args.backends else None
    )
    # compare_backends scales the profile and queue cap itself; only
    # the Matrix policy needs scaling here.
    outcomes = compare_backends(
        scenario,
        backends=backends,
        policy=LoadPolicyConfig().scaled(args.scale),
        seed=args.seed,
        scale=args.scale,
        preview=args.duration,
        jobs=args.jobs,
    )
    print(
        f"{scenario.name} on {len(outcomes)} backends "
        f"(scale={args.scale:g}, seed={args.seed}, jobs={args.jobs or 1}):"
    )
    print(format_backends_table(outcomes))
    return 0


def _cmd_sweep(args) -> int:
    run = run_sweep_grid(
        args.scale,
        seed=args.seed,
        preview=args.duration,
        on_result=lambda row: print(
            f"ran {row.scenario} ({row.wall_seconds:.1f}s)"
        ),
        jobs=args.jobs,
    )
    print()
    print(f"scenario sweep (scale={args.scale}, seed={args.seed}, "
          f"jobs={run.timing['jobs']}):")
    print(format_sweep_table(run.rows))
    if args.json:
        path = write_sweep_json(
            args.json, run.rows, run.timing, args.scale, args.seed
        )
        print(f"\nwrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Matrix reproduction: declarative scenario runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-scenarios", help="show the scenario catalog")
    sub.add_parser("list-mobility", help="show registered mobility models")
    sub.add_parser(
        "list-backends", help="show registered architecture backends"
    )

    def add_jobs_flag(sub_parser):
        sub_parser.add_argument(
            "--jobs", type=int, default=None, metavar="N",
            help="fan independent cells out over N worker processes "
            "(default: serial; deterministic outputs are identical "
            "either way)",
        )

    run_parser = sub.add_parser(
        "run", help="run one or more registered scenarios"
    )
    run_parser.add_argument(
        "scenarios", nargs="+", metavar="scenario",
        help="registered scenario name(s); several fan out (see --jobs)",
    )
    run_parser.add_argument(
        "--backend", default="matrix", choices=backend_names()
    )
    run_parser.add_argument(
        "--scale", type=float, default=1.0,
        help="population/policy/capacity scale factor (default 1.0)",
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--duration", type=float, default=None,
        help="truncate the scenario to this many simulated seconds",
    )
    run_parser.add_argument(
        "--no-faults", action="store_true",
        help="run a chaos scenario with its fault phases disarmed",
    )
    run_parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run the matrix backend on the space-partitioned kernel: N "
        "shard lanes executed one after the other, a determinism check, "
        "not a speed-up (same seed gives identical results at any N; "
        "incompatible with crash faults — LinkDegrade chaos is fine)",
    )
    add_jobs_flag(run_parser)

    compare_parser = sub.add_parser(
        "compare",
        help="run one scenario on several backends and tabulate verdicts",
    )
    compare_parser.add_argument("scenario", help="registered scenario name")
    compare_parser.add_argument(
        "--backends", default=None,
        help="comma-separated backend names (default: all registered)",
    )
    compare_parser.add_argument(
        "--scale", type=float, default=0.1,
        help="population/policy/capacity scale factor (default 0.1)",
    )
    compare_parser.add_argument("--seed", type=int, default=0)
    compare_parser.add_argument(
        "--duration", type=float, default=None,
        help="truncate the scenario to this many simulated seconds",
    )
    add_jobs_flag(compare_parser)

    sweep_parser = sub.add_parser(
        "sweep", help="run every registered scenario and tabulate"
    )
    sweep_parser.add_argument("--scale", type=float, default=0.1)
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument("--duration", type=float, default=None)
    sweep_parser.add_argument(
        "--json", default="benchmarks/output/BENCH_scenario_sweep.json",
        metavar="PATH",
        help="where to write the BENCH JSON payload (deterministic "
        "metrics + timing section); empty string disables",
    )
    add_jobs_flag(sweep_parser)

    perf_parser = sub.add_parser(
        "perf", help="run with perf instrumentation and print the report"
    )
    perf_parser.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario name (omit with --suite)",
    )
    perf_parser.add_argument(
        "--suite", action="store_true",
        help="run the consolidated perf suite instead of one scenario",
    )
    perf_parser.add_argument("--scale", type=float, default=0.05)
    perf_parser.add_argument("--seed", type=int, default=1)
    perf_parser.add_argument("--duration", type=float, default=None)
    perf_parser.add_argument(
        "--sample-every", type=int, default=16,
        help="sample one kernel step's wall latency out of every N",
    )
    add_jobs_flag(perf_parser)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="run generated random scenarios through the invariant "
        "harness",
    )
    fuzz_parser.add_argument(
        "--seeds", type=int, default=20, metavar="N",
        help="how many consecutive seeds to fuzz (default 20)",
    )
    fuzz_parser.add_argument(
        "--seed-start", type=int, default=0, metavar="S",
        help="first seed of the campaign (default 0)",
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="fuzz exactly this one seed (overrides --seeds)",
    )
    fuzz_parser.add_argument(
        "--profile", default="default",
        help="fuzz profile: 'default' (workload only) or 'faulty' "
        "(adds crash/degrade fault phases)",
    )
    fuzz_parser.add_argument(
        "--scale", type=float, default=0.25,
        help="population/policy/capacity scale factor (default 0.25)",
    )
    fuzz_parser.add_argument(
        "--duration", type=float, default=None,
        help="truncate generated scenarios to this many simulated "
        "seconds",
    )
    fuzz_parser.add_argument(
        "--settle", type=float, default=10.0,
        help="extra simulated seconds before the invariant audit "
        "(default 10)",
    )
    fuzz_parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run each seed on the space-partitioned kernel with N "
        "shards (workload profiles only)",
    )
    fuzz_parser.add_argument(
        "--shrink", action="store_true",
        help="on failure, shrink the seed to a minimal phase list",
    )
    fuzz_parser.add_argument(
        "--shrink-iterations", type=int, default=24, metavar="N",
        help="re-run budget for --shrink (default 24)",
    )
    fuzz_parser.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="on failure, record the failing run's trace into DIR",
    )
    add_jobs_flag(fuzz_parser)

    record_parser = sub.add_parser(
        "record",
        help="run scenarios with the trace recorder and write .trace "
        "files",
    )
    record_parser.add_argument(
        "scenarios", nargs="+", metavar="scenario",
        help="registered scenario name(s); several fan out (see --jobs)",
    )
    record_parser.add_argument(
        "--backend", default="matrix", choices=backend_names()
    )
    record_parser.add_argument("--seed", type=int, default=0)
    record_parser.add_argument(
        "--scale", type=float, default=0.1,
        help="population/policy/capacity scale factor (default 0.1)",
    )
    record_parser.add_argument(
        "--duration", type=float, default=None,
        help="truncate the scenario to this many simulated seconds",
    )
    record_parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="record from the space-partitioned kernel with N shards "
        "(the trace is identical at any N)",
    )
    record_parser.add_argument(
        "--out", default="traces", metavar="PATH",
        help="output directory, or a single .trace file path when one "
        "scenario is named (default: traces/)",
    )
    add_jobs_flag(record_parser)

    replay_parser = sub.add_parser(
        "replay",
        help="re-run recorded traces through the replay backend",
    )
    replay_parser.add_argument(
        "traces", nargs="+", metavar="trace", help=".trace file path(s)"
    )
    replay_parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="assert the trace was recorded on this backend "
        "(exit 2 on mismatch)",
    )

    diff_parser = sub.add_parser(
        "diff", help="regression-compare two trace files"
    )
    diff_parser.add_argument("trace_a", metavar="a")
    diff_parser.add_argument("trace_b", metavar="b")

    args = parser.parse_args(argv)
    if args.command == "list-scenarios":
        _print_scenarios()
        return 0
    if args.command == "list-mobility":
        _print_mobility()
        return 0
    if args.command == "list-backends":
        _print_backends()
        return 0
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "perf":
        return _cmd_perf(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    if args.command == "record":
        return _cmd_record(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "diff":
        return _cmd_diff(args)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
