"""Command-line entry point: ``python -m repro``.

Each subcommand is a handler registered with :func:`command`, which
declares, beside the handler, its one-line help and its arguments: the
:data:`_SHARED_OPTIONS` it takes (with its own defaults) and any option
of its own.  :func:`build_parser` is a loop over that registry, and
``python -m repro --help`` lists the subcommands.

Every command that runs a scenario goes through ``run_scenario``;
:func:`run_arguments` is the one place that turns parsed options into
its arguments, and where a combination that cannot run is refused.
A handler imports what only it uses, so ``run`` and the ``list-*``
commands load no trace, fuzz, sweep, chaos or pool code.
"""

from __future__ import annotations

import argparse
import inspect
import math
import time
from pathlib import Path

from repro.analysis.stats import p99_or_zero, percentile
from repro.harness.runner import backend_infos, backend_names, run_scenario
from repro.workload.mobility import list_mobility_models
from repro.workload.scenarios import build_scenario, scenario_names


class UsageError(Exception):
    """Arguments that cannot run: ``main`` prints ``error: …``, exits 2."""


def _usage(lookup, name: str):
    """``lookup(name)``; its "unknown name" ValueError is a usage error."""
    try:
        return lookup(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _number(cast, minimum, exclusive: bool = False):
    """An argparse ``type=``: *cast* the text and refuse a value below
    *minimum* (or, when *exclusive*, at it) or a non-finite one, so an
    out-of-range number is argparse's own ``error: argument --x: ...``
    before anything runs.
    """

    def parse(text: str):
        value = cast(text)
        if not (value > minimum if exclusive else value >= minimum):
            bound = ">" if exclusive else ">="
            raise argparse.ArgumentTypeError(
                f"must be {bound} {minimum}, got {text}"
            )
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value

    # argparse names the type in "invalid float value: 'abc'".
    parse.__name__ = cast.__name__
    return parse


def option(*flags: str, **spec) -> tuple:
    """One argument: what ``add_argument(*flags, **spec)`` takes."""
    return flags, spec


#: The arguments several subcommands share, each declared once; a
#: subcommand names the ones it takes and gives its own defaults.
_SHARED_OPTIONS = {
    "scenario": option("scenario", help="registered scenario name"),
    "scenarios": option(
        "scenarios", nargs="+", metavar="scenario",
        help="registered scenario name(s); several fan out (see --jobs)",
    ),
    "backend": option("--backend", default="matrix", choices=backend_names()),
    "scale": option(
        "--scale", type=_number(float, 0, exclusive=True),
        help="population/policy/capacity scale factor "
        "(default %(default)s)",
    ),
    "seed": option(
        "--seed", type=int, help="simulation seed (default %(default)s)"
    ),
    "duration": option(
        "--duration", type=_number(float, 0, exclusive=True), default=None,
        help="truncate each scenario to this many simulated seconds",
    ),
    "shards": option(
        "--shards", type=_number(int, 1), default=None, metavar="N",
        help="run the matrix backend on the space-partitioned kernel: N "
        "shard lanes executed one after the other, a determinism check, "
        "not a speed-up (same seed gives identical results and traces at "
        "any N; incompatible with crash faults — LinkDegrade chaos is "
        "fine)",
    ),
    "jobs": option(
        "--jobs", type=_number(int, 0), default=None, metavar="N",
        help="fan independent cells out over N worker processes "
        "(default: serial; deterministic outputs are identical "
        "either way)",
    ),
}

#: subcommand -> (handler, one-line help, arguments, defaults), in
#: ``--help`` order.
_COMMANDS: dict[str, tuple] = {}


def command(name: str, summary: str, *arguments, **defaults):
    """Register the decorated handler as subcommand *name* (decorator).

    Each of *arguments*, in ``--help`` order, names a
    :data:`_SHARED_OPTIONS` entry or is an :func:`option` of this
    subcommand's own; *defaults* set this subcommand's defaults for
    them.  ``main`` calls the handler with the parsed namespace.
    """

    def register(handler):
        _COMMANDS[name] = (handler, summary, arguments, defaults)
        return handler

    return register


def run_arguments(
    name: str,
    backend: str = "matrix",
    scale: float = 1.0,
    seed: int = 0,
    duration: float | None = None,
    shards: int | None = None,
    no_faults: bool = False,
) -> dict:
    """``run_scenario`` keyword arguments for one scaled CLI run.

    ``run`` (one name or several) and ``record`` both come through
    here: population, policy thresholds and every capacity
    scale together (the recipe of :mod:`repro.harness.compare`), and a
    combination that cannot run raises :class:`UsageError`.
    """
    from repro.harness.compare import scaled_run_arguments

    if shards is not None and backend != "matrix":
        raise UsageError("--shards only applies to the matrix backend")
    return dict(
        scaled_run_arguments(
            _usage(build_scenario, name), backend, scale, seed,
            preview=duration, shards=shards,
        ),
        chaos=not no_faults,
    )


def _run_options(args) -> dict:
    """The parsed options that are :func:`run_arguments` keywords."""
    keywords = inspect.signature(run_arguments).parameters
    return {key: value for key, value in vars(args).items() if key in keywords}


def _checked_names(args, options: dict) -> list[str]:
    """The scenario names of ``run`` / ``record`` (deduplicated, in
    order), refused before any fan-out if one of them cannot run."""
    names = list(dict.fromkeys(args.scenarios))
    for name in names:
        run_arguments(name, **options)
    return names


@command("list-scenarios", "show the scenario catalog")
def _print_scenarios(args) -> None:
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


@command("list-mobility", "show registered mobility models")
def _print_mobility(args) -> None:
    names = list_mobility_models()
    print(f"{len(names)} registered mobility models:")
    for name in names:
        print(f"  {name}")


@command("list-backends", "show registered architecture backends")
def _print_backends(args) -> None:
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
    p99 = p99_or_zero(latencies)
    if outcome.backend == "matrix":
        print(f"servers  : peak {result.servers_used}, "
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
    if result.consistency:
        rendered = ", ".join(
            f"{key}={value:g}" for key, value in result.consistency.items()
        )
        print(f"consistency: {rendered}")
    if outcome.experiment.chaos is not None:
        from repro.chaos import format_chaos_report

        print(format_chaos_report(outcome.experiment.chaos.report()))


def run_summary_cell(name: str, **run_options) -> dict:
    """One ``run`` fan-out cell (module-level: picklable for workers);
    *run_options* are :func:`run_arguments`'."""
    result = run_scenario(**run_arguments(name, **run_options)).result
    return {
        "scenario": name,
        "events": result.events_processed,
        "peak_queue": result.max_queue(),
        "p99_latency": p99_or_zero(result.action_latencies),
        "servers": result.servers_used,
    }


@command(
    "run", "run one or more registered scenarios",
    "scenarios",
    option(
        "--no-faults", action="store_true",
        help="run a chaos scenario with its fault phases disarmed",
    ),
    "backend", "scale", "seed", "duration", "shards", "jobs",
    scale=1.0, seed=0,
)
def _cmd_run(args) -> int:
    options = _run_options(args)
    names = _checked_names(args, options)
    if len(names) == 1:
        started = time.perf_counter()
        outcome = run_scenario(**run_arguments(names[0], **options))
        _summarize_run(outcome, time.perf_counter() - started)
        return 0
    # Several scenarios named: fan out and print a compact table.
    from repro.harness.parallel import GridTask, run_grid

    tasks = [
        GridTask(
            key=(name,),
            fn=run_summary_cell,
            kwargs=dict(name=name, **options),
        )
        for name in names
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


@command(
    "compare",
    "run one scenario on several backends and tabulate verdicts",
    "scenario",
    option(
        "--backends", default=None,
        help="comma-separated backend names (default: all registered "
        "architectures)",
    ),
    "scale", "seed", "duration", "jobs",
    scale=0.1, seed=0,
)
def _cmd_compare(args) -> int:
    from repro.harness.compare import (
        compare_backends,
        format_backends_table,
        scaled_setup,
    )

    scenario = _usage(build_scenario, args.scenario)
    backends = tuple(args.backends.split(",")) if args.backends else None
    unknown = sorted(set(backends or ()) - set(backend_names()))
    if unknown:
        raise UsageError(
            f"unknown backend(s) {unknown}; known: {backend_names()}"
        )
    # compare_backends scales the profile and every capacity itself;
    # only the Matrix policy is scaled here.
    _, policy = scaled_setup(scenario.game, args.scale)
    outcomes = compare_backends(
        scenario,
        backends=backends,
        policy=policy,
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


@command(
    "sweep", "run every registered scenario and tabulate",
    option(
        "--json", default="benchmarks/output/BENCH_scenario_sweep.json",
        metavar="PATH",
        help="where to write the BENCH JSON payload (deterministic "
        "metrics); empty string disables",
    ),
    "scale", "seed", "duration", "jobs",
    scale=0.1, seed=0,
)
def _cmd_sweep(args) -> int:
    from repro.harness.sweep import (
        format_sweep_table,
        run_sweep_grid,
        sweep_payload,
        write_bench_json,
    )

    rows = run_sweep_grid(
        args.scale,
        seed=args.seed,
        preview=args.duration,
        on_result=lambda cell: print(
            f"ran {cell.key[0]} ({cell.wall_seconds:.1f}s)"
        ),
        jobs=args.jobs,
    )
    print()
    print(f"scenario sweep (scale={args.scale}, seed={args.seed}, "
          f"jobs={args.jobs or 1}):")
    print(format_sweep_table(rows))
    if args.json:
        path = write_bench_json(
            args.json, "scenario_sweep", args.scale, args.seed,
            sweep_payload(rows),
        )
        print(f"\nwrote {path}")
    return 0


@command(
    "fuzz",
    "run generated random scenarios through the invariant harness",
    option(
        "--seeds", type=_number(int, 1), default=20, metavar="N",
        help="how many consecutive seeds to fuzz (default 20)",
    ),
    option(
        "--seed-start", type=int, default=0, metavar="S",
        help="first seed of the campaign (default 0)",
    ),
    option(
        "--seed", type=int, default=None, metavar="S",
        help="fuzz exactly this one seed (overrides --seeds)",
    ),
    option(
        "--profile", default="default",
        help="fuzz profile: 'default' (workload only) or 'faulty' "
        "(adds crash/degrade fault phases; not with --shards)",
    ),
    option(
        "--settle", type=_number(float, 0), default=10.0,
        help="extra simulated seconds before the invariant audit "
        "(default 10)",
    ),
    option(
        "--shrink", action="store_true",
        help="on failure, shrink the seed to a minimal phase list",
    ),
    option(
        "--shrink-iterations", type=_number(int, 1), default=24,
        metavar="N", help="re-run budget for --shrink (default 24)",
    ),
    option(
        "--artifacts", default=None, metavar="DIR",
        help="on failure, record the failing run's trace into DIR",
    ),
    "scale", "duration", "shards", "jobs",
    scale=0.25,
)
def _cmd_fuzz(args) -> int:
    from repro.fuzz.generator import fuzz_profile
    from repro.harness.fuzz import fuzz_grid_tasks
    from repro.harness.parallel import GridTaskError, run_grid

    # Fail fast on a typo'd profile name.
    if _usage(fuzz_profile, args.profile).faults and args.shards is not None:
        raise UsageError(
            f"--shards runs workload profiles only: profile "
            f"{args.profile!r} injects crash faults, which sharded runs "
            "refuse"
        )
    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.seed_start, args.seed_start + args.seeds))
    run_options = dict(
        scale=args.scale, preview=args.duration, shards=args.shards
    )
    tasks = fuzz_grid_tasks(
        seeds, args.profile, settle=args.settle, **run_options
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
        seed_of = {task.key: seed for task, seed in zip(tasks, seeds)}
        _report_fuzz_failure(args, seed_of[exc.key], run_options)
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


def _report_fuzz_failure(args, seed: int, run_options: dict) -> None:
    """Post-mortem for one failing fuzz seed: trace, then shrink."""
    from repro.harness.fuzz import (
        fuzz_command,
        record_fuzz_failure,
        shrink_fuzz_failure,
    )

    reproduce = fuzz_command(
        seed, args.profile, scale=args.scale, settle=args.settle,
        preview=args.duration, shards=args.shards,
    )
    print(f"\nfailing seed: {seed} (reproduce with: {reproduce})")
    if args.artifacts:
        try:
            path = record_fuzz_failure(
                seed, args.profile, args.artifacts, **run_options
            )
            print(f"failing trace recorded: {path}")
        except Exception as exc:  # the run may crash before finishing
            print(f"could not record failing trace: {exc}")
    if args.shrink:
        print("shrinking (bounded re-runs)...")
        shrunk = shrink_fuzz_failure(
            seed,
            args.profile,
            settle=args.settle,
            max_iterations=args.shrink_iterations,
            **run_options,
        )
        print(
            f"minimal reproducer after {shrunk.iterations} runs "
            f"({shrunk.removed} phases removed):"
        )
        for phase in shrunk.scenario.phases:
            print(f"  {phase!r}")


def record_trace_cell(name: str, out: str, **run_options) -> dict:
    """One ``record`` fan-out cell (module-level: picklable);
    *run_options* are :func:`run_arguments`'."""
    from repro.trace.recorder import record_scenario

    run = record_scenario(**run_arguments(name, **run_options))
    path = run.write(out)
    return {
        "scenario": name,
        "path": str(path),
        "events": run.header.events,
        "digest": run.header.digest,
    }


@command(
    "record",
    "run scenarios with the trace recorder and write .trace files",
    "scenarios",
    option(
        "--out", default="traces", metavar="PATH",
        help="output directory, or a single .trace file path when one "
        "scenario is named (default: traces/)",
    ),
    "backend", "scale", "seed", "duration", "shards", "jobs",
    scale=0.1, seed=0,
)
def _cmd_record(args) -> int:
    from repro.harness.parallel import GridTask, GridTaskError, run_grid

    options = _run_options(args)
    names = _checked_names(args, options)
    target = Path(args.out)
    # --out names the file itself only for a single trace with a suffix.
    single_file = len(names) == 1 and target.suffix
    tasks = [
        GridTask(
            key=(name,),
            fn=record_trace_cell,
            kwargs=dict(
                name=name,
                out=str(target if single_file else target / f"{name}.trace"),
                **options,
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


@command(
    "diff", "regression-compare two trace files",
    option("trace_a", metavar="a"),
    option("trace_b", metavar="b"),
)
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


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser, one subparser per registered
    :func:`command`; its ``handler`` default is what ``main`` calls."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Matrix reproduction: declarative scenario runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, arguments, defaults) in _COMMANDS.items():
        sub_parser = sub.add_parser(name, help=summary)
        for argument in arguments:
            if isinstance(argument, str):
                argument = _SHARED_OPTIONS[argument]
            flags, spec = argument
            sub_parser.add_argument(*flags, **spec)
        sub_parser.set_defaults(handler=handler, **defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args) or 0
    except UsageError as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
