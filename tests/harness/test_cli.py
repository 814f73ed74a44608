"""The ``python -m repro`` front end: every subcommand parses, the
commands that run scenarios do so through the one experiment path, and
option combinations that cannot run are refused once, with exit 2."""

import argparse
import re

import pytest

import repro.harness.fuzz
from repro.cli import _report_fuzz_failure, build_parser, main

FAST = ["--scale", "0.05", "--duration", "20"]
# The literal numbers below are the parent's (before the five ``_run_*``
# wrappers and the CLI's copies of the scaled setup became one path).


def subcommands() -> list[str]:
    (action,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sorted(action.choices)


def test_every_subcommand_is_registered_with_a_handler():
    assert subcommands() == [
        "compare", "diff", "fuzz", "list-backends", "list-mobility",
        "list-scenarios", "record", "run", "sweep",
    ]


@pytest.mark.parametrize("argv", [[], *([name] for name in subcommands())])
def test_help_exits_cleanly(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    assert "usage: python -m repro" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["list-scenarios", "list-mobility", "list-backends"])
def test_list_commands_exit_0(name, capsys):
    assert main([name]) == 0
    assert "registered" in capsys.readouterr().out


def test_list_backends_lists_the_five_architectures_only(capsys):
    assert main(["list-backends"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("5 registered architecture backends")
    entries = [line.split()[0] for line in out.splitlines() if " — " in line]
    assert entries == ["dht", "matrix", "mirrored", "p2p", "static"]


def test_run_prints_the_summary(capsys):
    assert main(["run", "flash-crowd", *FAST, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "backend  : matrix" in out
    assert "servers  : peak 3, final 3, splits 2, reclaims 0" in out
    assert "events   : 4499" in out


def test_run_with_a_repeated_name_prints_the_single_run_summary(capsys):
    argv = ["run", "uniform-roam", "uniform-roam", *FAST, "--seed", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "scenario : uniform-roam" in out
    assert "scenarios on" not in out


def test_run_with_several_names_prints_one_row_each(capsys):
    argv = ["run", "flash-crowd", "uniform-roam", "--backend", "static", *FAST]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 scenarios on static (scale=0.05, seed=0, jobs=1):" in out
    rows = [line.split()[:5] for line in out.splitlines()[-2:]]
    assert rows == [
        ["flash-crowd", "4577", "104", "1.989", "2"],
        ["uniform-roam", "2206", "0", "1.009", "2"],
    ]


def test_compare_grades_the_named_backends(capsys):
    argv = ["compare", "flash-crowd", "--backends", "matrix,static", *FAST]
    assert main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-2:] == [
        ["matrix", "88", "0", "2.017", "3", "ok"],
        ["static", "104", "0", "1.989", "2", "ok"],
    ]


def test_sweep_tabulates_the_fault_free_catalog(capsys):
    assert main(["sweep", *FAST, "--json", ""]) == 0
    out = capsys.readouterr().out
    assert "scenario sweep (scale=0.05, seed=0, jobs=1):" in out
    assert "fig2-hotspot" in out and "crash-during-split" not in out
    assert "wrote" not in out


def test_sweep_json_is_byte_identical_at_any_jobs(tmp_path, capsys):
    """The sweep's BENCH file records no wall clock and no job count, so
    a serial and a pooled sweep write the same bytes."""
    written = []
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.json"
        argv = ["sweep", "--scale", "0.02", "--duration", "15",
                "--jobs", jobs, "--json", str(path)]
        assert main(argv) == 0
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert b'"scale": 0.02' in written[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["run", "flash-crowd", "uniform-roam", "--backend", "static", "--shards", "2"],
            "--shards only applies to the matrix backend",
        ),
        (
            ["run", "flash-crowd", "--backend", "static", "--shards", "2"],
            "--shards only applies to the matrix backend",
        ),
        (
            ["record", "flash-crowd", "--backend", "static", "--shards", "2"],
            "--shards only applies to the matrix backend",
        ),
        (["run", "no-such-scenario"], "unknown scenario 'no-such-scenario'"),
        (["record", "flash-crowd", "no-such-scenario"], "unknown scenario"),
        (["run", "flash-crowd", "no-such-scenario"], "unknown scenario"),
        (["compare", "no-such-scenario"], "unknown scenario"),
        (
            ["compare", "flash-crowd", "--backends", "matrix,pigeon"],
            "unknown backend(s) ['pigeon']",
        ),
        (
            ["compare", "flash-crowd", "--backends", "matrix,replay"],
            "unknown backend(s) ['replay']",
        ),
        (
            ["fuzz", "--profile", "faulty", "--shards", "2"],
            "profile 'faulty' injects crash faults",
        ),
    ],
)
def test_refusals_exit_2_with_one_error_line(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a refused record must not write traces/
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and message in out
    assert len(out.splitlines()) == 1
    assert not list(tmp_path.iterdir())


def assert_argparse_refuses(argv, message, capsys):
    """argparse's own refusal: usage and one ``error: argument ...``
    line on stderr, exit 2, before anything ran."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {message}" in captured.err.splitlines()[-1]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["run", "record"])
def test_replay_is_not_a_backend_choice(command, capsys):
    assert_argparse_refuses(
        [command, "flash-crowd", "--backend", "replay"],
        "--backend: invalid choice: 'replay'",
        capsys,
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "flash-crowd", "--scale", "inf"],
         "--scale: must be finite, got inf"),
        (["run", "flash-crowd", "--scale", "0"],
         "--scale: must be > 0, got 0"),
        (["compare", "flash-crowd", "--scale", "-1"],
         "--scale: must be > 0, got -1"),
        (["run", "flash-crowd", "--scale", "nan"],
         "--scale: must be > 0, got nan"),
        (["run", "flash-crowd", "--duration", "-5"],
         "--duration: must be > 0, got -5"),
        (["run", "flash-crowd", "--shards", "0"],
         "--shards: must be >= 1, got 0"),
        (["run", "flash-crowd", "uniform-roam", "--jobs", "-1"],
         "--jobs: must be >= 0, got -1"),
        (["fuzz", "--seeds", "0"], "--seeds: must be >= 1, got 0"),
        (["fuzz", "--shrink-iterations", "0"],
         "--shrink-iterations: must be >= 1, got 0"),
        (["fuzz", "--settle", "-1"], "--settle: must be >= 0, got -1"),
        (["run", "flash-crowd", "--scale", "big"],
         "--scale: invalid float value: 'big'"),
        (["record", "flash-crowd", "--duration", "inf"],
         "--duration: must be finite, got inf"),
        (["fuzz", "--settle", "inf"], "--settle: must be finite, got inf"),
    ],
)
def test_out_of_range_numbers_are_argparse_refusals(argv, message, capsys):
    assert_argparse_refuses(argv, message, capsys)


def test_fuzz_reproducer_names_every_option_that_shapes_the_run(capsys):
    args = build_parser().parse_args(
        ["fuzz", "--scale", "0.05", "--duration", "15", "--settle", "6",
         "--shards", "2"]
    )
    _report_fuzz_failure(args, 3, run_options={})
    assert (
        "failing seed: 3 (reproduce with: python -m repro fuzz --seed 3 "
        "--profile default --scale 0.05 --settle 6 --duration 15 --shards 2)"
    ) in capsys.readouterr().out


def test_failure_log_and_cli_print_the_same_reproduce_line(monkeypatch, capsys):
    """The worker traceback's ``reproduce:`` line (from the
    :class:`FuzzInvariantError`) and the CLI's post-mortem line are one
    string, naming every option that shapes the run."""
    monkeypatch.setattr(
        repro.harness.fuzz, "check_invariants", lambda *a, **k: ["forced"]
    )
    argv = ["fuzz", "--seed", "3", "--scale", "0.05", "--duration", "15",
            "--settle", "6", "--shards", "2"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    from_error = re.findall(r"^reproduce: (.*)$", out, re.M)
    from_cli = re.findall(r"reproduce with: (.*)\)$", out, re.M)
    assert from_error == from_cli == [
        "python -m repro fuzz --seed 3 --profile default --scale 0.05 "
        "--settle 6 --duration 15 --shards 2"
    ]
