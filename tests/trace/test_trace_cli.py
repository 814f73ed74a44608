"""Exit-code contracts of the fuzz/record/diff subcommands."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One small fig2-hotspot trace shared by the read-side tests."""
    path = tmp_path_factory.mktemp("traces") / "hotspot.trace"
    code = main(
        [
            "record", "fig2-hotspot",
            "--scale", "0.04", "--duration", "15", "--seed", "2",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


def test_record_writes_a_trace_file(recorded, capsys):
    assert recorded.exists()
    assert recorded.read_text().startswith('{"backend": "matrix"')


def test_record_many_lands_in_directory(tmp_path, capsys):
    out = tmp_path / "traces"
    code = main(
        [
            "record", "fig2-hotspot", "flash-crowd",
            "--scale", "0.04", "--duration", "10",
            "--backend", "static", "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "fig2-hotspot.trace").exists()
    assert (out / "flash-crowd.trace").exists()


def test_replay_unreadable_trace_exits_2(recorded, tmp_path, capsys):
    bogus = tmp_path / "bogus.trace"
    bogus.write_text("not json\n")
    assert main(["diff", str(recorded), str(bogus)]) == 2
    assert "error:" in capsys.readouterr().out


def test_diff_identical_exits_0(recorded, tmp_path, capsys):
    other = tmp_path / "again.trace"
    assert main(
        [
            "record", "fig2-hotspot",
            "--scale", "0.04", "--duration", "15", "--seed", "2",
            "--out", str(other),
        ]
    ) == 0
    assert main(["diff", str(recorded), str(other)]) == 0
    assert "no drift" in capsys.readouterr().out


def test_diff_drift_exits_1(recorded, tmp_path, capsys):
    other = tmp_path / "other-seed.trace"
    assert main(
        [
            "record", "fig2-hotspot",
            "--scale", "0.04", "--duration", "15", "--seed", "3",
            "--out", str(other),
        ]
    ) == 0
    assert main(["diff", str(recorded), str(other)]) == 1
    assert "traces differ" in capsys.readouterr().out


def test_diff_missing_file_exits_2(recorded, tmp_path, capsys):
    assert main(["diff", str(recorded), str(tmp_path / "missing")]) == 2


def test_fuzz_fixed_seed_exits_0(capsys):
    code = main(
        [
            "fuzz", "--seed", "2",
            "--scale", "0.05", "--duration", "15", "--settle", "6",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ok fuzz/default/seed=2" in out


def test_fuzz_unknown_profile_exits_2(capsys):
    code = main(["fuzz", "--seed", "0", "--profile", "nope"])
    assert code == 2
    assert "unknown fuzz profile" in capsys.readouterr().out
