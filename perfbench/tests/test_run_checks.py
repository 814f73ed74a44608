"""The parent's verdict on a set of runs: failures, notes, the pin."""

import copy

from perfbench import runner


def a_run(**changes):
    run = {
        "fingerprint": {"events": 10, "sha256": "ab"},
        "violations": [],
        "sim_action_mean_ms": 600.0,
        "sim_acked_share": 0.9,
        "actions_sent": 100,
        "simulated": {"peak_queue": 5.0},
        "effective": {"scale": 0.25},
    }
    run.update(changes)
    return run


def pin(monkeypatch, run):
    monkeypatch.setattr(
        runner,
        "EXPECTED",
        {
            "hotspot": {
                "1": {
                    "scale": run["effective"]["scale"],
                    "fingerprint": copy.deepcopy(run["fingerprint"]),
                    "violations": list(run["violations"]),
                }
            }
        },
    )


def test_agreeing_pinned_runs_pass(monkeypatch):
    pin(monkeypatch, a_run())
    failures, notes, pinned = runner.check("hotspot", 1, [a_run(), a_run()])
    assert (failures, notes, pinned) == ([], [], True)
    assert runner.operations([a_run(), a_run()], failures) == (200, 0)


def test_a_crashed_run_fails_every_operation(monkeypatch):
    pin(monkeypatch, a_run())
    runs = [a_run(), None]
    failures, _, _ = runner.check("hotspot", 1, runs)
    assert failures == ["1 run(s) crashed or hung"]
    assert runner.operations(runs, failures) == (200, 200)


def test_disagreement_between_runs_fails(monkeypatch):
    pin(monkeypatch, a_run())
    traced = a_run(fingerprint={"events": 11, "sha256": "cd"})
    failures, _, _ = runner.check("hotspot", 1, [a_run(), traced])
    assert len(failures) == 1 and "disagree on fingerprint" in failures[0]


def test_drift_from_the_pin_is_a_note_not_a_failure(monkeypatch):
    pin(monkeypatch, a_run())
    changed = a_run(fingerprint={"events": 12, "sha256": "ef"})
    failures, notes, pinned = runner.check("hotspot", 1, [changed, changed])
    assert failures == [] and pinned is False
    assert len(notes) == 1 and "expected.json" in notes[0]


def test_other_seeds_and_scales_skip_the_pin(monkeypatch):
    pin(monkeypatch, a_run())
    changed = a_run(fingerprint={"events": 12, "sha256": "ef"})
    assert runner.check("hotspot", 2, [changed, changed]) == ([], [], True)
    quick = a_run(fingerprint={"events": 1, "sha256": "00"}, effective={"scale": 0.025})
    assert runner.check("hotspot", 1, [quick, quick]) == ([], [], True)


def test_invariant_findings_are_notes_and_part_of_the_pin(monkeypatch):
    stranded = a_run(violations=["client population not conserved"])
    pin(monkeypatch, stranded)
    failures, notes, pinned = runner.check("hotspot", 1, [stranded, stranded])
    assert failures == [] and pinned is True
    assert notes == ["invariant violated: client population not conserved"]
    pin(monkeypatch, a_run())
    assert runner.check("hotspot", 1, [stranded, stranded])[2] is False
