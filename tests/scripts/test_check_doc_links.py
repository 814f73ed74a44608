"""The docs check (``scripts/check_doc_links.py``): links resolve and
every ``python -m repro <word>`` names a real subcommand."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_doc_links", ROOT / "scripts" / "check_doc_links.py"
)
check_doc_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_doc_links)


def test_a_doc_naming_a_missing_subcommand_fails(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "Run `python -m repro run flash-crowd`, then\n"
        "`python -m repro nosuch flash-crowd` and `python -m repro --help`.\n"
    )
    assert check_doc_links.main([str(doc)]) == 1
    out = capsys.readouterr().out
    assert f"UNKNOWN COMMAND {doc}: python -m repro nosuch" in out
    assert "python -m repro run" not in out


def test_a_doc_naming_real_subcommands_passes(tmp_path, capsys):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`python -m repro list-scenarios`, `python3 -m repro sweep` and\n"
        "`python -m repro replay traces/x.trace` ([arch](README.md)).\n"
    )
    assert check_doc_links.main([str(doc)]) == 0
    assert capsys.readouterr().out == f"checked {doc}\n"
