#!/usr/bin/env python3
"""Check that local markdown links and the CLI commands docs name exist.

Usage: ``PYTHONPATH=src python scripts/check_doc_links.py README.md docs/*.md``

Validates every ``[text](target)`` whose target is a repo-relative
path (external URLs and pure anchors are skipped).  Targets are
resolved relative to the repository root first, then relative to the
file containing the link, so both styles used in this repo work.
Every ``python -m repro <word>`` must name a subcommand of
``repro.cli.build_parser()``.  Exits non-zero listing every broken
link and unknown subcommand.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from repro.cli import build_parser

LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
COMMAND = re.compile(r"python3? -m repro\s+([A-Za-z][\w-]*)")
ROOT = Path(__file__).resolve().parent.parent


def broken_links(doc: Path) -> list[str]:
    bad: list[str] = []
    for target in LINK.findall(doc.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (ROOT / path).exists() and not (doc.parent / path).exists():
            bad.append(target)
    return bad


def subcommands() -> set[str]:
    """The subcommands ``python -m repro`` accepts."""
    return {
        name
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
        for name in action.choices
    }


def unknown_commands(doc: Path, known: set[str]) -> list[str]:
    """Each ``python -m repro <word>`` of *doc* whose word is not in
    *known*."""
    return [
        word for word in COMMAND.findall(doc.read_text()) if word not in known
    ]


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_doc_links.py <markdown files...>")
        return 2
    failures = 0
    known = subcommands()
    for name in argv:
        doc = ROOT / name
        if not doc.exists():
            print(f"MISSING FILE {name}")
            failures += 1
            continue
        for target in broken_links(doc):
            print(f"BROKEN {name}: ({target})")
            failures += 1
        for word in unknown_commands(doc, known):
            print(f"UNKNOWN COMMAND {name}: python -m repro {word}")
            failures += 1
        print(f"checked {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
