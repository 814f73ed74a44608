#!/usr/bin/env python3
"""Call census: the ``src/repro`` functions that only tests run, or nothing.

Usage::

    python scripts/call_census.py

Runs two passes, each in a child process under a call hook
(:class:`CallRecorder`), at the same time:

* the shipped surface — CI's CLI smoke steps (:func:`cli_steps`), every
  ``examples/*.py``, every ``benchmarks/bench_*.py`` and the perfbench
  workloads and layer probes;
* tier-1 (``tests/``), without ``tests/harness/test_parallel.py``, whose
  spawn pool hangs under the hook.

Then it prints every function defined under ``src/repro`` that the
surface never called, keyed by file, first line and qualified name, in
two lists: *test-only* (tier-1 called it) and *never*.  Bodies that are
only a docstring, ``...`` or ``pass`` (ABC and ``Protocol`` stubs) are
not listed.  A full census takes about ten minutes on two cores.

Everything runs serially in-process: a ``--jobs`` worker would not
inherit the hook, so the pool itself is never on the surface.  Files the
surface writes (bench outputs, traces, the sweep JSON) go to a temporary
directory, so the tree is left as it was.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def cli_steps() -> list[str]:
    """CI's ``smoke-bench`` CLI steps, in order: what follows each
    ``python -m repro`` in that job, up to a ``|`` or ``>``, without
    ``--jobs N`` (the census runs serially), deduplicated."""
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index("  smoke-bench:") + 1
    steps = []
    for line in lines[start:]:
        if line[:3].strip():  # the next job
            break
        match = re.search(r"python -m repro ([^|>]+)", line)
        if match:
            steps.append(re.sub(r" --jobs \d+", "", match.group(1)).strip())
    return list(dict.fromkeys(steps))


#: ``(file, first line, qualified name)`` of one function.
Key = tuple[str, int, str]


class CallRecorder:
    """Records the code object of every Python call made while active.

    Code under census may install its own profile function and later
    clear it with ``sys.setprofile(None)``; a plain hook would silently
    stop there.  While active, ``sys.setprofile`` / ``sys.getprofile``
    are replaced so that whatever the code installs is chained behind the
    recorder's hook instead of replacing it.  Recorders nest.
    """

    def __init__(self) -> None:
        self.codes: dict[int, object] = {}
        self._chained = None
        self._saved = None

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            self.codes[id(code)] = code
        chained = self._chained
        if chained is not None:
            chained(frame, event, arg)

    def _setprofile(self, function) -> None:
        self._chained = function

    def _getprofile(self):
        return self._chained

    def __enter__(self) -> "CallRecorder":
        self._saved = (sys.setprofile, sys.getprofile)
        self._chained = sys.getprofile()
        sys.setprofile(self._hook)
        sys.setprofile, sys.getprofile = self._setprofile, self._getprofile
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile, sys.getprofile = self._saved
        sys.setprofile(self._chained)

    def keys(self, package: Path) -> set[Key]:
        """The recorded functions defined under *package*."""
        prefix = os.path.realpath(package) + os.sep
        keys = set()
        for code in self.codes.values():
            path = os.path.realpath(code.co_filename)
            if path.startswith(prefix):
                keys.add(_key(code, path))
        return keys


def _key(code, path: str) -> Key:
    qualname = getattr(code, "co_qualname", code.co_name)  # 3.11+
    return (path, code.co_firstlineno, qualname)


def _is_stub(body: list[ast.stmt]) -> bool:
    """Only a docstring, ``...`` or ``pass``."""
    return all(
        isinstance(statement, ast.Pass)
        or (
            isinstance(statement, ast.Expr)
            and isinstance(statement.value, ast.Constant)
            and (
                statement.value.value is Ellipsis
                or isinstance(statement.value.value, str)
            )
        )
        for statement in body
    )


def _functions_in(tree: ast.AST) -> dict[tuple[int, str], ast.AST]:
    """``(first line, name)`` -> definition; a decorated function's first
    line is its first decorator's, as in its code object."""
    functions = (
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return {
        (min(d.lineno for d in [node, *node.decorator_list]), node.name): node
        for node in functions
    }


def defined_functions(package: Path) -> dict[Key, int]:
    """Every function defined under *package* -> its length in lines.

    Found by compiling each file and walking ``co_consts``; class bodies,
    lambdas, comprehensions and stubs are left out.
    """
    functions = {}
    for file in sorted(Path(package).rglob("*.py")):
        path = os.path.realpath(file)
        source = file.read_text()
        definitions = _functions_in(ast.parse(source))
        pending = [compile(source, path, "exec")]
        while pending:
            code = pending.pop()
            pending.extend(
                const for const in code.co_consts if inspect.iscode(const)
            )
            if not code.co_flags & inspect.CO_OPTIMIZED:
                continue  # a module or class body
            if code.co_name.startswith("<"):
                continue  # a lambda or comprehension
            node = definitions[(code.co_firstlineno, code.co_name)]
            if _is_stub(node.body):
                continue
            functions[_key(code, path)] = node.end_lineno - node.lineno + 1
    return functions


def census(
    defined: dict[Key, int], surface: set[Key], tests: set[Key]
) -> tuple[list[Key], list[Key]]:
    """``(test-only, never)``: defined functions the surface did not
    reach, split by whether the tests did."""
    unreached = sorted(set(defined) - surface)
    test_only = [key for key in unreached if key in tests]
    never = [key for key in unreached if key not in tests]
    return test_only, never


@contextlib.contextmanager
def _working_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_surface(scratch: Path) -> None:
    """The shipped surface, serially, in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "benchmarks")]
    os.environ.pop("REPRO_BENCH_JOBS", None)
    import common  # benchmarks/common.py: bench outputs go to scratch

    common.OUTPUT_DIR = scratch
    from repro.cli import main as cli

    with _working_directory(scratch), contextlib.redirect_stdout(io.StringIO()):
        for step in cli_steps():
            cli(step.split())
        for example in sorted((ROOT / "examples").glob("*.py")):
            runpy.run_path(str(example), run_name="__main__")
    _pytest(
        [str(path) for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))]
    )
    from perfbench import child, probes, runner
    from perfbench.workloads import WORKLOADS

    for name in WORKLOADS:
        child.main(
            {
                "workload": name,
                "seed": 1,
                "scale_factor": runner.QUICK_FACTOR,
                "trace": True,
                "setup_only": False,
            }
        )
    probes.main(1)


def _pytest(arguments: list[str]) -> None:
    """``pytest.main``; failing tests still count as run, a collection
    error or interruption does not."""
    import pytest

    if pytest.main(["-q", "-p", "no:cacheprovider", *arguments]) not in (0, 1):
        raise SystemExit(f"pytest did not run: {arguments}")


def run_tests() -> None:
    """Tier-1, in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    _pytest(
        [
            str(ROOT / "tests"),
            "--ignore", str(ROOT / "tests" / "harness" / "test_parallel.py"),
        ]
    )


def _record(phase: str, out: Path) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        with CallRecorder() as recorder:
            if phase == "surface":
                run_surface(Path(scratch))
            else:
                run_tests()
    out.write_text(json.dumps(sorted(recorder.keys(PACKAGE))))


def _report(title: str, keys: list[Key], defined: dict[Key, int]) -> None:
    lines = sum(defined[key] for key in keys)
    print(f"{title} ({len(keys)} functions, {lines} lines):")
    for path, first, qualname in keys:
        print(f"  {os.path.relpath(path, ROOT)}:{first}  {qualname}")
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # One pass of the census; the default run starts both as children.
    parser.add_argument("--phase", choices=("surface", "tests"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.phase:
        _record(args.phase, args.out)
        return 0

    environment = dict(os.environ, PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as scratch:
        outs = {
            phase: Path(scratch) / f"{phase}.json"
            for phase in ("surface", "tests")
        }
        children = [
            subprocess.Popen(
                [sys.executable, __file__, "--phase", phase, "--out", str(out)],
                env=environment,
                stdout=subprocess.DEVNULL,
            )
            for phase, out in outs.items()
        ]
        if any([child.wait() for child in children]):
            print("a census pass failed", file=sys.stderr)
            return 1
        surface, tests = (
            {tuple(key) for key in json.loads(out.read_text())}
            for out in outs.values()
        )
    defined = defined_functions(PACKAGE)
    test_only, never = census(defined, surface, tests)
    print(f"{len(defined)} functions defined under src/repro\n")
    _report("test-only", test_only, defined)
    _report("never", never, defined)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
