"""State census: every attribute ``src/repro`` stores, shipped code reads.

A ``self.<name>`` store in ``src/repro`` counts as read when some
shipped module loads ``.name`` or holds ``"name"`` as a string constant
(``getattr``, a field picked by name).  Shipped means ``src/``,
``benchmarks/``, ``examples/`` and ``perfbench/``; a value only a test
reads is state every run carries for nobody.  ``__slots__`` strings
declare a name, they do not read it.

The match is by name, so a store is missed when another class's
attribute of the same name is read.  It errs towards keeping.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ("src", "benchmarks", "examples", "perfbench")

#: The shard lanes' modules; their state goes with them.
LANE_MODULES = frozenset({
    "sim/sharded.py", "net/sharded.py", "core/lane_deployment.py",
    "core/runtime/fabric.py", "harness/shards.py", "geometry/sharding.py",
})

#: Stored, read by no shipped code, and kept on purpose.
KEPT = {
    # Fault detection: nonzero only when something went wrong.
    "Node.unhandled_count": "a kind the receiver does not speak",
    "ServerStats.stale_forwards": "a forward that missed its range",
    "ServerStats.failed_reclaims": "a reclaim that did not finish",
    "ServerPool.acquire_failures": "a split the pool could not host",
    # Checked against the analytic p2p cost model.
    "PlayerUplink.upload_bytes": "p2p upload volume",
    # The handle that stops the sampler.
    "Sampler.task": "the sampler's periodic task",
}


class _Stores(ast.NodeVisitor):
    """``Class.attr`` for each ``self.attr`` store in one module."""

    def __init__(self) -> None:
        self.classes: list[str] = []
        self.stores: set[tuple[str, str]] = set()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.classes
        ):
            self.stores.add((self.classes[-1], node.attr))
        self.generic_visit(node)


def _census() -> dict[str, str]:
    """Stored-but-never-read ``Class.attr`` -> the module storing it."""
    stored: dict[str, tuple[str, str]] = {}
    read: set[str] = set()
    for top in SHIPPED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            declared = {
                id(constant)
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(
                    isinstance(target, ast.Name) and target.id == "__slots__"
                    for target in node.targets
                )
                for constant in ast.walk(node.value)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in declared
                ):
                    read.add(node.value)
            if top != "src":
                continue
            module = path.relative_to(ROOT / "src" / "repro").as_posix()
            if module in LANE_MODULES:
                continue
            visitor = _Stores()
            visitor.visit(tree)
            for cls, attr in visitor.stores:
                stored[f"{cls}.{attr}"] = (module, attr)
    return {
        name: module
        for name, (module, attr) in stored.items()
        if attr not in read
    }


def test_every_stored_attribute_is_read_or_kept_on_purpose():
    unread = _census()
    unexpected = sorted(
        f"{module}: {name}" for name, module in unread.items()
        if name not in KEPT
    )
    assert not unexpected, (
        "stored but read by no shipped code (delete it, or keep it on "
        "purpose in KEPT and docs/ARCHITECTURE.md 'What runs'):\n"
        + "\n".join(unexpected)
    )
    assert set(unread) == set(KEPT), sorted(set(KEPT) - set(unread))
