#!/usr/bin/env python
"""Docstring-coverage gate for the serving-plane modules.

Every *public* API element — the module itself, module-level classes
and functions not prefixed with an underscore, and the public methods
(including properties) of public classes — must carry a docstring.
Dunder and underscore-prefixed names are exempt (class docstrings
document constructor args, matching the codebase style).

Usage::

    python scripts/check_docstrings.py [FILE ...]

With no arguments the gated modules are checked (the serving plane
from ISSUE 5 — ``core/serving.py``, ``core/sharding.py``,
``core/streaming.py`` — the ISSUE 6 durability plane,
``core/durability.py`` and ``core/faults.py``, and the ISSUE 7
analyzer package ``src/repro/analysis/``).  Prints per-file coverage
and exits non-zero when anything is missing, so CI fails loudly.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

GATED_MODULES = (
    "src/repro/analysis/__init__.py",
    "src/repro/analysis/__main__.py",
    "src/repro/analysis/checks.py",
    "src/repro/analysis/engine.py",
    "src/repro/analysis/reporters.py",
    "src/repro/analysis/rules.py",
    "src/repro/analysis/visitor.py",
    "src/repro/core/config.py",
    "src/repro/core/durability.py",
    "src/repro/core/faults.py",
    "src/repro/core/multiproc.py",
    "src/repro/core/prom.py",
    "src/repro/core/pruning.py",
    "src/repro/core/pvalue.py",
    "src/repro/core/segments.py",
    "src/repro/core/serving.py",
    "src/repro/core/shm.py",
    "src/repro/core/sharding.py",
    "src/repro/core/streaming.py",
    "src/repro/core/triggers.py",
)


def is_public(name: str) -> bool:
    """Whether ``name`` is part of the public API surface."""
    return not name.startswith("_")


def iter_api(tree: ast.Module):
    """Yield ``(qualname, node)`` for every element that needs a docstring."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if is_public(node.name):
                yield node.name, node
        elif isinstance(node, ast.ClassDef):
            if not is_public(node.name):
                continue
            yield node.name, node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if is_public(item.name):
                        yield f"{node.name}.{item.name}", item


def check_file(path: Path) -> tuple[int, int, list[str]]:
    """Return ``(documented, total, missing)`` for one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = []
    total = 1  # the module docstring itself
    documented = 1 if ast.get_docstring(tree) else 0
    if not documented:
        missing.append(f"{path}:1 module docstring")
    for qualname, node in iter_api(tree):
        total += 1
        if ast.get_docstring(node):
            documented += 1
        else:
            missing.append(f"{path}:{node.lineno} {qualname}")
    return documented, total, missing


def main(argv: list[str]) -> int:
    targets = [Path(arg) for arg in argv] or [
        REPO_ROOT / module for module in GATED_MODULES
    ]
    all_missing = []
    for path in targets:
        if not path.exists():
            print(f"FAIL: {path} does not exist")
            return 1
        documented, total, missing = check_file(path)
        status = "ok  " if not missing else "FAIL"
        print(
            f"{status} {path}: {documented}/{total} public elements "
            f"documented ({documented / total:.0%})"
        )
        all_missing.extend(missing)
    if all_missing:
        print("\nMissing docstrings:")
        for entry in all_missing:
            print(f"  {entry}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
