#!/usr/bin/env python3
"""Count the values a caller can set in the Python files under ``src/``.

Usage, from the root of a checkout::

    python3 scripts/settable_values.py [PATH ...]

Two kinds are counted in every ``*.py`` file under the given paths (default
``src``), read from the stdlib ``ast`` tree:

* ``defaults`` -- the parameters of a ``def`` (at any depth: functions,
  methods and nested closures) that have a default value, positional and
  keyword-only alike;
* ``fields`` -- the annotated class-level names of a class decorated with
  ``@dataclass`` (bare, called, or as ``dataclasses.dataclass``), with or
  without a default; a ``ClassVar`` annotation is not a field.

Prints one row per file and a total.
"""

from __future__ import annotations

import ast
import pathlib
import sys

KINDS = ("defaults", "fields")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "ClassVar"


def count_values(path: pathlib.Path) -> dict[str, int]:
    """The number of settable values of each kind in one Python file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    counts = dict.fromkeys(KINDS, 0)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            counts["defaults"] += len(args.defaults)
            counts["defaults"] += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            counts["fields"] += sum(
                isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and not _is_classvar(stmt.annotation)
                for stmt in node.body
            )
    return counts


def main(argv=None) -> int:
    roots = [pathlib.Path(p) for p in (argv if argv is not None else sys.argv[1:]) or ["src"]]
    files = sorted(f for root in roots
                   for f in ([root] if root.is_file() else root.rglob("*.py")))
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'file':<40}" + "".join(f"{k:>10}" for k in KINDS) + f"{'all':>10}")
    for f in files:
        counts = count_values(f)
        for k in KINDS:
            totals[k] += counts[k]
        print(f"{str(f):<40}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>10}")
    print(f"{'total':<40}" + "".join(f"{totals[k]:>10}" for k in KINDS)
          + f"{sum(totals.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
