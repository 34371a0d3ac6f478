"""Tooling guard: a ``Dataset`` writes its state in one method.

Inside ``class Dataset`` only ``_set`` may call ``object.__setattr__``.
Every constructor path reaches ``_set`` through the checked builder or
``replace_columns``; a new path that wrote attributes itself could skip the
builder's checks.
"""

import ast
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "src" / "boxprobe" / "data.py"


def _dataset_class():
    tree = ast.parse(DATA.read_text(encoding="utf-8"))
    return next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Dataset")


def _is_object_setattr(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and getattr(node.func.value, "id", None) == "object"
    )


def test_only_set_writes_dataset_state():
    writers = {}
    for member in _dataset_class().body:
        name = getattr(member, "name", "<class body>")
        calls = [n.lineno for n in ast.walk(member) if _is_object_setattr(n)]
        if calls:
            writers[name] = calls
    assert list(writers) == ["_set"]
