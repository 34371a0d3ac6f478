"""Tooling guard: estimators patch data only through the substitution kernel.

``effects.py``, ``importance.py`` and ``shapley.py`` reach the black box
through ``PredictionCache``: ``substitute`` for every patched or unchanged
copy of the data, ``predict`` for rows they compose themselves.  None of
them builds a ``Dataset`` to predict on it, so none refers to the library
primitives that do: ``predict_batch``, ``replace_columns``, the
``intervene_*`` functions and ``estimate_generalization_error``.  The
kernel's own unchanged-data rule replaced ``PredictionCache.baseline`` and
``importance._permute_block``, which must not come back.  Losses apply to
whole blocks of predictions inside the kernel's reducers, so no loop or
comprehension there calls ``loss(...)`` once per copy of the data.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "boxprobe"
ESTIMATORS = ("effects.py", "importance.py", "shapley.py")
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
DATASET_BUILDERS = {"predict_batch", "replace_columns", "estimate_generalization_error"}


def _names(path):
    """Every name and attribute the module refers to."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def _defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_estimators_are_found():
    assert all((SRC / name).is_file() for name in ESTIMATORS)


def test_estimators_build_no_dataset_to_predict_on():
    used = {
        (name, ref)
        for name in ESTIMATORS
        for ref in _names(SRC / name)
        if ref in DATASET_BUILDERS or ref.startswith("intervene_")
    }
    assert used == set()


def test_the_kernel_replaced_the_baseline_and_the_block_permutation():
    defined = set().union(*(_defined(path) for path in SRC.glob("*.py")))
    assert {"baseline", "_permute_block"} & defined == set()
    assert "substitute" in _defined(SRC / "core.py")


def _losses_in_loops(path):
    """Line numbers of ``loss(...)`` calls inside a loop or comprehension."""
    for loop in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(loop, LOOPS):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "loss":
                    yield node.lineno


def test_no_estimator_applies_a_loss_once_per_copy():
    assert {name: sorted(set(_losses_in_loops(SRC / name))) for name in ESTIMATORS} == {
        name: [] for name in ESTIMATORS
    }
