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
comprehension there calls ``loss(...)`` once per copy of the data.  The
kernel returns one result per copy, in plan order, so deduplication stays
inside it: no estimator refers to an ``inverse`` index.  A plan is a list of
groups, each a feature list and an array of codes, one row per copy, so
exact Shapley hands the kernel all its coalitions in one call, and in-call
dedup predicts the unchanged data once: no payout memo (``functools``) in
the Shapley or importance modules, and no cross-call ``_unchanged`` memo in
the kernel.  Estimators pass the code arrays they hold, so none builds a
dict for the kernel (a dict display, a dict comprehension or ``dict(...)``
in what it passes to ``substitute``), and the kernel keys copies by the
bytes of their codes, so ``core.py`` calls no ``.hex()``.

The curve-based importance scores aggregate the curve they are the
spread or mean of, so ``importance.py`` imports no private name from
``effects`` (``_substitute_grid`` was one) and keeps no ``_pi_values``
beside ``pi_curve``.

Rows reach the black box as one float64 code matrix, whatever the column
kinds, so neither the estimators nor the kernel (with the rows
``finite_difference`` composes) pick a matrix dtype: no ``dtype=object``,
no ``<matrix>.dtype`` and no ``float if numeric else object``.
"""

import ast
from pathlib import Path

import numpy as np

from boxprobe import shapley_exact

from conftest import columns_dataset, handle, kernel_calls

SRC = Path(__file__).resolve().parents[1] / "src" / "boxprobe"
ESTIMATORS = ("effects.py", "importance.py", "shapley.py")
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
DATASET_BUILDERS = {"predict_batch", "replace_columns", "estimate_generalization_error"}
KERNEL = {"PredictionCache", "_run_predictor", "finite_difference"}


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


def test_no_estimator_repeats_the_kernels_dedup():
    assert {name for name in ESTIMATORS if "inverse" in set(_names(SRC / name))} == set()


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


def _is_object(node):
    return isinstance(node, ast.Name) and node.id == "object"


def _dtype_choices(tree):
    """Line numbers of ``dtype=object``, ``<name>.dtype`` and ``... else object``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "dtype" and _is_object(node.value):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "dtype":
            yield node.lineno
        elif isinstance(node, ast.IfExp) and (_is_object(node.body) or _is_object(node.orelse)):
            yield node.lineno


def test_no_estimator_or_kernel_picks_a_matrix_dtype():
    trees = {name: ast.parse((SRC / name).read_text(encoding="utf-8")) for name in ESTIMATORS}
    core = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    kernel = [node for node in core.body if getattr(node, "name", None) in KERNEL]
    assert {node.name for node in kernel} == KERNEL
    trees.update({node.name: node for node in kernel})
    assert {name: sorted(set(_dtype_choices(tree))) for name, tree in trees.items()} == {
        name: [] for name in trees
    }


def _is_dict(node):
    return isinstance(node, (ast.Dict, ast.DictComp)) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict"
    )


def _dicts_passed_to_the_kernel(tree):
    """Line numbers of dicts in a ``substitute`` call's arguments, or in what
    its function assigned to a name those arguments use."""
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        assigned = {}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            assigned.setdefault(name.id, []).append(node.value)
        for call in ast.walk(function):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "substitute":
                passed = [*call.args, *(k.value for k in call.keywords)]
                used = {n.id for arg in passed for n in ast.walk(arg) if isinstance(n, ast.Name)}
                passed += [value for name in used for value in assigned.get(name, [])]
                yield from (n.lineno for arg in passed for n in ast.walk(arg) if _is_dict(n))


def test_no_estimator_passes_the_kernel_a_dict():
    trees = {name: ast.parse((SRC / name).read_text(encoding="utf-8")) for name in ESTIMATORS}
    assert {name: sorted(set(_dicts_passed_to_the_kernel(tree))) for name, tree in trees.items()} == {
        name: [] for name in ESTIMATORS
    }
    probe = ast.parse("def f(cache):\n    plan = [{0: v} for v in values]\n    cache.substitute(p, d, plan)\n")
    assert list(_dicts_passed_to_the_kernel(probe)) == [2]  # the guard sees through a name


def test_the_kernel_keys_copies_by_bytes_not_hex():
    calls = [
        node.lineno
        for node in ast.walk(ast.parse((SRC / "core.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "hex"
    ]
    assert calls == []


def test_no_payout_memo_and_no_cross_call_unchanged_memo():
    assert {name for name in ("shapley.py", "importance.py") if "functools" in set(_names(SRC / name))} == set()
    assert "_unchanged" not in set(_names(SRC / "core.py"))


def test_importance_scores_reach_the_kernel_through_their_curves():
    path = SRC / "importance.py"
    from_effects = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "effects"
        for alias in node.names
    }
    assert "pd_curve" in from_effects
    assert {name for name in from_effects if name.startswith("_")} == set()
    assert {"_substitute_grid", "_pi_values"} & (set(_names(path)) | _defined(path)) == set()


def test_exact_shapley_is_one_kernel_call(monkeypatch):
    p = 4
    data = columns_dataset(**{f"x{j}": [float(j), 1.0, -2.0] for j in range(p)})
    predicted = []
    predictor = handle(lambda X: predicted.append(len(X)) or np.asarray(X).sum(axis=1), p)
    calls = kernel_calls(monkeypatch)
    result = shapley_exact(predictor, data, (0.5,) * p, 1)
    record = next(r for r in result.trace.records if r.stage == "prediction")
    assert calls == ["substitute"]
    assert record.parameters["batches"] == 2 * (2**p - 1)
    assert predicted == [data.n_rows] * 2**p  # every coalition but the empty one, then the data once
