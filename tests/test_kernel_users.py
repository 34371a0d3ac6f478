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
no ``<matrix>.dtype`` and no ``float if numeric else object``.  The
``intervene_*`` functions hand ``replace_columns`` codes too, so they pick
none either.

Each method makes a fixed number of kernel calls per run, most of them one;
``KERNEL_RUNS`` gives the count of each, with the reason for each that is
not one.  Each run builds its own ``PredictionCache``, so the only public
functions that take one are ``finite_difference`` and ``marginal_effect``.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import boxprobe
from boxprobe import (
    ale_first_order,
    average_marginal_effect,
    ces_curve,
    estimate_generalization_error,
    firm,
    ice_curves,
    ici_curve,
    lime_explain,
    marginal_effect,
    pd_curve,
    pd_importance,
    pfi_exhaustive,
    pfi_payout,
    pfi_permutation,
    pi_curve,
    predict_batch,
    sfimp,
    shapley_exact,
    shapley_mc,
    squared_loss,
)
from boxprobe.effects import _ice_row

from conftest import columns_dataset, handle, kernel_calls, linear_predictor

SRC = Path(__file__).resolve().parents[1] / "src" / "boxprobe"
ESTIMATORS = ("effects.py", "importance.py", "shapley.py")
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
DATASET_BUILDERS = {"predict_batch", "replace_columns", "estimate_generalization_error"}
KERNEL = {
    "PredictionCache", "_run_predictor", "finite_difference",
    "intervene_replace", "intervene_permute", "intervene_shift",
}


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


# How many kernel calls one run makes: one, unless the comment says why not.
P = 3
GUARD = columns_dataset(
    x1=[0.0, 1.0, 2.0, 3.0, 4.0], x2=[1.0, 0.0, 2.0, 2.0, 5.0], x3=[3.0, 1.0, 1.0, 0.0, 2.0],
    target=[4.0, 2.0, 5.0, 4.0, 12.0],
)
X, LOSS = GUARD.row(2), squared_loss()
KERNEL_RUNS = {
    "ice_curves": (lambda f: ice_curves(f, GUARD, 0), 1),
    "_ice_row": (lambda f: _ice_row(f, GUARD, 0, None, 1, 2), 1),
    "pd_curve feature": (lambda f: pd_curve(f, GUARD, 0), 1),
    "pd_curve set": (lambda f: pd_curve(f, GUARD, [0, 1]), 1),
    "pd_importance": (lambda f: pd_importance(f, GUARD, 0), 1),
    "ces_curve": (lambda f: ces_curve(f, GUARD, 0), 1),
    "firm": (lambda f: firm(f, GUARD, 0), 1),
    "ici_curve": (lambda f: ici_curve(f, GUARD, 1, 0, LOSS), 1),
    "average_marginal_effect": (lambda f: average_marginal_effect(f, GUARD, 0), 1),
    "pfi_permutation": (lambda f: pfi_permutation(f, GUARD, 0, LOSS, repeats=3), 1),
    "shapley_exact": (lambda f: shapley_exact(f, GUARD, X, 0), 1),
    "predict_batch": (lambda f: predict_batch(f, GUARD), 1),
    "estimate_generalization_error": (lambda f: estimate_generalization_error(f, GUARD, LOSS), 1),
    "shapley_mc": (lambda f: shapley_mc(f, GUARD, X, 0, 4, 0), 1),
    # The base losses come first: the loss change of each copy is a reducer on them.
    "pi_curve": (lambda f: pi_curve(f, GUARD, 0, LOSS), 2),
    "pfi_exhaustive": (lambda f: pfi_exhaustive(f, GUARD, 0, LOSS), 2),
    # One per interval (x2's tied quantiles leave 3 of 4): the trace counts 2 batches per interval.
    "ale_first_order": (lambda f: ale_first_order(f, GUARD, 1, 4), 3),
    # One per coalition block, 2^p: one plan for all blocks raised peak RSS from 43 to 197 MB at n = 100, p = 12.
    "sfimp": (lambda f: sfimp(f, GUARD, 0, LOSS), 2**P),
    "pfi_payout": (lambda f: pfi_payout(f, GUARD, [0], LOSS), 1),
    # Rows they compose themselves go to PredictionCache.predict, not the kernel.
    "lime_explain": (lambda f: lime_explain(f, GUARD, X, 0), 0),
    "marginal_effect": (lambda f: marginal_effect(f, X, 0, 0.5), 0),
}


@pytest.mark.parametrize("method", sorted(KERNEL_RUNS))
def test_each_method_makes_its_count_of_kernel_calls(monkeypatch, method):
    run, expected = KERNEL_RUNS[method]
    calls = kernel_calls(monkeypatch)
    run(linear_predictor([1.0, 2.0, -1.0]))
    assert calls.count("substitute") == expected


def test_only_the_me_path_takes_a_cache():
    """Each run builds its own cache; the CLI's ``me`` passes one to read its trace."""
    public = [getattr(boxprobe, name) for name in boxprobe.__all__]
    functions = [f for f in public if inspect.isfunction(f)]
    assert {f.__name__ for f in functions if "cache" in inspect.signature(f).parameters} == {
        "finite_difference",
        "marginal_effect",
    }
