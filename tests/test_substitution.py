"""The substitution kernel against a per-point reference, bit for bit.

The reference is the loop the kernel replaces: one ``intervene_replace``,
``intervene_shift`` or ``intervene_permute`` and one predictor call per
grid point, donor, coalition, shift or permutation.  Every estimator that
substitutes must return the same bits at any row budget and thread count
for a model that rounds each row the same in any batch, and at the default
budget for the fitted linear model, whose rounding does depend on the
batch.  Estimators that reduce inside the kernel must match whatever the
reducer returns, a view of the reused buffer included, and must hold one
copy's predictions, not the prediction matrix.
"""

import tracemalloc

import numpy as np
import pytest

from boxprobe import (
    Dataset,
    LossFunction,
    ale_first_order,
    average_marginal_effect,
    default_step,
    exact_shapley_value,
    firm,
    fit_knn,
    fit_linear,
    fit_stump,
    ice_curves,
    ici_curve,
    intervene_permute,
    intervene_replace,
    intervene_shift,
    observed_grid,
    pd_curve,
    pd_importance,
    pfi_exhaustive,
    pfi_permutation,
    pi_curve,
    sfimp,
    shapley_exact,
    squared_loss,
)
from boxprobe import core
from boxprobe.core import PredictionCache, spawn_seeds
from boxprobe.effects import _ale_bins, _ice_row
from boxprobe.importance import _coalition_seed, _pd_spread

from conftest import handle

LOSS = squared_loss()


def mixed_data():
    """Ten rows, duplicated continuous values and one categorical column."""
    return Dataset.from_columns(
        {
            "a": [0.5, 1.0, 1.0, -2.0, 0.5, 3.0, 1.0, -2.0, 0.25, 3.0],
            "b": [1.5, -0.5, 2.0, 2.0, 0.0, 1.0, -1.25, 0.75, 2.0, 0.5],
            "c": ["u", "v", "w", "u", "u", "v", "w", "w", "u", "v"],
            "d": [2.0, 2.0, -1.0, 0.5, 0.5, 4.0, 2.0, -3.0, 1.5, 0.5],
        },
        target=[1.0, 0.0, 2.5, -1.0, 0.5, 3.0, 1.5, -2.0, 0.0, 2.0],
    )


def rowwise(X):
    """A nonlinear model built from exact elementwise operations only."""
    X = np.asarray(X)
    a, b, d = (X[:, k].astype(float) for k in (0, 1, 3))
    return a * b + np.where(X[:, 2] == "v", d * d, -d) + 0.5 * a * b * d


def reference_grid(predictor, data, features, points):
    rows = [predictor(intervene_replace(data, dict(zip(features, p))).matrix()) for p in points]
    return np.vstack(rows)


def reference_pi(predictor, data, j, loss=LOSS):
    y = data.target
    base_losses = loss(predictor(data.matrix()), y)
    values = np.sort(data.column(j), kind="stable")
    means = [np.mean(loss(predictor(intervene_replace(data, {j: v}).matrix()), y) - base_losses) for v in values]
    return np.array(means)


def reference_ici(predictor, data, i, j):
    single = data.replace_columns(((), np.empty((1, 0))), row_subset=np.array([i]))
    y_i = data.target[i : i + 1]
    base = float(LOSS(predictor(single.matrix()), y_i)[0])
    values = np.sort(data.column(j), kind="stable")
    return np.array([float(LOSS(predictor(intervene_replace(single, {j: v}).matrix()), y_i)[0]) - base for v in values])


def generalization_error(predictor, data, loss=LOSS):
    return float(np.mean(loss(predictor(data.matrix()), data.target)))


def reference_ame(predictor, data, j, h):
    upper = predictor(intervene_shift(data, j, h).matrix())
    lower = predictor(intervene_shift(data, j, -h).matrix())
    return float(np.mean((upper - lower) / (2.0 * h)))


def reference_pfi(predictor, data, j, repeats, seed, loss=LOSS):
    base = generalization_error(predictor, data, loss)
    diffs = [
        generalization_error(predictor, intervene_permute(data, j, child), loss) - base
        for child in spawn_seeds(seed, repeats)
    ]
    return float(np.mean(diffs))


def reference_sfimp_permuted(predictor, data, j, seed):
    p = data.n_features

    def ge(block):
        shuffled = data
        for t in block:  # one seed per block, so every column draws the same permutation
            shuffled = intervene_permute(shuffled, t, _coalition_seed(seed, block))
        return generalization_error(predictor, shuffled)

    everything = frozenset(range(p))
    return exact_shapley_value(lambda k: ge(everything - k) - ge(everything) if k else 0.0, p, j)


def reference_sfimp(predictor, data, j, loss=LOSS):
    y, p = data.target, data.n_features

    def ge(block):
        if not block:
            return generalization_error(predictor, data, loss)
        per_donor = [
            np.mean(loss(predictor(intervene_replace(data, {t: data.column(t)[l] for t in block}).matrix()), y))
            for l in range(data.n_rows)
        ]
        return float(np.mean(per_donor))

    everything = frozenset(range(p))
    return exact_shapley_value(lambda k: ge(everything - k) - ge(everything) if k else 0.0, p, j)


def reference_shapley(predictor, data, x, j):
    baseline = float(np.mean(predictor(data.matrix())))

    def payout(k):
        if not k:
            return 0.0
        return float(np.mean(predictor(intervene_replace(data, {t: x[t] for t in k}).matrix()))) - baseline

    return exact_shapley_value(payout, data.n_features, j)


def reference_ale(predictor, data, j, intervals):
    edges, idx = _ale_bins(data.column(j), intervals)
    effects, counts = [], []
    for k in range(len(edges) - 1):
        members = np.flatnonzero(idx == k)
        subset = data.replace_columns(((), np.empty((1, 0))), row_subset=members)
        upper = predictor(intervene_replace(subset, {j: edges[k + 1]}).matrix())
        lower = predictor(intervene_replace(subset, {j: edges[k]}).matrix())
        effects.append(np.mean(upper - lower))
        counts.append(members.size)
    accumulated = np.cumsum(effects)
    center = float(np.sum(accumulated * np.array(counts)) / data.n_rows)
    return np.concatenate(([0.0], accumulated)) - center


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# The most rows of one predictor call: every copy split into one-row calls,
# one call per copy exactly, and the default.
BUDGETS = {
    "one row": lambda n: 1,
    "n rows": lambda n: n,
    "default": lambda n: core.ROW_BUDGET,
}
# The fitted linear model's BLAS matrix-vector product rounds a row
# differently near the end of a batch, so its bits hold only under the
# reference's own batches: one call per substituted copy of the data.
CASES = [("rowwise", b, t) for b in BUDGETS for t in (1, 3)] + [("linear", b, 1) for b in ("n rows", "default")]


@pytest.mark.parametrize("model,budget,threads", CASES)
def test_kernel_matches_per_point_reference(monkeypatch, model, budget, threads):
    data = mixed_data()
    predictor = handle(rowwise, 4) if model == "rowwise" else fit_linear(data)
    monkeypatch.setattr(core, "ROW_BUDGET", BUDGETS[budget](data.n_rows))

    grid_a, grid_c = observed_grid(data, "a"), observed_grid(data, "c")
    points = [(v,) for v in grid_a.points]
    grid = reference_grid(predictor, data, [0], points)
    assert same_bits(pd_curve(predictor, data, 0, threads=threads).ys, grid.mean(axis=1))
    for i, curve in enumerate(ice_curves(predictor, data, 0, threads=threads)):
        assert same_bits(curve.ys, grid[:, i])
        assert same_bits(_ice_row(predictor, data, 0, None, threads, i).ys, grid[:, i])
    pairs = [(a, c) for a in grid_a.points for c in grid_c.points]
    set_grid = reference_grid(predictor, data, [0, 2], pairs)
    assert same_bits(pd_curve(predictor, data, [0, 2], threads=threads).ys, set_grid.mean(axis=1))

    for j, g in ((0, grid_a), (2, grid_c)):
        pd_values = reference_grid(predictor, data, [j], [(v,) for v in g.points]).mean(axis=1)
        spread, _ = _pd_spread(g.points, pd_values, data, j, "")
        assert pd_importance(predictor, data, j, threads=threads).value == spread
        assert firm(predictor, data, j, threads=threads).value == spread
        means = reference_pi(predictor, data, j)
        assert same_bits(pi_curve(predictor, data, j, LOSS, threads=threads).ys, means)
        assert pfi_exhaustive(predictor, data, j, LOSS, threads=threads).value == float(np.mean(means))
        assert same_bits(ici_curve(predictor, data, 3, j, LOSS, threads=threads).ys, reference_ici(predictor, data, 3, j))

    assert sfimp(predictor, data, 1, LOSS, threads=threads).value == reference_sfimp(predictor, data, 1)
    permuted = sfimp(predictor, data, 1, LOSS, mode="permutation", seed=4, threads=threads)
    assert permuted.value == reference_sfimp_permuted(predictor, data, 1, 4)
    for j in (0, 2):
        pfi = pfi_permutation(predictor, data, j, LOSS, repeats=3, seed=7, threads=threads)
        assert pfi.value == reference_pfi(predictor, data, j, 3, 7)
    for j in (0, 1):
        h = default_step(data, j)
        assert average_marginal_effect(predictor, data, j, threads=threads).value == reference_ame(predictor, data, j, h)
    x = (2.0, -1.0, "v", 0.5)
    assert shapley_exact(predictor, data, x, 3, threads=threads).value == reference_shapley(predictor, data, x, 3)
    assert same_bits(ale_first_order(predictor, data, 1, 3, threads=threads).ys, reference_ale(predictor, data, 1, 3))


@pytest.mark.parametrize("budget", BUDGETS)
def test_reducer_output_is_copied_before_the_buffer_is_reused(monkeypatch, budget):
    data = mixed_data()
    predictor = handle(rowwise, 4)
    monkeypatch.setattr(core, "ROW_BUDGET", BUDGETS[budget](data.n_rows))
    points = [(v,) for v in observed_grid(data, "b").points]
    grid = reference_grid(predictor, data, [1], points)
    plan = [([1], np.array(points))]
    for i in (0, 4, 9):
        column = PredictionCache().substitute(predictor, data, plan, reduce=lambda b: b[:, i])
        assert same_bits(column, grid[:, i])
    strided = PredictionCache().substitute(predictor, data, plan, reduce=lambda b: b[:, ::3])
    assert same_bits(strided, grid[:, ::3])


@pytest.mark.parametrize("budget", [1, 7, "m", "default"])
@pytest.mark.parametrize("rows", [None, [3, 1, 3]], ids=["all rows", "three rows"])
def test_the_reducer_gets_blocks_of_a_row_budget_of_copies(monkeypatch, budget, rows):
    data = mixed_data()
    m = data.n_rows if rows is None else len(rows)
    monkeypatch.setattr(core, "ROW_BUDGET", {"m": m, "default": core.ROW_BUDGET}.get(budget, budget))
    k = max(1, core.ROW_BUDGET // m)
    points = [float(v) for v in observed_grid(data, "b").points]
    values = points + points[::2]  # every other point repeats
    distinct = len({v.hex() for v in points})
    y = data.target if rows is None else data.target[rows]
    blocks = []

    def loss_change(b):
        blocks.append(len(b))
        return (LOSS(b, y) - 1.0).mean(axis=1)

    predictor = handle(rowwise, 4)
    got = PredictionCache().substitute(predictor, data, [([1], np.array(values)[:, None])], rows=rows, reduce=loss_change)
    full, last = divmod(distinct, k)
    assert blocks == [0] + [k] * full + ([last] if last else [])  # the first is the shape probe
    assert len(blocks) == -(-distinct // k) + 1
    base = data.matrix() if rows is None else data.matrix()[rows]
    per_copy = []
    for value in values:
        X = base.copy()
        X[:, 1] = value
        per_copy.append((LOSS(rowwise(X), y) - 1.0).mean())
    assert same_bits(got, per_copy)


def test_a_custom_loss_broadcasts_over_a_block_of_copies():
    data = mixed_data()
    predictor = handle(rowwise, 4)
    shapes = []

    def absolute(p, y):
        shapes.append((np.shape(p), np.shape(y)))
        return np.abs(p - y)

    loss = LossFunction("absolute", absolute)
    means = reference_pi(predictor, data, 0, loss)
    shapes.clear()
    assert same_bits(pi_curve(predictor, data, 0, loss).ys, means)
    assert pfi_exhaustive(predictor, data, 0, loss).value == float(np.mean(means))
    pfi = pfi_permutation(predictor, data, 2, loss, repeats=3, seed=7)
    assert pfi.value == reference_pfi(predictor, data, 2, 3, 7, loss)
    assert sfimp(predictor, data, 1, loss).value == reference_sfimp(predictor, data, 1, loss)
    m = (data.n_rows,)
    assert {y for _, y in shapes} == {m}
    assert {p[1:] for p, _ in shapes if len(p) == 2} == {m}
    assert {p for p, _ in shapes if len(p) != 2} <= {m}


def counting(fn):
    calls = []

    def counted(X):
        calls.append(len(X))
        return fn(X)

    return handle(counted, 4), calls


def stacked_plan(data):
    """Eight distinct values of ``b``, then every other one again, and the copies they make."""
    points = [float(v) for v in observed_grid(data, "b").points]
    return points + points[::2], len(points)


def patched(base, value):
    X = base.copy()
    X[:, 1] = value
    return X


@pytest.mark.parametrize("threads", [1, 3])
def test_a_plain_callable_sees_one_call_per_distinct_copy_of_a_block(monkeypatch, threads):
    """A block stacks three copies into one handle call, which still calls the
    callable once per copy with its m rows; at m < 2 threads no copy is cut into chunks."""
    data = mixed_data()
    rows = [0, 2, 4, 6, 8]
    m = len(rows)
    monkeypatch.setattr(core, "ROW_BUDGET", 3 * m + 1)
    values, distinct = stacked_plan(data)
    predictor, calls = counting(rowwise)
    stacks, call = [], core.PredictorHandle.__call__
    monkeypatch.setattr(
        core.PredictorHandle, "__call__", lambda self, X, meta=None, copies=1: stacks.append(copies) or call(self, X, meta, copies)
    )
    got = PredictionCache(threads).substitute(predictor, data, [([1], np.array(values)[:, None])], rows=rows)
    assert stacks == [3, 3, 2] and calls == [m] * distinct
    assert same_bits(got, [rowwise(patched(data.matrix()[rows], v)) for v in values])


@pytest.mark.parametrize("kind", ["linear", "knn", "stump"])
def test_a_reference_model_predicts_each_block_of_copies_in_one_call(monkeypatch, kind):
    data = mixed_data()
    model = {"linear": fit_linear, "knn": lambda d: fit_knn(d, 3), "stump": fit_stump}[kind](data)
    m, k = data.n_rows, 3
    monkeypatch.setattr(core, "ROW_BUDGET", k * m + 1)
    values, distinct = stacked_plan(data)
    predict, seen = model._predict, []
    monkeypatch.setattr(model, "_predict", lambda X, copies=1: seen.append((len(X), copies)) or predict(X, copies))
    got = PredictionCache().substitute(model, data, [([1], np.array(values)[:, None])])
    assert len(seen) == -(-distinct // k)
    assert seen == [(k * m, k)] * (distinct // k) + [(distinct % k * m, distinct % k)]
    assert same_bits(got, [predict(patched(data.codes(), v)) for v in values])


@pytest.mark.parametrize("reduce", ["whole", "mean"])
def test_repeated_unchanged_data_passes_through_a_reducer_once(reduce):
    data = mixed_data()
    predictor, calls = counting(rowwise)
    expected = rowwise(data.matrix())
    patched = data.matrix().copy()
    patched[:, 0] = 2.0
    patched = rowwise(patched)
    reducers = {"whole": lambda b: b, "mean": lambda b: b.mean(axis=1)}
    plan = [([], np.empty((1, 0))), ([0], [[2.0]]), ([], np.empty((2, 0)))]
    got = PredictionCache().substitute(predictor, data, plan, reduce=reducers[reduce])
    assert calls == [data.n_rows, data.n_rows]
    assert same_bits(got, reducers[reduce](np.array([expected, patched, expected, expected])))


def test_patches_naming_the_same_values_in_another_order_are_predicted_once():
    data = mixed_data()
    predictor, calls = counting(rowwise)
    patched = data.matrix().copy()
    patched[:, 0], patched[:, 1], patched[:, 2] = 1.0, 2.0, "w"
    got = PredictionCache().substitute(
        predictor,
        data,
        [([0, 1], [[1.0, 2.0]]), ([1, 0], [[2.0, 1.0]]), (["a", "b"], [[1.0, 2.0]]),
         (["c", "b", 0], [[2.0, 2.0, 1.0]]), ([0, 1, 2], [[1.0, 2.0, 2.0]])],
    )
    assert calls == [data.n_rows, data.n_rows]
    two = patched.copy()
    two[:, 2] = data.matrix()[:, 2]
    assert same_bits(got, [rowwise(two)] * 3 + [rowwise(patched)] * 2)


def test_reducing_estimators_hold_a_row_budget_not_the_matrix():
    n = 3000
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=n), rng.normal(size=n)
    data = Dataset.from_columns({"a": a, "b": b}, target=a * b + b)
    data.matrix()  # built once, outside the traced runs
    predictor = handle(lambda X: X[:, 0] * X[:, 1] + X[:, 1], 2)
    runs = {
        "pd_curve": lambda: pd_curve(predictor, data, 0),
        "pi_curve": lambda: pi_curve(predictor, data, 0, LOSS),
        "pfi_exhaustive": lambda: pfi_exhaustive(predictor, data, 0, LOSS),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The kernel's one-copy buffer, the predictor's input block and the
        # loss temporaries each stay within one budget; the grid, the dedup keys and the result are O(n) Python
        # objects, under 1 KiB a row.  The 3000 x 3000 prediction matrix
        # alone would take 72 MB.
        assert peak < 8 * core.ROW_BUDGET * 8 + 1024 * n, name
