"""Property tests on random small data with duplicates and signed zeros.

Whatever the substitution kernel merges, the prediction record counts the
grid the estimator is defined over (G batches of n rows), and the partial
dependence, the averaged loss-change curve (PI) and the exhaustive
permutation importance equal their per-value ``intervene_replace``
references bit for bit.  The kernel itself, on random plans with repeated
copies, codes per copy and per row, level codes and optional rows, returns
each copy's predictions, or each copy's share of a reduced block of copies,
as a per-copy loop over the code matrix would, at any row budget and thread
count, whichever features each group sets, by index or by name, in any
order, keeping 0.0 and -0.0 apart.  Building a
dataset from rows or from columns gives the same bits.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boxprobe import (
    Dataset,
    PredictionCache,
    FeatureMeta,
    custom_grid,
    ice_curves,
    intervene_replace,
    pd_curve,
    pfi_exhaustive,
    pi_curve,
    squared_loss,
)

from boxprobe import core
from boxprobe.data import decode

from conftest import handle

# A small pool, so columns and grids repeat values; -0.0 and 0.0 are distinct bits.
VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 2.0])
LEVELS = st.sampled_from(["a", "b", "c"])


@st.composite
def cases(draw):
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    data = Dataset.from_columns(
        {f"x{k}": draw(st.lists(VALUES, min_size=n, max_size=n)) for k in range(p)}
    )
    j = draw(st.integers(0, p - 1))
    points = sorted(draw(st.lists(VALUES, min_size=1, max_size=8)))
    return data, custom_grid(data, j, points)


@st.composite
def targeted_cases(draw):
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    columns = {f"x{k}": draw(st.lists(VALUES, min_size=n, max_size=n)) for k in range(p)}
    target = draw(st.lists(VALUES, min_size=n, max_size=n))
    return Dataset.from_columns(columns, target=target), draw(st.integers(0, p - 1))


@st.composite
def mixed_tables(draw):
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    columns = {}
    for k in range(p):
        pool = draw(st.sampled_from([VALUES, LEVELS]))
        columns[f"x{k + 1}"] = draw(st.lists(pool, min_size=n, max_size=n))
    return columns, draw(st.lists(VALUES, min_size=n, max_size=n))


def bits(arr):
    """Dtype, shape and every entry, floats by hex so -0.0 and 0.0 differ."""
    entries = [v.hex() if isinstance(v, float) else v for v in arr.ravel().tolist()]
    return arr.dtype, arr.shape, entries


def range_bits(meta):
    return [m.observed_range and tuple(v.hex() for v in m.observed_range) for m in meta]


def rowwise(X):
    """Exact elementwise operations only, and sensitive to the sign of zero."""
    X = np.asarray(X, dtype=float)
    return np.copysign(1.0, X[:, 0]) * X[:, -1] + 3.0 * X[:, 0] * X[:, 0]


def prediction_counts(trace):
    record = next(r for r in trace.records if r.stage == "prediction")
    return record.parameters["batches"], record.parameters["rows"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cases())
def test_prediction_records_count_the_whole_grid(case):
    data, grid = case
    predictor = handle(rowwise, data.n_features)
    expected = (len(grid), len(grid) * data.n_rows)
    assert prediction_counts(pd_curve(predictor, data, grid.feature, grid=grid).trace) == expected
    curves = ice_curves(predictor, data, grid.feature, grid=grid)
    assert {prediction_counts(c.trace) for c in curves} == {expected}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cases())
def test_pd_equals_per_point_reference(case):
    data, grid = case
    predictor = handle(rowwise, data.n_features)
    rows = [predictor(intervene_replace(data, {grid.feature: v}).matrix()) for v in grid.points]
    reference = np.vstack(rows).mean(axis=1)
    curve = pd_curve(predictor, data, grid.feature, grid=grid)
    assert curve.values().tobytes() == reference.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(targeted_cases())
def test_pi_and_exhaustive_pfi_equal_per_value_reference(case):
    data, j = case
    predictor, loss = handle(rowwise, data.n_features), squared_loss()
    base = loss(predictor(data.matrix()), data.target)
    values = np.sort(data.column(j), kind="stable")
    reference = np.array([
        np.mean(loss(predictor(intervene_replace(data, {j: v}).matrix()), data.target) - base)
        for v in values
    ])
    assert pi_curve(predictor, data, j, loss).values().tobytes() == reference.tobytes()
    score = pfi_exhaustive(predictor, data, j, loss).value
    assert score.hex() == float(np.mean(reference)).hex()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mixed_tables())
def test_rows_and_columns_build_the_same_dataset(table):
    columns, target = table
    by_columns = Dataset.from_columns(columns, target=target)
    rows = list(zip(*columns.values()))
    schema = [FeatureMeta(m.name, m.kind, levels=m.levels) for m in by_columns.meta]
    for by_rows in (Dataset(rows, target=target), Dataset(rows, meta=schema, target=target)):
        assert by_rows.meta == by_columns.meta
        assert range_bits(by_rows.meta) == range_bits(by_columns.meta)
        for j in range(by_rows.n_features):
            assert bits(by_rows.column(j)) == bits(by_columns.column(j))
        assert bits(by_rows.matrix()) == bits(by_columns.matrix())
        assert bits(by_rows.target) == bits(by_columns.target)


LOSS = squared_loss()

# Continuous codes: mostly signed zeros, so copies the kernel must keep apart repeat.
PATCH_VALUES = st.sampled_from([-0.0, 0.0, 0.0, -0.0, 2.0])


def mixed_rowwise(X):
    """Exact elementwise operations on (continuous, level, continuous) rows,
    sensitive to the sign of zero in both continuous columns."""
    X = np.asarray(X)
    a, c = X[:, 0].astype(float), X[:, 2].astype(float)
    signs = np.copysign(1.0, a) + np.copysign(2.0, c)
    return signs + 3.0 * a * c + np.where(X[:, 1] == "b", c, -a)


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(1, 8))
    data = Dataset.from_columns({
        "x1": draw(st.lists(VALUES, min_size=n, max_size=n)),
        "x2": draw(st.lists(LEVELS, min_size=n, max_size=n)),
        "x3": draw(st.lists(VALUES, min_size=n, max_size=n)),
    })
    rows = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    m = n if rows is None else len(rows)
    level_codes = st.sampled_from([float(code) for code in range(len(data.meta[1].levels))])

    def group():  # a few copies of the same features, each by index or by name, in any order
        features = draw(st.permutations(draw(st.lists(st.integers(0, 2), unique=True, max_size=3))))
        per_row = draw(st.booleans())
        codes = np.empty((draw(st.integers(1, 3)), len(features), *((m,) if per_row else ())))
        for copy in codes:
            for k, j in enumerate(features):
                pool = level_codes if j == 1 else PATCH_VALUES
                copy[k] = draw(st.lists(pool, min_size=m, max_size=m)) if per_row else draw(pool)
        return [draw(st.sampled_from([j, f"x{j + 1}"])) for j in features], codes

    candidates = [group() for _ in range(draw(st.integers(1, 4)))]  # [] is the unchanged data
    plan = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=6))
    return data, plan, rows, m


def column(feature):
    return feature if isinstance(feature, int) else int(feature[1:]) - 1


def copy_keys(plan):
    """Equal for copies the kernel may predict once: the same columns, in any
    order, and equal codes, floats by bits."""
    for features, codes in plan:
        js = [column(f) for f in features]
        order = np.argsort(js)
        for copy in codes:
            yield tuple(sorted(js)), tuple(v.hex() for v in copy[order].ravel().tolist())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kernel_cases(), st.sampled_from([1, 7, None]), st.sampled_from([1, 2, 3]))
def test_kernel_equals_a_per_patch_loop(case, budget, threads):
    data, plan, rows, m = case
    base = data.codes() if rows is None else data.codes()[rows]
    expected = []
    for features, codes in plan:
        for copy in codes:
            X = base.copy()
            for f, v in zip(features, copy):
                X[:, column(f)] = v
            expected.append(mixed_rowwise(decode(X, data.meta)))
    expected = np.array(expected)
    seen = []
    predictor = handle(lambda X: seen.append(len(X)) or mixed_rowwise(X), 3)
    y = np.arange(m, dtype=float)
    base = LOSS(expected[0], y)
    reducers = {  # a block of copies in, one value or row per copy out
        "mean": lambda b: b.mean(axis=1),
        "loss change": lambda b: (LOSS(b, y) - base).mean(axis=1),
        "column": lambda b: b[:, m - 1],
    }
    with mock.patch.object(core, "ROW_BUDGET", budget or core.ROW_BUDGET):
        cache = PredictionCache(threads)
        got = cache.substitute(predictor, data, plan, rows=rows)
        reduced = {
            name: cache.substitute(predictor, data, plan, rows=rows, reduce=reduce)
            for name, reduce in reducers.items()
        }
    assert (got.shape, got.tobytes()) == (expected.shape, expected.tobytes())
    for name, reduce in reducers.items():
        assert reduced[name].tobytes() == reduce(expected).tobytes(), name
    calls = 1 + len(reducers)
    assert (cache.batches, cache.rows) == (calls * len(expected), calls * len(expected) * m)
    distinct = len(set(copy_keys(plan)))
    assert sum(seen) == calls * distinct * m
