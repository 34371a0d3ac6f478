"""Categorical codes: what a predictor sees, and the reference models' two paths.

Inside the package rows travel as one float64 code matrix (a categorical
value is its level's index in ``FeatureMeta.levels``).  A plain callable
wrapped in ``PredictorHandle`` must still see level strings, on every path
that predicts, and float64 when every column is continuous.  A reference
model reads codes; its public call on level strings must give the same bits.
"""

import numpy as np
import pytest

from boxprobe import (
    Dataset,
    PredictorHandle,
    fit_knn,
    fit_linear,
    fit_stump,
    ice_curves,
    lime_explain,
    marginal_effect,
    pd_curve,
    pfi_permutation,
    pi_curve,
    sfimp,
    shapley_exact,
    shapley_mc,
    squared_loss,
)
from boxprobe.data import CATEGORICAL, FeatureMeta, decode, encode
from boxprobe.errors import InvalidLevelError

LEVELS = ("a", "b", "c")


def mixed_data():
    rng = np.random.default_rng(3)
    n = 12
    x1 = np.round(rng.normal(size=n), 1)
    c = [LEVELS[k] for k in rng.integers(0, 3, size=n)]
    x2 = np.round(rng.normal(size=n), 1)
    y = 2.0 * x1 - x2 + np.array([LEVELS.index(v) for v in c])
    return Dataset.from_columns({"x1": x1, "c": c, "x2": x2}, target=y)


def recording(data):
    """A plain callable that uses the level strings, and every matrix it saw."""
    seen = []

    def fn(X):
        seen.append(X)
        if X.dtype == object:
            return np.array([float(r[0]) + LEVELS.index(r[1]) - float(r[2]) for r in X])
        return X @ np.arange(1.0, X.shape[1] + 1)

    return PredictorHandle(fn, data.n_features, name="recording"), seen


def every_predicting_path(f, data, threads):
    x = data.row(0)
    loss = squared_loss()
    pd_curve(f, data, "x1", threads=threads)
    if data.meta[1].kind == CATEGORICAL:
        pd_curve(f, data, "c", threads=threads)  # a categorical scalar patch
    ice_curves(f, data, ["x1", data.feature_names[1]], threads=threads)
    pi_curve(f, data, data.feature_names[1], loss, threads=threads)
    pfi_permutation(f, data, data.feature_names[1], loss, seed=2, threads=threads)  # an array patch
    sfimp(f, data, "x2", loss, threads=threads)
    shapley_exact(f, data, x, "x1", threads=threads)
    shapley_mc(f, data, x, "x1", iterations=7, seed=1, threads=threads)
    lime_explain(f, data, x, "x1", num_samples=9, threads=threads)
    marginal_effect(f, x, 0, 0.1)


@pytest.mark.parametrize("threads", [1, 3])
def test_a_plain_callable_sees_level_strings_on_every_path(threads):
    data = mixed_data()
    f, seen = recording(data)
    every_predicting_path(f, data, threads)
    assert len(seen) > 20
    for X in seen:
        assert X.dtype == object
        for row in X:
            assert [type(v) for v in row] == [float, str, float]
            assert row[1] in LEVELS


@pytest.mark.parametrize("threads", [1, 3])
def test_a_plain_callable_sees_float64_when_every_column_is_continuous(threads):
    rng = np.random.default_rng(4)
    columns = {name: np.round(rng.normal(size=10), 1) for name in ("x1", "x3", "x2")}
    data = Dataset.from_columns(columns, target=rng.normal(size=10))
    f, seen = recording(data)
    every_predicting_path(f, data, threads)
    assert seen and all(X.dtype == np.float64 for X in seen)


@pytest.mark.parametrize("fit", [fit_linear, lambda d: fit_knn(d, 3), fit_stump])
def test_a_reference_model_gives_the_same_bits_on_level_strings_and_codes(fit):
    data = mixed_data()
    model = fit(data)
    public = model(data.matrix())
    assert public.tobytes() == model(data.codes(), data.meta).tobytes()
    assert public.tobytes() == model._predict(data.codes()).tobytes()
    # Codes over the same levels in another order are re-encoded, not misread.
    other = [FeatureMeta(m.name, m.kind, m.levels and m.levels[::-1]) for m in data.meta]
    recoded = encode(data.matrix().T, other)
    assert np.array_equal(decode(recoded, other), data.matrix())
    assert public.tobytes() == model(recoded, other).tobytes()


@pytest.mark.parametrize("fit", [fit_linear, lambda d: fit_knn(d, 3), fit_stump])
def test_a_public_call_on_an_unregistered_level_raises(fit):
    data = mixed_data()
    rows = data.matrix().copy()
    rows[0, 1] = "z"
    with pytest.raises(InvalidLevelError, match="'z' is not a registered level of feature 'c'"):
        fit(data)(rows)


@pytest.mark.parametrize("fit", [fit_linear, fit_stump])
def test_a_remembered_schema_stands_for_itself_only(fit):
    """A ``meta`` whose levels match the model's is read as it is; any other,
    passed once or again, is decoded and encoded over the model's own levels,
    or rejected."""
    data = mixed_data()
    model = fit(data)
    assert model(data.codes(), data.meta).tobytes() == model(data.matrix()).tobytes()
    c = data.column("c")
    rows = data.matrix()[c != "b"]  # two of the three levels
    for levels in (("c", "a"), ("a", "c"), ("c", "b", "a"), ("b", "a", "c")):
        other = tuple(FeatureMeta(m.name, m.kind, levels if m.levels else None) for m in data.meta)
        codes = encode(rows.T, other)
        for _ in range(2):  # the second call with the same object
            assert model(codes, other).tobytes() == model(rows).tobytes(), levels
        assert model(data.codes(), data.meta).tobytes() == model(data.matrix()).tobytes()
    unknown = tuple(
        FeatureMeta(m.name, m.kind, LEVELS + ("z",) if m.levels else None) for m in data.meta
    )
    codes = data.codes().copy()
    codes[0, 1] = 3.0  # "z"
    for _ in range(2):
        with pytest.raises(InvalidLevelError, match="'z' is not a registered level of feature 'c'"):
            model(codes, unknown)
