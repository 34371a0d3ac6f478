"""ICE, PD, ALE, marginal effects, and the local surrogate."""

import numpy as np
import pytest

from boxprobe import (
    EffectCurve,
    ale_first_order,
    average_marginal_effect,
    custom_grid,
    default_step,
    equidistant_grid,
    ice_curves,
    lime_explain,
    make_rng,
    marginal_effect,
    observed_grid,
    pd_curve,
    sample_observations,
)
from boxprobe.effects import Grid, _ale_bins
from boxprobe.errors import (
    DegenerateBinningError,
    InvalidArgumentError,
    SingularFitError,
    UnsupportedKindError,
)
from boxprobe.trace import StageTrace

from conftest import columns_dataset, constant_predictor, handle, linear_predictor


def pd_oracle(scalar_fn, matrix, j, value):
    """Direct Monte Carlo integration with plain Python loops."""
    total = 0.0
    for row in matrix:
        r = list(row)
        r[j] = value
        total += scalar_fn(r)
    return total / len(matrix)


# -- grids ---------------------------------------------------------------------


def test_observed_grid_dedupes_and_sorts():
    data = columns_dataset(a=[3.0, 1.0, 3.0, 2.0])
    assert observed_grid(data, 0).points == (1.0, 2.0, 3.0)


def test_observed_grid_uses_levels():
    data = columns_dataset(c=["b", "a", "b"])
    assert observed_grid(data, 0).points == ("a", "b")


def test_equidistant_grid_spans_range():
    data = columns_dataset(a=[0.0, 10.0])
    assert equidistant_grid(data, 0, 3).points == (0.0, 5.0, 10.0)
    with pytest.raises(InvalidArgumentError):
        equidistant_grid(data, 0, 1)
    with pytest.raises(UnsupportedKindError):
        equidistant_grid(columns_dataset(c=["a", "b"]), 0, 3)


def test_custom_grid_validates_values():
    data = columns_dataset(c=["a", "b"])
    assert custom_grid(data, 0, ["a"]).points == ("a",)
    from boxprobe.errors import InvalidLevelError

    with pytest.raises(InvalidLevelError):
        custom_grid(data, 0, ["z"])
    with pytest.raises(InvalidArgumentError):
        Grid(0, (), "continuous", "custom")
    with pytest.raises(InvalidArgumentError):
        Grid(0, (2.0, 1.0), "continuous", "custom")


def test_effect_curve_validation():
    trace = StageTrace()
    with pytest.raises(InvalidArgumentError):
        EffectCurve("pd", 0, (1.0, 2.0), (1.0,), trace)
    with pytest.raises(InvalidArgumentError):
        EffectCurve("pd", 0, (2.0, 1.0), (1.0, 2.0), trace)
    with pytest.raises(InvalidArgumentError):
        EffectCurve("pd", 0, (1.0,), (float("nan"),), trace)
    with pytest.raises(InvalidArgumentError, match=r"^curve needs at least one point$"):
        EffectCurve("pd", 0, (), (), trace)


def test_effect_curve_normalizes_python_and_numpy_reals():
    trace = StageTrace()
    curve = EffectCurve("pd", 0, (True, 2, np.float64(2.5)), (np.float64(1.0), 2, 3.5), trace)
    assert curve.xs == (1.0, 2.0, 2.5) and curve.ys == (1.0, 2.0, 3.5)
    assert set(map(type, curve.xs + curve.ys)) == {float}
    # numpy integers are not Python ints: the grid values are kept as given.
    kept = EffectCurve("pd", 0, (np.int64(1), np.int64(2)), (0.0, 1.0), trace)
    assert set(map(type, kept.xs)) == {np.int64}


# -- ICE -----------------------------------------------------------------------


def test_ice_constant_predictor(two_feature_data):
    for curve in ice_curves(constant_predictor(4.5, 2), two_feature_data, 0):
        assert set(curve.ys) == {4.5}


def test_ice_hand_example(sum_predictor):
    data = columns_dataset(x1=[9.0, 9.0], x2=[0.0, 4.0])
    grid = custom_grid(data, 0, [0.0, 1.0])
    curves = ice_curves(sum_predictor, data, 0, grid=grid)
    assert curves[0].points == [(0.0, 0.0), (1.0, 1.0)]
    assert curves[1].points == [(0.0, 4.0), (1.0, 5.0)]
    assert curves[0].observation == 0 and curves[1].observation == 1


def test_ice_curves_of_additive_model_are_parallel():
    rng = np.random.default_rng(5)
    data = columns_dataset(x1=rng.normal(size=12), x2=rng.normal(size=12))

    def fn(X):
        X = np.asarray(X, dtype=float)
        return (2 * X[:, 0] ** 3 - X[:, 0]) + (X[:, 1] ** 2 + 3 * X[:, 1])

    curves = ice_curves(handle(fn, 2), data, 0)
    base = np.asarray(curves[0].ys)
    for curve in curves[1:]:
        diffs = np.asarray(curve.ys) - base
        assert np.max(diffs) - np.min(diffs) < 1e-12


def test_ice_anchoring_exact():
    rng = np.random.default_rng(6)
    data = columns_dataset(x1=rng.normal(size=8), x2=rng.normal(size=8))
    predictor = linear_predictor([1.7, -0.3], 0.4)
    direct = predictor(data.matrix())
    curves = ice_curves(predictor, data, 0)
    xs = np.asarray(curves[0].xs)
    for i, curve in enumerate(curves):
        g = data.column(0)[i]
        assert curve.ys[int(np.searchsorted(xs, g))] == direct[i]


def test_ice_keeps_signed_zero_grid_points_apart():
    data = columns_dataset(a=[1.0, 2.0])
    identity = handle(lambda X: np.asarray(X)[:, 0], 1)
    grid = custom_grid(data, 0, [-0.0, 0.0])
    for curve in ice_curves(identity, data, 0, grid=grid):
        assert [np.signbit(y) for y in curve.ys] == [True, False]


def test_ice_rejects_foreign_grid(two_feature_data, sum_predictor):
    grid = observed_grid(two_feature_data, 1)
    with pytest.raises(InvalidArgumentError):
        ice_curves(sum_predictor, two_feature_data, 0, grid=grid)


def test_ice_feature_set_cartesian(sum_predictor):
    data = columns_dataset(x1=[0.0, 1.0], x2=[10.0, 20.0])
    curves = ice_curves(sum_predictor, data, [0, 1])
    assert len(curves) == 2
    assert curves[0].feature == (0, 1)
    assert curves[0].xs == ((0.0, 10.0), (0.0, 20.0), (1.0, 10.0), (1.0, 20.0))
    # replacing both features leaves nothing observation-specific
    assert curves[0].ys == curves[1].ys == (10.0, 20.0, 11.0, 21.0)


# -- PD ------------------------------------------------------------------------


@pytest.mark.parametrize("estimator", [pd_curve, ice_curves], ids=["pd", "ice"])
def test_a_numpy_integer_names_one_feature(two_feature_data, sum_predictor, estimator):
    by_numpy = estimator(sum_predictor, two_feature_data, np.int64(1))
    assert by_numpy == estimator(sum_predictor, two_feature_data, 1)


def test_pd_hand_example_against_oracle(two_feature_data, sum_predictor):
    curve = pd_curve(sum_predictor, two_feature_data, 0)
    # direct averaging oracle at x1 = 1: 1 + mean(0, 2, 4) = 3
    expected = pd_oracle(lambda r: r[0] + r[1], two_feature_data.matrix().tolist(), 0, 1.0)
    assert expected == 3.0
    assert curve.ys[curve.xs.index(1.0)] == expected


def test_pd_is_mean_of_ice(two_feature_data):
    rng = np.random.default_rng(7)
    predictor = handle(
        lambda X: np.sin(np.asarray(X, dtype=float)[:, 0]) * np.asarray(X, dtype=float)[:, 1],
        2,
    )
    pd = pd_curve(predictor, two_feature_data, 0)
    ice = ice_curves(predictor, two_feature_data, 0)
    stacked = np.vstack([c.ys for c in ice])
    assert np.max(np.abs(stacked.mean(axis=0) - np.asarray(pd.ys))) < 1e-12


def test_pd_single_row_equals_single_ice():
    data = columns_dataset(x1=[2.0], x2=[3.0])
    predictor = linear_predictor([2.0, 1.0])
    pd = pd_curve(predictor, data, 0)
    (ice,) = ice_curves(predictor, data, 0)
    assert pd.ys == ice.ys


def test_pd_constant_predictor(two_feature_data):
    curve = pd_curve(constant_predictor(2.25, 2), two_feature_data, 0)
    assert set(curve.ys) == {2.25}


def test_pd_feature_set_cartesian_grid(sum_predictor):
    data = columns_dataset(x1=[0.0, 1.0], x2=[10.0, 20.0])
    curve = pd_curve(sum_predictor, data, [0, 1])
    assert curve.feature == (0, 1)
    assert curve.xs == ((0.0, 10.0), (0.0, 20.0), (1.0, 10.0), (1.0, 20.0))
    # S covers every feature: nothing to marginalize, values are f itself
    assert list(curve.ys) == [10.0, 20.0, 11.0, 21.0]
    given = pd_curve(sum_predictor, data, [0, 1], grid=[observed_grid(data, 0), observed_grid(data, 1)])
    assert (given.xs, given.ys) == (curve.xs, curve.ys)
    with pytest.raises(InvalidArgumentError, match=r"^feature set must not be empty$"):
        pd_curve(sum_predictor, data, [])


def test_pd_carries_sampling_provenance(two_feature_data, sum_predictor):
    sampled = sample_observations(two_feature_data, 2, seed=1)
    curve = pd_curve(sum_predictor, sampled, 0)
    assert curve.trace.stages() == ("sampling", "intervention", "prediction", "aggregation")
    assert curve.trace.records[0].parameters["seed"] == 1


# -- ALE -----------------------------------------------------------------------


def test_ale_constant_predictor_is_zero(two_feature_data):
    curve = ale_first_order(constant_predictor(3.0, 2), two_feature_data, 0, 2)
    assert set(curve.ys) == {0.0}


def test_ale_hand_example():
    # f = 3 x1 + x2 over x1 = (0, 1, 2), K = 2: FDs are 3 in both intervals,
    # accumulated (0, 3, 6), data-weighted center (3 + 3 + 6) / 3 = 4.
    data = columns_dataset(x1=[0.0, 1.0, 2.0], x2=[5.0, 5.0, 5.0])
    predictor = linear_predictor([3.0, 1.0])
    curve = ale_first_order(predictor, data, 0, 2)
    assert curve.xs == (0.0, 1.0, 2.0)
    assert list(curve.ys) == [-4.0, -1.0, 2.0]


def test_ale_recovers_additive_component_under_correlation():
    rng = np.random.default_rng(11)
    x1 = rng.normal(size=60)
    x2 = 0.9 * x1 + np.sqrt(1 - 0.81) * rng.normal(size=60)
    data = columns_dataset(x1=x1, x2=x2)

    def g1(v):
        return v**3 - 2.0 * v

    def fn(X):
        X = np.asarray(X, dtype=float)
        return g1(X[:, 0]) + np.exp(X[:, 1] / 2.0)

    curve = ale_first_order(handle(fn, 2), data, 0, 6)
    offsets = np.asarray(curve.ys) - g1(np.asarray(curve.xs))
    assert np.max(offsets) - np.min(offsets) < 1e-10


def test_ale_merges_sparse_intervals():
    data = columns_dataset(x1=[0.0, 1.0, 2.0], x2=[0.0, 0.0, 0.0])
    curve = ale_first_order(linear_predictor([1.0, 0.0]), data, 0, 7)
    assert len(curve.xs) <= 8
    assert curve.xs[0] == 0.0 and curve.xs[-1] == 2.0


def _ale_bins_by_merging(column, num_intervals):
    """The loop that ``_ale_bins`` replaced: merge the first empty interval into
    its left neighbour (the leftmost into its right), reassign, repeat."""
    edges = np.unique(np.quantile(column, np.linspace(0.0, 1.0, num_intervals + 1)))

    def assign(e):
        return np.clip(np.searchsorted(e, column, side="left") - 1, 0, len(e) - 2)

    idx = assign(edges)
    while (counts := np.bincount(idx, minlength=len(edges) - 1)).min() == 0:
        k = int(np.flatnonzero(counts == 0)[0])
        edges = np.delete(edges, k if k > 0 else 1)
        idx = assign(edges)
    return edges, idx


def test_ale_bins_merge_as_the_merging_loop_did():
    """Tied columns leave empty quantile intervals; one pass merges them as the loop did."""
    rng = np.random.default_rng(2020)
    compared = merged = 0
    for i in range(2400):
        n = int(rng.integers(2, 60))
        column = [
            rng.integers(0, rng.integers(2, 6), n).astype(float),  # 2 to 5 values
            np.round(rng.exponential(size=n), 1),
            np.where(rng.random(n) < 0.6, 0.0, np.round(rng.normal(size=n), 2)),  # zero-inflated
        ][i % 3]
        num_intervals = int(rng.integers(1, 25))
        if np.unique(column).size < 2:
            continue
        edges, idx = _ale_bins(column, num_intervals)
        want_edges, want_idx = _ale_bins_by_merging(column, num_intervals)
        assert edges.tobytes() == want_edges.tobytes() and idx.tolist() == want_idx.tolist()
        assert (np.bincount(idx) > 0).all()
        compared += 1
        merged += len(edges) < np.unique(np.quantile(column, np.linspace(0, 1, num_intervals + 1))).size
    assert compared >= 2000 and merged >= 500


def test_ale_errors():
    data = columns_dataset(x1=[1.0, 2.0], c=["a", "b"])
    predictor = handle(lambda X: np.asarray(X[:, 0], dtype=float), 2)
    with pytest.raises(InvalidArgumentError):
        ale_first_order(predictor, data, 0, 0)
    with pytest.raises(UnsupportedKindError):
        ale_first_order(predictor, data, 1, 2)
    flat = columns_dataset(x1=[3.0, 3.0], x2=[1.0, 2.0])
    with pytest.raises(DegenerateBinningError):
        ale_first_order(linear_predictor([1.0, 0.0]), flat, 0, 2)


# -- marginal effects ----------------------------------------------------------


def test_me_affine(sum_predictor):
    predictor = linear_predictor([2.0, 1.0])
    assert abs(marginal_effect(predictor, [3.0, 1.0], 0, 0.25) - 2.0) < 1e-12


def test_me_quadratic_hand_example():
    predictor = handle(lambda X: np.asarray(X, dtype=float)[:, 0] ** 2, 1)
    assert marginal_effect(predictor, [3.0], 0, 1.0) == 6.0


def test_me_rejects_nonpositive_h(sum_predictor):
    with pytest.raises(InvalidArgumentError):
        marginal_effect(sum_predictor, [1.0, 2.0], 0, 0.0)


def test_ame_affine_is_coefficient(two_feature_data):
    predictor = linear_predictor([2.0, 1.0])
    assert abs(average_marginal_effect(predictor, two_feature_data, 0).value - 2.0) < 1e-12


def test_ame_quadratic_hand_example():
    # quotients are exactly (0, 2, 4) for dyadic h, mean 2
    data = columns_dataset(x1=[0.0, 1.0, 2.0])
    predictor = handle(lambda X: np.asarray(X, dtype=float)[:, 0] ** 2, 1)
    assert average_marginal_effect(predictor, data, 0, h=0.5).value == 2.0


def test_ame_constant_predictor_is_zero(two_feature_data):
    assert average_marginal_effect(constant_predictor(9.0, 2), two_feature_data, 0).value == 0.0


def test_ame_returns_its_step_and_trace(two_feature_data):
    result = average_marginal_effect(linear_predictor([2.0, 1.0]), two_feature_data, "x2")
    assert result.feature == 1 and abs(result.value - 1.0) < 1e-9
    assert result.h == default_step(two_feature_data, 1)
    assert result.trace.stages() == ("intervention", "prediction", "aggregation")
    shift, prediction, aggregation = result.trace.records
    assert shift.parameters == {"feature": "x2", "h": result.h}
    assert (prediction.parameters["batches"], prediction.parameters["rows"]) == (2, 6)
    assert aggregation.parameters == {"h": result.h}


@pytest.mark.parametrize("value", [5.0, -5.0])
def test_the_default_step_of_a_constant_column_scales_with_its_magnitude(value):
    """A zero range falls back to the column's magnitude when it exceeds 1."""
    data = columns_dataset(x1=[value] * 3, x2=[0.0, 1.0, 2.0])
    assert default_step(data, 0) == 5e-4
    result = average_marginal_effect(linear_predictor([2.0, 1.0]), data, "x1")
    shift, _, aggregation = result.trace.records
    assert result.h == shift.parameters["h"] == aggregation.parameters["h"] == 5e-4


def test_ame_shift_that_overflows_is_rejected():
    data = columns_dataset(x1=[1e308, 0.0, 1.0])
    predictor = handle(lambda X: np.asarray(X, dtype=float)[:, 0], 1)
    with np.errstate(over="ignore"), pytest.raises(InvalidArgumentError, match="non-finite"):
        average_marginal_effect(predictor, data, 0, h=1e308)


def test_ame_past_the_float_range_is_rejected():
    data = columns_dataset(x1=[0.0, 2.0, 4.0])
    predictor = handle(lambda X: 1.7e308 * np.sign(np.asarray(X, dtype=float)[:, 0] - 2.0), 1)
    with np.errstate(over="ignore"), pytest.raises(InvalidArgumentError, match="must be finite"):
        average_marginal_effect(predictor, data, 0, h=0.5)  # row 1's quotient is inf


def test_ame_rejects_categorical():
    data = columns_dataset(c=["a", "b"], x=[1.0, 2.0])
    with pytest.raises(UnsupportedKindError):
        average_marginal_effect(constant_predictor(1.0, 2), data, 0)


# -- LIME ----------------------------------------------------------------------


def test_lime_constant_predictor(two_feature_data):
    result = lime_explain(constant_predictor(5.0, 2), two_feature_data, (1.0, 2.0), 0, seed=1)
    assert abs(result.slope) < 1e-10
    assert abs(result.intercept - 5.0) < 1e-10


def test_lime_recovers_affine_coefficient(two_feature_data):
    predictor = linear_predictor([4.0, 1.0], -2.0)
    result = lime_explain(predictor, two_feature_data, (1.0, 2.0), 0, num_samples=40, seed=3)
    assert abs(result.slope - 4.0) < 1e-8


def test_lime_matches_weighted_least_squares_oracle():
    # Closed-form WLS slope computed from the documented perturbation recipe.
    data = columns_dataset(x1=[0.0, 1.0, 2.0, 3.0], x2=[1.0, 1.0, 2.0, 2.0])
    predictor = handle(
        lambda X: np.asarray(X, dtype=float)[:, 0] ** 2
        + np.asarray(X, dtype=float)[:, 1],
        2,
    )
    x, j, seed, m = (1.5, 1.0), 0, 17, 60
    result = lime_explain(predictor, data, x, j, num_samples=m, seed=seed)

    sd = float(np.std(data.column(0), ddof=1))
    perturbed = x[j] + sd * make_rng(seed).standard_normal(m)
    w = np.exp(-((perturbed - x[j]) ** 2) / result.kernel_width**2)
    preds = perturbed**2 + x[1]
    xm = np.sum(w * perturbed) / np.sum(w)
    ym = np.sum(w * preds) / np.sum(w)
    slope = np.sum(w * (perturbed - xm) * (preds - ym)) / np.sum(w * (perturbed - xm) ** 2)
    assert abs(result.slope - slope) < 1e-8
    assert abs(result.intercept - (ym - slope * xm)) < 1e-8


def test_lime_determinism(two_feature_data, sum_predictor):
    a = lime_explain(sum_predictor, two_feature_data, (1.0, 2.0), 0, seed=9)
    b = lime_explain(sum_predictor, two_feature_data, (1.0, 2.0), 0, seed=9)
    assert a.slope == b.slope and a.intercept == b.intercept


def test_lime_errors(two_feature_data, sum_predictor):
    with pytest.raises(InvalidArgumentError):
        lime_explain(sum_predictor, two_feature_data, (1.0, 2.0), 0, num_samples=0)
    with pytest.raises(InvalidArgumentError):
        lime_explain(sum_predictor, two_feature_data, (1.0, 2.0), 0, kernel_width=0.0)
    flat = columns_dataset(x1=[2.0, 2.0], x2=[0.0, 1.0])
    with pytest.raises(SingularFitError):
        lime_explain(sum_predictor, flat, (2.0, 0.0), 0)
    # Far from the column, a perturbation of one sample sd is below one ulp.
    with pytest.raises(SingularFitError, match=r"^all perturbed values coincide; surrogate line is undetermined$"):
        lime_explain(constant_predictor(1.0, 2), two_feature_data, (1e300, 2.0), 0)
    # A kernel this narrow weighs every perturbed point at exactly 0.
    with pytest.raises(SingularFitError, match=r"^weighted design is rank deficient$"):
        lime_explain(constant_predictor(1.0, 2), two_feature_data, (1.0, 2.0), 0, kernel_width=1e-150)
    cat = columns_dataset(c=["a", "b"], x=[0.0, 1.0])
    with pytest.raises(UnsupportedKindError):
        lime_explain(constant_predictor(1.0, 2), cat, ("a", 0.0), 0)


def test_lime_trace_records_seed(two_feature_data, sum_predictor):
    result = lime_explain(sum_predictor, two_feature_data, (1.0, 2.0), 0, seed=21)
    assert result.trace.stages() == ("intervention", "prediction", "aggregation")
    assert result.trace.records[0].parameters["seed"] == 21
