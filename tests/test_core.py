"""Stage primitives: sampling, interventions, prediction, finite differences."""

import warnings

import numpy as np
import pytest

from boxprobe import (
    LossFunction,
    PredictionCache,
    fit_knn,
    fit_linear,
    estimate_generalization_error,
    finite_difference,
    intervene_permute,
    intervene_replace,
    intervene_shift,
    lime_explain,
    make_rng,
    pfi_permutation,
    predict_batch,
    sample_observations,
    shapley_mc,
    pi_curve,
    squared_loss,
    absolute_loss,
    zero_one_loss,
    loss_by_name,
)
from boxprobe.errors import (
    InvalidArgumentError,
    InvalidLevelError,
    MissingTargetError,
    ShapeError,
    UnsupportedKindError,
)
from boxprobe.core import spawn_seeds
from boxprobe.data import encode
from boxprobe.trace import StageTrace, StageRecord, assemble_trace

from conftest import columns_dataset, constant_predictor, handle, linear_predictor


def rows_multiset(data):
    return sorted(map(tuple, data.matrix().tolist()))


# -- sampling ----------------------------------------------------------------


def test_sample_full_size_is_row_identical(two_feature_data):
    sampled = sample_observations(two_feature_data, 3, seed=7)
    assert rows_multiset(sampled) == rows_multiset(two_feature_data)


def test_sample_bounds():
    data = columns_dataset(a=[1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(InvalidArgumentError, match="m exceeds n"):
        sample_observations(data, 6, seed=1)
    with pytest.raises(InvalidArgumentError, match="at least 1"):
        sample_observations(data, 0, seed=1)


def test_sample_deterministic_given_seed():
    data = columns_dataset(a=list(map(float, range(10))), target=list(map(float, range(10))))
    a = sample_observations(data, 3, seed=42)
    b = sample_observations(data, 3, seed=42)
    assert np.array_equal(a.matrix(), b.matrix())
    assert np.array_equal(a.target, b.target)


def test_sample_keeps_target_aligned():
    data = columns_dataset(a=[10.0, 20.0, 30.0], target=[1.0, 2.0, 3.0])
    sampled = sample_observations(data, 2, seed=3)
    assert list(sampled.target) == [v / 10.0 for v in sampled.column(0)]


def test_sample_records_seed_in_provenance():
    data = columns_dataset(a=[1.0, 2.0])
    sampled = sample_observations(data, 1, seed=9)
    (record,) = sampled.provenance
    assert record.stage == "sampling"
    assert record.parameters["seed"] == 9
    assert record.parameters["m"] == 1


# -- replace -----------------------------------------------------------------


def test_replace_sets_constant_column():
    data = columns_dataset(a=[1.0, 2.0], b=[10.0, 20.0])
    out = intervene_replace(data, {0: 5.0})
    assert out.matrix().tolist() == [[5.0, 10.0], [5.0, 20.0]]
    # original untouched
    assert data.matrix().tolist() == [[1.0, 10.0], [2.0, 20.0]]


def test_replace_empty_set_is_identity(two_feature_data):
    assert intervene_replace(two_feature_data, {}) is two_feature_data


def test_replace_invalid_level():
    data = columns_dataset(c=["a", "b"])
    with pytest.raises(InvalidLevelError, match="'c'"):
        intervene_replace(data, {0: "c"})


def test_replace_accepts_names():
    data = columns_dataset(a=[1.0], b=[2.0])
    out = intervene_replace(data, {"b": 9.0})
    assert out.matrix().tolist() == [[1.0, 9.0]]


# -- permute -----------------------------------------------------------------


def test_permute_single_row_unchanged():
    data = columns_dataset(a=[1.0])
    assert intervene_permute(data, 0, seed=5).matrix().tolist() == [[1.0]]


def test_permute_preserves_multiset_over_many_seeds():
    data = columns_dataset(a=list(map(float, range(10))))
    original = sorted(data.column(0))
    for seed in range(120):
        permuted = intervene_permute(data, 0, seed)
        assert sorted(permuted.column(0)) == original


def test_permute_matches_seeded_generator_enumeration():
    # Oracle: the documented generator decides which of the two permutations
    # of a 2-row column is applied; both must occur over a seed range.
    data = columns_dataset(a=[0.0, 2.0])
    seen = set()
    for seed in range(20):
        expected = [0.0, 2.0] if list(make_rng(seed).permutation(2)) == [0, 1] else [2.0, 0.0]
        got = list(intervene_permute(data, 0, seed).column(0))
        assert got == expected
        seen.add(tuple(got))
    assert seen == {(0.0, 2.0), (2.0, 0.0)}


def test_permute_leaves_other_columns_and_target():
    data = columns_dataset(a=[1.0, 2.0, 3.0], b=[4.0, 5.0, 6.0], target=[7.0, 8.0, 9.0])
    out = intervene_permute(data, 0, seed=11)
    assert list(out.column(1)) == [4.0, 5.0, 6.0]
    assert list(out.target) == [7.0, 8.0, 9.0]


# -- shift -------------------------------------------------------------------


def test_shift_zero_is_identity():
    data = columns_dataset(a=[1.0, 2.0])
    assert list(intervene_shift(data, 0, 0.0).column(0)) == [1.0, 2.0]


def test_shift_adds_delta_and_may_extrapolate():
    data = columns_dataset(a=[1.0, 2.0])
    out = intervene_shift(data, 0, 0.5)
    assert list(out.column(0)) == [1.5, 2.5]
    assert max(out.column(0)) > data.meta[0].observed_range[1]


def test_shift_past_the_float_range_raises_without_a_numpy_warning():
    data = columns_dataset(a=[1e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgumentError, match=r"feature 'a' by 1e\+308 overflows"):
            intervene_shift(data, 0, 1e308)


def test_shift_rejects_categorical():
    data = columns_dataset(c=["a", "b"])
    with pytest.raises(UnsupportedKindError):
        intervene_shift(data, 0, 1.0)


# -- predict_batch -----------------------------------------------------------


def test_predict_constant_model():
    data = columns_dataset(a=[1.0, 2.0, 3.0, 4.0])
    assert predict_batch(constant_predictor(3.0, 1), data).tolist() == [3.0] * 4


def test_predict_linear_model(sum_predictor):
    data = columns_dataset(a=[1.0, 0.0], b=[2.0, 0.0])
    assert predict_batch(sum_predictor, data).tolist() == [3.0, 0.0]


def test_predict_shape_mismatch(sum_predictor):
    data = columns_dataset(a=[1.0], b=[2.0], c=[3.0])
    with pytest.raises(ShapeError, match="expects 2"):
        predict_batch(sum_predictor, data)
    predictor = linear_predictor([1.0, 1.0])
    with pytest.raises(ShapeError, match=r"^expected a 2-D feature matrix, got ndim=1$"):
        predictor(np.zeros(2))
    with pytest.raises(ShapeError, match=r"^predictor 'linear' expects 2 features, got 3$"):
        predictor(np.zeros((1, 3)))


def test_batch_equals_row_wise_predictions():
    rng = np.random.default_rng(0)
    data = columns_dataset(a=rng.normal(size=9), b=rng.normal(size=9))
    predictor = linear_predictor([2.0, -1.0], 0.5)
    batch = predict_batch(predictor, data)
    for i in range(data.n_rows):
        single = data.replace_columns(((), np.empty((1, 0))), row_subset=np.array([i]))
        assert predict_batch(predictor, single)[0] == batch[i]


def test_prediction_cache_reuses_results():
    """A PI run predicts each distinct substituted row once but traces the logical counts."""
    seen = []

    def fn(X):
        seen.append(np.array(X))
        return np.asarray(X) @ np.array([1.0, -2.0])

    data = columns_dataset(a=[1.0, 2.0, 2.0, 3.0, 3.0, 3.0], b=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0], target=[0.0] * 6)
    curve = pi_curve(handle(fn, 2), data, "a", squared_loss())
    base, substituted = seen[0], np.vstack(seen[1:])
    assert np.array_equal(base, data.matrix())
    assert len(seen) == 1 + 3  # the intact data, then one batch per distinct value
    assert len({tuple(r) for r in substituted.tolist()}) == len(substituted) == 3 * 6
    assert curve.xs == (1.0, 2.0, 2.0, 3.0, 3.0, 3.0)
    assert curve.ys[1] == curve.ys[2] and curve.ys[3] == curve.ys[5]
    record = next(r for r in curve.trace.records if r.stage == "prediction")
    assert (record.parameters["batches"], record.parameters["rows"]) == (1 + 6, 6 + 6 * 6)


def test_kernel_patches_a_column_at_chosen_rows():
    data = columns_dataset(a=[1.0, 2.0, 3.0, 4.0], b=[0.5, 1.0, 1.5, 2.0])
    predictor = linear_predictor([1.0, -2.0])
    cache = PredictionCache()
    plan = [(["a"], [[[10.0, 20.0]]]), (["a"], [[7.0]]), ([0], [[[7.0, 7.0]]])]
    preds = cache.substitute(predictor, data, plan, rows=[3, 1])
    assert preds.tolist() == [[10.0 - 4.0, 20.0 - 2.0], [3.0, 5.0], [3.0, 5.0]]
    assert (cache.batches, cache.rows) == (3, 6)
    with pytest.raises(InvalidArgumentError, match="3 values for 2 rows"):
        cache.substitute(predictor, data, [(["a"], [[[1.0, 2.0, 3.0]]])], rows=[0, 1])
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        cache.substitute(predictor, data, [(["a"], [[[1.0, np.inf, 3.0, 4.0]]])])


@pytest.mark.parametrize("rows", [[1.7], [True], [-1], [3], np.array([0.0]), [[1]]], ids=repr)
def test_the_kernels_rows_follow_the_integer_rule(rows):
    """Rows are integer indices of the data: no float, bool, negative or
    past-the-end index, and one list of them."""
    data = columns_dataset(a=[1.0, 2.0, 3.0])
    seen = []
    predictor = handle(lambda X: seen.append(len(X)) or np.zeros(len(X)), 1)
    with pytest.raises(InvalidArgumentError, match="rows must be integers from 0 to 2"):
        PredictionCache().substitute(predictor, data, [([], [[]])], rows=rows)
    assert seen == []
    numpy_rows = PredictionCache().substitute(linear_predictor([1.0]), data, [([], [[]])], rows=np.uint8([2, 0]))
    assert numpy_rows.tolist() == [[3.0, 1.0]]
    no_rows = PredictionCache().substitute(predictor, data, [([], [[]]), (["a"], [[1.0]])], rows=[])
    assert no_rows.shape == (2, 0) and seen == []


def _user_matrix(kind, value):
    """A fitted reference model called on a user matrix whose continuous 'a' is ``value``."""
    data = columns_dataset(a=[1.0, 2.0, 3.0], b=["u", "v", "u"], target=[1.0, 2.0, 0.0])
    model = fit_knn(data, 1) if kind == "knn" else fit_linear(data)
    return lambda: model(np.array([[value, "u"]], dtype=object))


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=repr)
def test_a_non_finite_substituted_value_names_the_feature_and_the_value(value):
    data = columns_dataset(a=[1.0, 2.0], b=[0.5, 1.0])
    predictor = linear_predictor([1.0, -2.0])

    def copy(codes):
        return lambda: PredictionCache().substitute(predictor, data, [(["a"], [[codes]])])

    ways = {
        "intervene_replace": lambda: intervene_replace(data, {"a": value}),
        "replace_columns": lambda: data.replace_columns((["a"], [[[1.0, value]]])),
        "scalar code": copy(value),
        "per-row codes": copy(np.array([1.0, value])),
        "knn model on a user matrix": _user_matrix("knn", value),
        "linear model on a user matrix": _user_matrix("linear", value),
        "construction": lambda: columns_dataset(a=[1.0, value], b=[0.5, 1.0]),
    }
    for way, attempt in ways.items():
        with pytest.raises(InvalidArgumentError) as raised:
            attempt()
        assert str(raised.value) == (
            f"feature 'a' got the non-finite value {value!r}; its values must be finite"
        ), way


def _rejects(attempt):
    try:
        attempt()
    except UnsupportedKindError:
        return True
    return False


@pytest.mark.parametrize("value", ["1.5", True, np.bool_(False), np.str_("2")], ids=repr)
def test_a_continuous_value_follows_one_rule_however_it_arrives(value):
    """A string or a bool is no continuous value, as a scalar or inside an array."""
    data = columns_dataset(a=[1.0, 2.0], b=[0.5, 1.0])
    predictor = linear_predictor([1.0, -2.0])

    def copy(codes):
        return lambda: PredictionCache().substitute(predictor, data, [(["a"], [[codes]])])

    ways = {
        "check_value": lambda: data.check_value(0, value),
        "encode": lambda: encode([[1.0, value]], data.meta[:1]),
        "intervene_replace": lambda: intervene_replace(data, {"a": value}),
        "replace_columns": lambda: data.replace_columns((["a"], [[[value, 1.0]]])),
        "scalar code": copy(value),
        "object per-row codes": copy(np.array([1.0, value], dtype=object)),
        "typed per-row codes": copy(np.array([value, value])),
        "knn model on a user matrix": _user_matrix("knn", value),
        "linear model on a user matrix": _user_matrix("linear", value),
    }
    assert {way: _rejects(attempt) for way, attempt in ways.items()} == dict.fromkeys(ways, True)


@pytest.mark.parametrize("value", [2, np.int64(2), np.uint8(2), np.float32(2.0)], ids=repr)
def test_any_real_number_is_a_continuous_value(value):
    data = columns_dataset(a=[1.0, 3.0], b=[0.5, 1.0])
    predictor = linear_predictor([1.0, -2.0])
    assert data.check_value(0, value) == 2.0 and type(data.check_value(0, value)) is float
    scalar, array = PredictionCache().substitute(
        predictor, data, [(["a"], [[value]]), (["a"], [[np.array([value, value])]])]
    )
    assert scalar.tolist() == array.tolist() == [2.0 - 1.0, 2.0 - 2.0]


@pytest.mark.parametrize(
    "group", [([0, "a"], [[1.0, 2.0]]), (["b", 1, "a"], [[1.0, 2.0, 3.0]])], ids=["index and name", "name and index"]
)
def test_a_patch_names_each_feature_once(group):
    data = columns_dataset(a=[1.0, 2.0], b=[0.5, 1.0])
    seen = []
    predictor = handle(lambda X: seen.append(len(X)) or np.zeros(len(X)), 2)
    with pytest.raises(InvalidArgumentError, match="names a feature twice"):
        PredictionCache().substitute(predictor, data, [(["a"], [[0.0]]), group])
    assert seen == []


@pytest.mark.parametrize("feature", ["z", 2, -1], ids=repr)
def test_a_patch_names_only_known_features(feature):
    data = columns_dataset(a=[1.0, 2.0], b=[0.5, 1.0])
    predictor = linear_predictor([1.0, -2.0])
    with pytest.raises(InvalidArgumentError, match="unknown feature|out of range"):
        PredictionCache().substitute(predictor, data, [([], [[]]), (["a", feature], [[1.0, 1.0]])])


@pytest.mark.parametrize(
    "plan",
    [[{"a": 1.0}], [{"a": 1.0, "b": 2.0}], [(["a", "b"], [[1.0, np.array([1.0, 2.0])]])], [(["a"],)], [5.0]],
    ids=["mapping", "two-feature mapping", "a per-copy code beside per-row codes", "no codes", "a number"],
)
def test_a_plan_is_groups_of_features_and_codes(plan):
    data = columns_dataset(a=[1.0, 2.0], b=[0.5, 1.0])
    seen = []
    predictor = handle(lambda X: seen.append(len(X)) or np.zeros(len(X)), 2)
    with pytest.raises(InvalidArgumentError, match=r"a plan group is \(features, codes\)"):
        PredictionCache().substitute(predictor, data, plan)
    assert seen == []


@pytest.mark.parametrize("code", ["u", True, 0.5, 2.0, -1.0], ids=repr)
def test_a_categorical_code_is_a_level_index(code):
    """A level index is an integral number, in any real dtype or in an object
    array, which is read as the list of its values; a level string, a bool, a
    fraction or an index past the levels is not."""
    data = columns_dataset(a=[1.0, 2.0], c=["u", "v"])
    predictor = handle(lambda X: (np.asarray(X)[:, 1] == "v").astype(float), 2)
    plan = [(["c"], np.array([[0.0], [1]], dtype=object)), (["c"], np.uint8([[1]])), (["c"], [[0.0]])]
    preds = PredictionCache().substitute(predictor, data, plan)
    assert preds.tolist() == [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]
    for codes in ([[code]], np.array([[code]], dtype=object)):
        with pytest.raises(InvalidArgumentError) as raised:
            PredictionCache().substitute(predictor, data, [(["c"], codes)])
        assert str(raised.value) == f"feature 'c' takes level codes, integers from 0 to 1; got {code!r}"


@pytest.mark.parametrize("shape", ["per copy", "per row"])
@pytest.mark.parametrize(
    "feature, value, error",
    [("a", True, UnsupportedKindError), ("a", "x", UnsupportedKindError),
     ("c", True, InvalidArgumentError), ("c", "x", InvalidArgumentError)],
    ids=["continuous bool", "continuous string", "categorical bool", "categorical string"],
)
def test_a_plans_values_are_checked_before_numpy_promotes_them(feature, value, error, shape):
    """A bool or a string in a list beside a valid code is rejected under its own
    name: numpy alone reads [0.0, True] as [0.0, 1.0] and [0.0, "x"] as strings."""
    data = columns_dataset(a=[1.0, 2.0], c=["u", "v"])
    seen = []
    predictor = handle(lambda X: seen.append(len(X)) or np.zeros(len(X)), 2)
    codes = [[0.0], [value]] if shape == "per copy" else [[[0.0, value]]]
    with pytest.raises(error) as raised:
        PredictionCache().substitute(predictor, data, [([feature], codes)])
    assert str(raised.value).endswith(repr(value)) and seen == []


@pytest.mark.parametrize("copies", [0, True, 1.5, np.float64(2.0)], ids=repr)
def test_copies_follow_the_integer_rule(copies):
    predictor = linear_predictor([1.0, -2.0])
    with pytest.raises(InvalidArgumentError, match="copies"):
        predictor(np.zeros((4, 2)), copies=copies)


def test_copies_must_split_the_rows_evenly():
    seen = []
    predictor = handle(lambda X: seen.append(len(X)) or np.zeros(len(X)), 2)
    with pytest.raises(ShapeError, match="5 rows do not split into 2 equal copies"):
        predictor(np.zeros((5, 2)), copies=2)
    assert seen == []
    assert predictor(np.zeros((6, 2)), copies=3).tolist() == [0.0] * 6 and seen == [2, 2, 2]


def test_a_copy_that_returns_the_wrong_length_is_caught_even_if_the_total_fits():
    lengths = iter([3, 1])
    predictor = handle(lambda X: np.zeros(next(lengths)), 1)
    with pytest.raises(ShapeError, match="returned 3 predictions for 2 rows"):
        predictor(np.zeros((4, 1)), copies=2)


def test_repeated_unchanged_data_is_predicted_once_per_call():
    seen = []
    predictor = handle(lambda X: seen.append(len(X)) or np.asarray(X) @ np.array([1.0, 1.0]), 2)
    data = columns_dataset(a=[1.0, 2.0, 3.0], b=[0.0, 1.0, 0.0])
    cache = PredictionCache()
    first, patched, again = cache.substitute(predictor, data, [([], [[]]), (["b"], [[1.0]]), ([], [[]])])
    assert first.tolist() == again.tolist() == [1.0, 3.0, 3.0] and patched.tolist() == [2.0, 3.0, 4.0]
    assert seen == [3, 3] and (cache.batches, cache.rows) == (3, 9)
    cache.substitute(predictor, data, [([], [[]])])  # a new call predicts the data anew
    assert seen == [3, 3, 3]


def test_the_predictor_boundary_needs_one_schema_entry_per_feature():
    """A schema of another length must not be zipped short against the columns."""
    data = columns_dataset(a=[0.0, 1.0, 2.0, 3.0], c=["u", "v", "u", "v"], target=[1.0, 2.0, 4.0, 3.0])
    seen = []
    plain = handle(lambda X: seen.append(X) or np.zeros(len(X)), 2)
    for predictor in (fit_linear(data), plain):
        for meta in (data.meta[:1], (*data.meta, data.meta[0])):
            with pytest.raises(ShapeError, match=f"expects 2 features, got {len(meta)} schema entries"):
                predictor(data.codes(), meta)
    assert seen == []
    assert plain(data.codes(), data.meta).tolist() == [0.0] * 4 and seen[0][:, 1].tolist() == ["u", "v", "u", "v"]


def test_threaded_prediction_matches_sequential():
    rng = np.random.default_rng(1)
    data = columns_dataset(a=rng.normal(size=64), b=rng.normal(size=64))
    predictor = linear_predictor([1.5, -2.0], 0.25)
    sequential = predict_batch(predictor, data)
    threaded = PredictionCache(threads=8).predict(predictor, data.matrix())
    assert np.array_equal(sequential, threaded)


def test_worker_count_is_bounded_by_cpus_and_rows(monkeypatch):
    """A pool has at most one worker per usable CPU, and starts only for a copy of at least two rows per thread."""
    from boxprobe import core

    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert core._worker_count(10**9) == 4
    assert core._worker_count(3) == 3
    pools = []
    executor = core.ThreadPoolExecutor
    monkeypatch.setattr(core, "ThreadPoolExecutor", lambda max_workers: pools.append(max_workers) or executor(max_workers))
    predictor = linear_predictor([1.0])
    for threads in (4, 3):  # 7 rows: below 2 * 4, then enough for 3 threads
        assert core._run_predictor(predictor, np.arange(7.0)[:, None], threads, None).tolist() == list(range(7))
    assert pools == [3]
    monkeypatch.delattr(core.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(core.os, "cpu_count", lambda: None)
    assert core._worker_count(10**9) == 1


def test_predictor_output_validation():
    bad_length = handle(lambda X: np.zeros(np.asarray(X).shape[0] + 1), 1)
    with pytest.raises(ShapeError, match="returned"):
        predict_batch(bad_length, columns_dataset(a=[1.0]))
    non_finite = handle(lambda X: np.full(np.asarray(X).shape[0], np.nan), 1)
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        predict_batch(non_finite, columns_dataset(a=[1.0]))


# -- finite differences ------------------------------------------------------


def test_fd_exact_for_affine_any_h():
    # Cancellation scales with ulp(prediction)/h, so tiny h needs predictions
    # near zero around the point; larger h tolerates any affine predictor.
    for a in (2.0, -3.25, 0.5):
        predictor = linear_predictor([a])
        for h in (1e-6, 1e-2, 1.0, 17.5):
            fd, quotient = finite_difference(predictor, [0.0], 0, h)
            assert abs(quotient - a) < 1e-12
            assert abs(fd - a * 2 * h) < 1e-12 * max(1.0, h)
    predictor = linear_predictor([2.0], 1.0)
    for h in (1e-2, 1.0, 17.5):
        _, quotient = finite_difference(predictor, [5.0], 0, h)
        assert abs(quotient - 2.0) < 1e-12


def test_fd_hand_example_quadratic():
    predictor = handle(lambda X: np.asarray(X, dtype=float)[:, 0] ** 2, 1, name="sq")
    fd, quotient = finite_difference(predictor, [3.0], 0, 1.0)
    assert fd == 16.0 - 4.0
    assert quotient == 6.0


def test_fd_rejects_bad_h(sum_predictor):
    with pytest.raises(InvalidArgumentError):
        finite_difference(sum_predictor, [1.0, 2.0], 0, 0.0)
    with pytest.raises(InvalidArgumentError):
        finite_difference(sum_predictor, [1.0, 2.0], 0, -1.0)


def test_fd_rejects_a_vector_of_the_wrong_length(sum_predictor):
    with pytest.raises(ShapeError, match=r"^feature vector has 1 entries, predictor expects 2$"):
        finite_difference(sum_predictor, [1.0], 0, 0.1)


def test_fd_rejects_categorical_coordinate():
    predictor = handle(lambda X: np.ones(np.asarray(X).shape[0]), 2)
    with pytest.raises(UnsupportedKindError):
        finite_difference(predictor, [1.0, "a"], 1, 0.1)


def test_fd_past_the_float_range_is_rejected():
    predictor = linear_predictor([1e308])
    with pytest.raises(InvalidArgumentError, match="marginal effects must be finite, got inf"):
        finite_difference(predictor, [0.0], 0, 1.5)


def test_fd_linear_in_the_predictor():
    f = linear_predictor([3.0], -1.0)
    g = handle(lambda X: np.asarray(X, dtype=float)[:, 0] ** 2, 1)
    a, b = 2.5, -1.25

    def combo(X):
        return a * f(np.asarray(X)) + b * g(np.asarray(X))

    combined = handle(combo, 1)
    for x, h in ((0.7, 0.3), (-2.0, 1.0), (4.0, 1e-3)):
        fd_f, _ = finite_difference(f, [x], 0, h)
        fd_g, _ = finite_difference(g, [x], 0, h)
        fd_c, _ = finite_difference(combined, [x], 0, h)
        assert abs(fd_c - (a * fd_f + b * fd_g)) < 1e-12


# -- generalization error ----------------------------------------------------


def test_ge_zero_for_perfect_predictor():
    data = columns_dataset(a=[1.0, 2.0], target=[1.0, 2.0])
    predictor = linear_predictor([1.0])
    assert estimate_generalization_error(predictor, data, squared_loss()) == 0.0


def test_ge_hand_example():
    # predictions (1, 3) against targets (1, 1): (0 + 4) / 2 = 2
    data = columns_dataset(a=[1.0, 3.0], target=[1.0, 1.0])
    predictor = linear_predictor([1.0])
    assert estimate_generalization_error(predictor, data, squared_loss()) == 2.0


def test_ge_requires_target():
    data = columns_dataset(a=[1.0])
    with pytest.raises(MissingTargetError):
        estimate_generalization_error(linear_predictor([1.0]), data, squared_loss())


def test_ge_past_the_float_range_is_rejected():
    data = columns_dataset(a=[1.0, 2.0], target=[-1e200, 1e200])
    with pytest.raises(InvalidArgumentError, match="generalization error must be finite"):
        estimate_generalization_error(linear_predictor([1e200]), data, squared_loss())


def test_ge_rejects_a_string_target():
    data = columns_dataset(a=[1.0, 2.0], target=["yes", "no"])
    with pytest.raises(InvalidArgumentError, match="numeric target"):
        estimate_generalization_error(linear_predictor([1.0]), data, squared_loss())


def test_losses():
    sq, ab = squared_loss(), absolute_loss()
    assert sq(np.array([2.0]), np.array([2.0]))[0] == 0.0
    assert ab(np.array([2.0]), np.array([2.0]))[0] == 0.0
    assert sq(np.array([1.0]), np.array([3.0]))[0] == 4.0
    assert ab(np.array([1.0]), np.array([3.0]))[0] == 2.0
    zo = zero_one_loss(threshold=0.5)
    assert set(zo(np.array([0.2, 0.9, 0.5]), np.array([1.0, 1.0, 0.0]))) <= {0.0, 1.0}
    assert zo(np.array([0.9]), np.array([1.0]))[0] == 0.0
    assert zo(np.array([0.2]), np.array([1.0]))[0] == 1.0
    with pytest.raises(InvalidArgumentError):
        loss_by_name("huber")
    assert loss_by_name("zero_one", threshold=0.9).tag == "zero_one"
    signed = LossFunction("signed", lambda p, y: p - y)
    with pytest.raises(InvalidArgumentError, match=r"^loss 'signed' produced negative values$"):
        signed(np.array([0.0, 1.0]), np.array([1.0, 1.0]))


# -- stage traces ------------------------------------------------------------


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -float("inf")])
def test_zero_one_rejects_a_non_finite_threshold(threshold):
    with pytest.raises(InvalidArgumentError, match="threshold"):
        zero_one_loss(threshold)
    with pytest.raises(InvalidArgumentError, match="threshold"):
        loss_by_name("zero_one", threshold=threshold)


# -- seeds ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32, 10**30])
def test_valid_seeds_keep_their_streams(seed):
    expected = np.random.Generator(np.random.PCG64(seed)).integers(0, 2**62, 8)
    assert (make_rng(seed).integers(0, 2**62, 8) == expected).all()
    state = np.random.SeedSequence(seed).generate_state(3, dtype=np.uint32)
    assert spawn_seeds(seed, 3) == [int(s) for s in state]


@pytest.mark.parametrize("draw", [make_rng, lambda seed: spawn_seeds(seed, 2)])
def test_negative_seed_rejected(draw):
    with pytest.raises(InvalidArgumentError, match="non-negative"):
        draw(-1)


@pytest.mark.parametrize(
    "run",
    [
        lambda f, data: pfi_permutation(f, data, 0, squared_loss(), seed=-1),
        lambda f, data: shapley_mc(f, data, (1.0, 2.0), 0, 10, seed=-1),
        lambda f, data: lime_explain(f, data, (1.0, 2.0), 0, seed=-1),
    ],
    ids=["pfi_permutation", "shapley_mc", "lime_explain"],
)
def test_negative_seed_rejected_before_predicting(two_feature_data, run):
    calls = []
    predictor = handle(lambda X: calls.append(len(X)) or np.zeros(len(X)), 2)
    with pytest.raises(InvalidArgumentError, match="non-negative"):
        run(predictor, two_feature_data)
    assert calls == []


def test_trace_rejects_out_of_order_records():
    with pytest.raises(InvalidArgumentError):
        StageTrace(
            (
                StageRecord("prediction", "p"),
                StageRecord("sampling", "s"),
            )
        )
    with pytest.raises(InvalidArgumentError):
        StageRecord("training", "nope")


def test_assemble_trace_groups_provenance_by_stage():
    records = (
        StageRecord("intervention", "first"),
        StageRecord("sampling", "late sample", {"seed": 0}),
        StageRecord("intervention", "second"),
    )
    trace = assemble_trace(records, (StageRecord("prediction", "p"),))
    assert trace.stages() == ("sampling", "intervention", "intervention", "prediction")
    assert [r.description for r in trace][1:3] == ["first", "second"]
    assert len(trace) == 4 and len(StageTrace()) == 0


def test_interventions_accumulate_provenance(two_feature_data):
    out = intervene_shift(intervene_permute(two_feature_data, 0, seed=1), 1, 2.0)
    assert [r.stage for r in out.provenance] == ["intervention", "intervention"]
    assert out.provenance[0].parameters["seed"] == 1


@pytest.mark.parametrize("seed", [2.7, 2.0, True, np.float64(3.0), np.bool_(True), "4", None])
@pytest.mark.parametrize("draw", [make_rng, lambda seed: spawn_seeds(seed, 2)])
def test_non_integer_seed_rejected(draw, seed):
    with pytest.raises(InvalidArgumentError, match="non-negative integer"):
        draw(seed)


def test_non_integer_seed_rejected_before_recording(two_feature_data):
    with pytest.raises(InvalidArgumentError, match="non-negative integer"):
        intervene_permute(two_feature_data, 0, True)
    with pytest.raises(InvalidArgumentError, match="non-negative integer"):
        sample_observations(two_feature_data, 2, 1.5)


@pytest.mark.parametrize("kind", [np.int8, np.int64, np.uint32, np.uint64])
def test_numpy_integer_seeds_keep_their_streams(kind):
    assert (make_rng(kind(7)).integers(0, 2**62, 8) == make_rng(7).integers(0, 2**62, 8)).all()
    assert spawn_seeds(kind(7), 3) == spawn_seeds(7, 3)


@pytest.mark.parametrize("targets", [[0.0, 0.5], [2.0, 1.0], [-1.0, 0.0], [float("nan"), 1.0]])
def test_zero_one_rejects_targets_other_than_0_and_1(targets):
    with pytest.raises(InvalidArgumentError, match="zero_one loss needs"):
        zero_one_loss()(np.array([0.2, 0.9]), np.array(targets))


def test_zero_one_accepts_integer_and_boolean_targets():
    zo = zero_one_loss()
    assert zo(np.array([0.2, 0.9]), np.array([0, 1])).tolist() == [0.0, 0.0]
    assert zo(np.array([0.2, 0.9]), np.array([True, False])).tolist() == [1.0, 1.0]
