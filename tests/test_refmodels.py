"""Reference models: fits, tie-breaking, persistence."""

import copy
import json
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxprobe import (
    shapley_exact,
    fit_knn,
    fit_linear,
    fit_stump,
    load_model,
    pfi_exhaustive,
    squared_loss,
    save_model,
)
from boxprobe import refmodels
from boxprobe.refmodels import LinearModel
from boxprobe.cli import main
from boxprobe.core import PredictionCache
from boxprobe.data import CATEGORICAL, CONTINUOUS, FeatureMeta
from boxprobe.errors import (
    DataFormatError,
    InvalidArgumentError,
    MissingTargetError,
    NumericRangeError,
    SingularFitError,
)

from conftest import columns_dataset, random_dataset


# -- linear ---------------------------------------------------------------------


def test_linear_recovers_noiseless_affine():
    rng = np.random.default_rng(2)
    x1, x2 = rng.normal(size=10), rng.normal(size=10)
    data = columns_dataset(x1=x1, x2=x2, target=2.0 * x1 + 3.0 * x2 + 1.0)
    model = fit_linear(data)
    assert abs(model.intercept - 1.0) < 1e-10
    assert np.max(np.abs(model.coefficients - [2.0, 3.0])) < 1e-10


def test_linear_constant_target():
    data = columns_dataset(x1=[0.0, 1.0, 2.0], target=[5.0, 5.0, 5.0])
    model = fit_linear(data)
    assert abs(model.intercept - 5.0) < 1e-10
    assert abs(model.coefficients[0]) < 1e-10


def test_linear_requires_more_rows_than_features():
    data = columns_dataset(x1=[1.0, 2.0], x2=[3.0, 5.0], target=[1.0, 2.0])
    with pytest.raises(SingularFitError):
        fit_linear(data)


def test_linear_rejects_collinear_design():
    data = columns_dataset(
        x1=[0.0, 1.0, 2.0, 3.0], x2=[0.0, 2.0, 4.0, 6.0], target=[0.0, 1.0, 2.0, 3.0]
    )
    with pytest.raises(SingularFitError):
        fit_linear(data)


def test_linear_one_hot_categorical():
    data = columns_dataset(
        c=["a", "b", "a", "b", "a", "b"],
        x=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        target=[0.0, 11.0, 2.0, 13.0, 4.0, 15.0],  # y = x + 10 * (c == 'b')
    )
    model = fit_linear(data)
    preds = model(data.matrix())
    assert np.max(np.abs(preds - data.target)) < 1e-10


def test_linear_requires_target():
    with pytest.raises(MissingTargetError):
        fit_linear(columns_dataset(x1=[1.0, 2.0]))


def take_design_product(model, X):
    """The linear product as it was built before an all-continuous code matrix
    became the design itself: a ``take`` of every column into a fresh C-ordered
    copy.  Kept as the bit-for-bit reference."""
    return X.take(np.arange(X.shape[1]), axis=1) @ model.coefficients + model.intercept


def code_matrix_layouts(X):
    """The layouts a predictor call sees: the whole matrix, row slices at pointer
    offsets of 1-3 rows, a row gather, F order and single rows."""
    yield "C-contiguous", X
    for offset in (1, 2, 3):
        yield f"rows {offset}:", X[offset:]
        yield f"rows {offset}:{offset + 517}", X[offset : offset + 517]
    yield "row gather", X[np.random.default_rng(5).integers(0, len(X), size=len(X) + 7)]
    yield "F order", np.asfortranarray(X)
    yield "first row", X[:1]
    yield "row 3", X[3:4]


@pytest.mark.parametrize("p", [1, 2, 3, 8, 13])
@pytest.mark.parametrize("n", [150, 1003])
def test_linear_on_continuous_codes_keeps_the_bits_of_the_take_design(n, p):
    data = random_dataset(np.random.default_rng(100 * n + p), n, p)
    X = data.codes()
    y = np.asarray(data.target, dtype=float)
    coef = np.linalg.lstsq(np.column_stack((np.ones(n), X.take(np.arange(p), axis=1))), y, rcond=None)[0]
    model = fit_linear(data)
    assert model.intercept.hex() == float(coef[0]).hex()
    assert_same_bits(model.coefficients, coef[1:])
    for name, layout in code_matrix_layouts(X):
        got, want = model(layout, data.meta), take_design_product(model, layout)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


STACK_SCHEMAS = {
    "continuous": [FeatureMeta(f"x{j}", CONTINUOUS) for j in range(9)],
    "categoricals": [FeatureMeta(f"x{j}", CONTINUOUS) for j in range(6)]
    + [FeatureMeta("c", CATEGORICAL, ("p", "q", "r", "s")), FeatureMeta("one", CATEGORICAL, ("only",))],
    "one level only": [FeatureMeta("one", CATEGORICAL, ("only",)), FeatureMeta("two", CATEGORICAL, ("u",))],
}


@pytest.mark.parametrize("schema", sorted(STACK_SCHEMAS))
@pytest.mark.parametrize("m", [1, 2, 3, 5, 150])
def test_linear_predicts_each_stacked_copy_in_a_product_of_its_own(schema, m):
    """``_predict(stack, copies=k)`` gives each copy the bits of its own call and of
    the 2-D product of its own design, over more copies than one ``BUDGET`` of
    one-hot design holds; a design of one-level categoricals has no column."""
    rng = np.random.default_rng(m)
    meta = STACK_SCHEMAS[schema]
    q = sum(1 if f.kind == CONTINUOUS else len(f.levels) - 1 for f in meta)
    model = LinearModel(meta, rng.normal(), rng.normal(size=q))
    k = 3 * max(1, refmodels.BUDGET // (8 * m * q)) + 1 if q else 7  # four design blocks when one-hot
    X = np.column_stack([
        rng.normal(size=k * m) if f.kind == CONTINUOUS else rng.integers(0, len(f.levels), k * m) for f in meta
    ]).astype(float)
    stacked = model._predict(X, copies=k)
    copies = np.split(X, k)
    own_call = np.concatenate([model._predict(copy) for copy in copies])
    own_product = np.concatenate([
        refmodels._design_matrix(copy, model._columns) @ model.coefficients + model.intercept for copy in copies
    ])
    assert stacked.shape == (k * m,)
    assert stacked.tobytes() == own_call.tobytes() == own_product.tobytes()


# -- knn ------------------------------------------------------------------------


def test_knn_full_neighbourhood_is_mean():
    data = columns_dataset(x=[0.0, 1.0, 10.0], target=[0.0, 1.0, 10.0])
    model = fit_knn(data, 3)
    assert model(np.array([[100.0]]))[0] == np.mean([0.0, 1.0, 10.0])


def test_knn_single_neighbour_exact_match():
    data = columns_dataset(x=[0.0, 1.0, 10.0], target=[5.0, 6.0, 7.0])
    model = fit_knn(data, 1)
    assert model(np.array([[1.0]]))[0] == 6.0


def test_knn_hand_example():
    data = columns_dataset(x=[0.0, 1.0, 10.0], target=[0.0, 1.0, 10.0])
    model = fit_knn(data, 2)
    assert model(np.array([[0.4]]))[0] == 0.5


def test_knn_distance_ties_prefer_lower_index():
    data = columns_dataset(x=[0.0, 2.0], target=[10.0, 20.0])
    model = fit_knn(data, 1)
    assert model(np.array([[1.0]]))[0] == 10.0


def test_knn_categorical_match_distance():
    data = columns_dataset(c=["a", "b", "b"], target=[1.0, 2.0, 4.0])
    model = fit_knn(data, 2)
    # query 'b': both 'b' rows at distance 0, the 'a' row at 1
    assert model(np.array([["b"]], dtype=object))[0] == 3.0


def test_knn_k_bounds():
    data = columns_dataset(x=[0.0, 1.0], target=[0.0, 1.0])
    for k in (0, 3):
        with pytest.raises(InvalidArgumentError):
            fit_knn(data, k)


def loop_distances(model, row):
    total = np.zeros(len(model.train))
    for j, m in enumerate(model.schema):
        col = model.train[:, j]
        if m.kind == CONTINUOUS:
            total += (col.astype(float) - float(row[j])) ** 2
        else:
            total += (col != row[j]).astype(float)
    return total


def loop_knn(model, X):
    """The row-at-a-time knn predictor, kept as the bit-for-bit reference."""
    X = np.asarray(X)
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        neighbours = np.argsort(loop_distances(model, X[i]), kind="stable")[: model.k]
        out[i] = np.mean(model.target[neighbours])
    return out


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


N_TRAIN = 300
BLOCK = max(1, refmodels.BUDGET // (8 * N_TRAIN))


def tie_heavy_rows(rng, n):
    """Coarse continuous values and a three-level categorical, so distances tie."""
    rows = np.empty((n, 3), dtype=object)
    rows[:, 0] = rng.integers(0, 5, size=n) / 2.0
    rows[:, 1] = np.round(rng.normal(size=n), 1)
    rows[:, 2] = rng.choice(["a", "b", "c"], size=n)
    return rows


def tie_heavy_knn(k):
    rng = np.random.default_rng(11)
    train = tie_heavy_rows(rng, N_TRAIN)
    train[200:] = train[:100]  # duplicated training rows
    schema = [FeatureMeta("x1", CONTINUOUS), FeatureMeta("x2", CONTINUOUS),
              FeatureMeta("c", CATEGORICAL, ("a", "b", "c"))]
    return refmodels.KNNModel(schema, k, train, np.round(rng.normal(size=N_TRAIN), 2))


@pytest.mark.parametrize("k", [1, 5, 9, N_TRAIN])
@pytest.mark.parametrize("n_queries", [1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_knn_blocks_match_the_row_loop_bit_for_bit(k, n_queries):
    model = tie_heavy_knn(k)
    queries = tie_heavy_rows(np.random.default_rng(12), n_queries)
    assert_same_bits(model(queries), loop_knn(model, queries))


def test_knn_test_table_ties_at_the_kth_distance():
    model = tie_heavy_knn(5)
    queries = tie_heavy_rows(np.random.default_rng(12), BLOCK)
    kth = np.sort([loop_distances(model, row) for row in queries], axis=1)[:, 4:6]  # k = 5
    assert np.sum(kth[:, 0] == kth[:, 1]) > BLOCK // 4


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_knn_threads_match_the_row_loop_bit_for_bit(threads):
    model = tie_heavy_knn(5)
    queries = tie_heavy_rows(np.random.default_rng(13), 2 * BLOCK + 5)
    got = PredictionCache(threads).predict(model, queries)
    assert_same_bits(got, loop_knn(model, queries))


@st.composite
def small_knn_case(draw):
    kinds = draw(st.lists(st.sampled_from([CONTINUOUS, CATEGORICAL]), min_size=1, max_size=3))
    n = draw(st.integers(1, 8))
    numbers = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.5])
    levels = st.sampled_from(["a", "b", "c"])

    def rows(count):
        return [[draw(numbers if kind == CONTINUOUS else levels) for kind in kinds]
                for _ in range(count)]

    schema = [FeatureMeta(f"f{j}", kind, ("a", "b", "c") if kind == CATEGORICAL else None)
              for j, kind in enumerate(kinds)]
    target = draw(st.lists(st.sampled_from([-2.0, 0.1, 0.3, 7.0]), min_size=n, max_size=n))
    model = refmodels.KNNModel(schema, draw(st.integers(1, n)), rows(n), target)
    dtype = float if all(kind == CONTINUOUS for kind in kinds) else object
    return model, np.array(rows(draw(st.integers(1, 6))), dtype=dtype)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_knn_case())
def test_knn_matches_the_row_loop_on_small_tables(case):
    model, queries = case
    assert_same_bits(model(queries), loop_knn(model, queries))


def test_knn_memory_is_bounded_by_the_block_budget():
    rng = np.random.default_rng(14)
    schema = [FeatureMeta(f"x{j}", CONTINUOUS) for j in range(8)]
    model = refmodels.KNNModel(schema, 5, rng.normal(size=(2000, 8)), rng.normal(size=2000))
    queries = rng.normal(size=(4096, 8))
    tracemalloc.start()
    try:
        out = model(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Two distance buffers, the candidate mask, the neighbour indices and a
    # tie fallback's sort each stay within one budget; the full 4096 x 2000
    # distance matrix would take 65 MB.
    assert peak < 6 * refmodels.BUDGET + out.nbytes


def test_knn_predicts_past_infinite_distances_beyond_the_kth():
    schema = [FeatureMeta("x1", CONTINUOUS)]
    model = refmodels.KNNModel(schema, 2, [[1e308], [0.0], [1.0]], [5.0, 1.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        assert model(np.array([[0.0], [0.5]])).tolist() == [2.0, 2.0]
    with pytest.raises(NumericRangeError, match="at feature 'x1'"):
        model(np.array([[-1e308]]))  # every distance is infinite


def test_knn_names_the_feature_that_makes_the_kth_distance_infinite():
    schema = [FeatureMeta("x1", CONTINUOUS), FeatureMeta("x2", CONTINUOUS)]
    model = refmodels.KNNModel(schema, 1, [[1e308, 0.0], [0.0, 1e200]], [1.0, 2.0])
    # x1 already puts the first row at an infinite distance; x2 the nearest one.
    with pytest.raises(NumericRangeError, match="at feature 'x2'"):
        model(np.array([[0.0, -1e200]]))


# -- stump ----------------------------------------------------------------------


def test_stump_separable_data():
    x = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0])
    data = columns_dataset(x1=x, target=np.where(x > 5, 10.0, 0.0))
    model = fit_stump(data)
    assert model.feature == 0
    assert model.left_value == 0.0 and model.right_value == 10.0
    assert 4.0 < model.threshold < 6.0


def test_stump_constant_target():
    data = columns_dataset(x1=[1.0, 2.0], target=[3.0, 3.0])
    model = fit_stump(data)
    assert model.feature is None
    assert model(np.array([[0.0], [100.0]])).tolist() == [3.0, 3.0]


def test_stump_picks_predictive_feature_and_ignores_other():
    rng = np.random.default_rng(4)
    x1 = rng.normal(size=12)
    x2 = np.array([0.0] * 6 + [1.0] * 6)
    data = columns_dataset(x1=x1, x2=x2, target=np.where(x2 > 0.5, 8.0, 2.0))
    model = fit_stump(data)
    assert model.feature == 1
    # downstream dummy invariants: the untouched feature scores exactly zero
    assert pfi_exhaustive(model, data, 0, squared_loss()).value == 0.0
    assert shapley_exact(model, data, data.row(0), 0).value == 0.0


def test_stump_tie_breaks_to_lower_feature_index():
    col = [0.0, 0.0, 1.0, 1.0]
    data = columns_dataset(x1=col, x2=col, target=[0.0, 0.0, 1.0, 1.0])
    assert fit_stump(data).feature == 0


def test_stump_categorical_split():
    data = columns_dataset(c=["a", "a", "b", "b"], target=[1.0, 1.0, 3.0, 3.0])
    model = fit_stump(data)
    assert model.split_kind == "eq" and model.threshold == "a"
    assert model(np.array([["a"], ["b"]], dtype=object)).tolist() == [1.0, 3.0]


# -- determinism and persistence ---------------------------------------------------


def test_models_are_deterministic_predictors():
    rng = np.random.default_rng(9)
    data = columns_dataset(
        x1=rng.normal(size=8), x2=rng.normal(size=8), target=rng.normal(size=8)
    )
    for model in (fit_linear(data), fit_knn(data, 3), fit_stump(data)):
        a = model(data.matrix())
        b = model(data.matrix())
        assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["linear", "knn", "stump"])
def test_save_load_round_trip(tmp_path, kind):
    rng = np.random.default_rng(10)
    data = columns_dataset(
        x1=rng.normal(size=9),
        c=rng.choice(["u", "v", "w"], size=9),
        target=rng.normal(size=9),
    )
    model = {"linear": fit_linear, "knn": lambda d: fit_knn(d, 2), "stump": fit_stump}[
        kind
    ](data)
    path = tmp_path / f"{kind}.json"
    save_model(model, str(path))
    restored = load_model(str(path))
    assert restored.kind == kind
    assert restored.schema == model.schema
    assert all(m.observed_range is None for m in restored.schema)
    assert np.array_equal(model(data.matrix()), restored(data.matrix()))


NUMBERS = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])
PARAMETERS = st.floats(-1e3, 1e3)


@st.composite
def mixed_models(draw):
    """A random valid reference model on a random mixed schema, and rows to predict."""

    def feature(j):
        if draw(st.booleans()):
            return FeatureMeta(f"x{j}", CONTINUOUS)
        levels = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
        return FeatureMeta(f"x{j}", CATEGORICAL, tuple(levels))

    schema = [feature(j) for j in range(draw(st.integers(1, 3)))]

    def rows(count):
        return [[draw(NUMBERS if m.kind == CONTINUOUS else st.sampled_from(m.levels)) for m in schema]
                for _ in range(count)]

    kind = draw(st.sampled_from(["linear", "knn", "stump"]))
    if kind == "linear":
        width = sum(1 if m.kind == CONTINUOUS else len(m.levels) - 1 for m in schema)
        coefficients = draw(st.lists(PARAMETERS, min_size=width, max_size=width))
        model = refmodels.LinearModel(schema, draw(PARAMETERS), coefficients)
    elif kind == "knn":
        n = draw(st.integers(1, 6))
        target = draw(st.lists(PARAMETERS, min_size=n, max_size=n))
        model = refmodels.KNNModel(schema, draw(st.integers(1, n)), rows(n), target)
    else:
        j = draw(st.sampled_from([None, *range(len(schema))]))
        if j is None:
            split = (None, None)
        elif schema[j].kind == CONTINUOUS:
            split = ("le", draw(NUMBERS))
        else:
            split = ("eq", draw(st.sampled_from(schema[j].levels)))
        model = refmodels.StumpModel(schema, j, *split, draw(PARAMETERS), draw(PARAMETERS))
    dtype = float if all(m.kind == CONTINUOUS for m in schema) else object
    return model, np.array(rows(draw(st.integers(1, 5))), dtype=dtype)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mixed_models())
def test_save_load_predict_is_the_identity(case):
    model, queries = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        with open(path, "rb") as fh:
            saved = fh.read()
        restored = load_model(path)
        save_model(restored, path)
        with open(path, "rb") as fh:
            assert fh.read() == saved
    assert restored.schema == model.schema
    assert_same_bits(restored(queries), model(queries))
    if model.kind == "knn":  # the file keeps level strings, not codes
        for row in json.loads(saved)["parameters"]["train"]:
            assert [isinstance(v, str) for v in row] == [m.kind == CATEGORICAL for m in model.schema]


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(DataFormatError):
        load_model(str(path))
    path.write_text('{"format": "something-else"}')
    with pytest.raises(DataFormatError):
        load_model(str(path))
    path.write_text(
        '{"format": "boxprobe-model", "version": 1, "kind": "tree", "features": [], "parameters": {}}'
    )
    with pytest.raises(DataFormatError):
        load_model(str(path))
    path.write_text('{"format": "boxprobe-model", "version": 2, "kind": "linear"}')
    with pytest.raises(DataFormatError, match=r"^unsupported model version 2$"):
        load_model(str(path))


# -- model invariants, checked on load -------------------------------------------

_FEATURES = [
    {"name": "x1", "kind": "continuous", "levels": None},
    {"name": "c", "kind": "categorical", "levels": ["a", "b"]},
]
_VALID = {
    "linear": {"intercept": 1.0, "coefficients": [2.0, 3.0]},
    "knn": {"k": 1, "train": [[0.0, "a"], [1.0, "b"]], "target": [0.0, 1.0]},
    "stump": {
        "feature": 0,
        "split_kind": "le",
        "threshold": 0.5,
        "left_value": 0.0,
        "right_value": 1.0,
    },
}
# (model kind, path into the document, value that breaks one invariant)
_BROKEN = {
    "unknown_feature_kind": ("linear", ("features", 0, "kind"), "ordinal"),
    "categorical_without_levels": ("linear", ("features", 1, "levels"), None),
    "coefficient_count": ("linear", ("parameters", "coefficients"), [2.0]),
    "nan_intercept": ("linear", ("parameters", "intercept"), float("nan")),
    "knn_k_zero": ("knn", ("parameters", "k"), 0),
    "knn_k_above_n": ("knn", ("parameters", "k"), 3),
    "knn_k_fraction": ("knn", ("parameters", "k"), 2.5),
    "knn_k_true": ("knn", ("parameters", "k"), True),
    "knn_target_count": ("knn", ("parameters", "target"), [0.0]),
    "knn_row_width": ("knn", ("parameters", "train"), [[0.0], [1.0]]),
    "knn_unregistered_level": ("knn", ("parameters", "train"), [[0.0, "a"], [1.0, "z"]]),
    "stump_feature_range": ("stump", ("parameters", "feature"), 5),
    "stump_feature_fraction": ("stump", ("parameters", "feature"), 0.5),
    "stump_split_kind": ("stump", ("parameters", "split_kind"), "lt"),
    "stump_threshold": ("stump", ("parameters", "threshold"), "abc"),
    "stump_le_on_categorical": ("stump", ("parameters", "feature"), 1),
    "stump_eq_on_continuous": ("stump", ("parameters", "split_kind"), "eq"),
    "string_intercept": ("linear", ("parameters", "intercept"), "1.5"),
    "bool_coefficient": ("linear", ("parameters", "coefficients", 0), True),
    "string_stump_value": ("stump", ("parameters", "left_value"), "7"),
    "string_knn_target": ("knn", ("parameters", "target", 0), "9"),
    "bool_knn_training_value": ("knn", ("parameters", "train", 0, 0), True),
    "huge_intercept": ("linear", ("parameters", "intercept"), 10**400),
    "huge_coefficient": ("linear", ("parameters", "coefficients", 0), 10**400),
    "huge_knn_target": ("knn", ("parameters", "target", 0), 10**400),
    # a file's parameters are its kind's constructor arguments, no more
    "linear_unknown_parameter": ("linear", ("parameters", "scale"), 2.0),
    "knn_unknown_parameter": ("knn", ("parameters", "scale"), 2.0),
    "stump_unknown_parameter": ("stump", ("parameters", "scale"), 2.0),
}


def _model_file(tmp_path, kind, path=(), value=None):
    doc = {
        "format": "boxprobe-model",
        "version": 1,
        "kind": kind,
        "features": copy.deepcopy(_FEATURES),
        "parameters": copy.deepcopy(_VALID[kind]),
    }
    if path:
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
    out = tmp_path / f"{kind}.json"
    out.write_text(json.dumps(doc), encoding="utf-8")
    return str(out)


def _run_pd(tmp_path, model_path):
    data = tmp_path / "data.csv"
    data.write_text("x1,c,y\n0,a,0\n1,b,1\n2,a,2\n", encoding="utf-8")
    out = tmp_path / "pd.json"
    args = ["pd", "--feature", "x1", "--data", str(data), "--target", "y"]
    return main([*args, "--model", model_path, "--out", str(out)])


def test_missing_model_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    with pytest.raises(DataFormatError):
        load_model(missing)
    assert _run_pd(tmp_path, missing) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope.json" in err


def test_an_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    """``json`` will not read an integer of more than 4300 digits; a ValueError, not bad JSON syntax."""
    path = tmp_path / "linear.json"
    _model_file(tmp_path, "linear", ("parameters", "intercept"), "huge")
    path.write_text(path.read_text(encoding="utf-8").replace('"huge"', "9" * 5000), encoding="utf-8")
    with pytest.raises(DataFormatError, match="Exceeds the limit"):
        load_model(str(path))
    assert _run_pd(tmp_path, str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("kind", sorted(_VALID))
def test_valid_hand_written_models_load_and_run(tmp_path, kind):
    path = _model_file(tmp_path, kind)
    assert load_model(path).kind == kind
    assert _run_pd(tmp_path, path) == 0


@pytest.mark.parametrize("case", sorted(_BROKEN))
def test_load_model_rejects_broken_invariant(tmp_path, case):
    with pytest.raises(DataFormatError):
        load_model(_model_file(tmp_path, *_BROKEN[case]))


@pytest.mark.parametrize("case", sorted(_BROKEN))
def test_cli_exits_2_on_broken_model(tmp_path, capsys, case):
    assert _run_pd(tmp_path, _model_file(tmp_path, *_BROKEN[case])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_the_model_table_holds_every_kind():
    """``load_model`` finds a kind only in ``_MODELS``, so a new model class must be added there."""
    kinds = {cls.kind for cls in refmodels.ReferenceModel.__subclasses__()}
    assert set(refmodels._MODELS) == kinds == set(_VALID)
