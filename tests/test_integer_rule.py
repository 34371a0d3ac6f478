"""The integer rule: every feature index, row, count and seed is checked by
``data._integer``.

Each argument below takes a Python or numpy integer, never a bool or a
float, and a numpy integer gives the result of the equal Python int, bit for
bit.  Seeds have their own table in ``test_core.py``.
"""

import numpy as np
import pytest

from boxprobe import (
    Dataset,
    KNNModel,
    PredictionCache,
    PredictorHandle,
    StumpModel,
    ale_first_order,
    equidistant_grid,
    finite_difference,
    fit_linear,
    ici_curve,
    intervene_replace,
    lime_explain,
    pd_curve,
    pd_importance,
    pfi_permutation,
    sample_observations,
    shapley_exact,
    shapley_mc,
    squared_loss,
)
from boxprobe.core import spawn_seeds
from boxprobe.data import _integer
from boxprobe.effects import _ice_row
from boxprobe.errors import InvalidArgumentError, InvalidLevelError

from conftest import columns_dataset

DATA = columns_dataset(
    x1=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], x2=[1.0, 0.0, 2.5, 1.0, 3.0, 2.0], target=[1.0, 0.5, 4.0, 3.5, 7.0, 6.5]
)
MODEL = fit_linear(DATA)
X = DATA.row(2)
LOSS = squared_loss()

# argument -> (a call taking the value, a valid Python int for it)
CASES = {
    "feature_index": (DATA.feature_index, 1),
    "row": (DATA.row, 1),
    "pd_curve feature": (lambda v: pd_curve(MODEL, DATA, v), 1),
    "pd_importance feature": (lambda v: pd_importance(MODEL, DATA, v), 1),
    "shapley_exact feature": (lambda v: shapley_exact(MODEL, DATA, X, v), 1),
    "substitute feature": (lambda v: PredictionCache().substitute(MODEL, DATA, [([v], [[9.0]])]), 1),
    "intervene_replace feature": (lambda v: intervene_replace(DATA, {v: 9.0}), 1),
    "PredictorHandle n_features": (lambda v: PredictorHandle(MODEL, v).n_features, 2),
    "PredictorHandle copies": (lambda v: MODEL(np.tile(DATA.codes(), (2, 1)), copies=v), 2),
    "PredictionCache threads": (lambda v: PredictionCache(v).threads, 2),
    "sample_observations m": (lambda v: sample_observations(DATA, v, 1), 2),
    "finite_difference feature": (lambda v: finite_difference(MODEL, X, v, 0.5), 1),
    "equidistant_grid k": (lambda v: equidistant_grid(DATA, 0, v), 3),
    "ale_first_order num_intervals": (lambda v: ale_first_order(MODEL, DATA, 0, v), 2),
    "lime_explain num_samples": (lambda v: lime_explain(MODEL, DATA, X, 0, num_samples=v), 5),
    "ice row": (lambda v: _ice_row(MODEL, DATA, 0, None, 1, v), 1),
    "ici_curve observation": (lambda v: ici_curve(MODEL, DATA, v, 0, LOSS), 1),
    "pfi_permutation repeats": (lambda v: pfi_permutation(MODEL, DATA, 0, LOSS, repeats=v), 2),
    "shapley_mc iterations": (lambda v: shapley_mc(MODEL, DATA, X, 0, v, 0), 3),
    "KNNModel k": (lambda v: KNNModel(DATA.meta, v, DATA.matrix(), DATA.target).to_json_obj(), 2),
    "spawn_seeds count": (lambda v: spawn_seeds(0, v), 2),
    "StumpModel feature": (lambda v: StumpModel(DATA.meta, v, "le", 1.5, 0.0, 1.0).to_json_obj(), 1),
}
NOT_INTEGERS = [0.7, True, None, np.float64(2.0)]


def _bits(result):
    """What a result holds, down to the bits and the Python types."""
    if isinstance(result, Dataset):
        return result.codes().tobytes(), repr(result.provenance)
    if isinstance(result, np.ndarray):
        return result.tobytes()
    return repr(result)


@pytest.mark.parametrize(
    "case, value",
    # a stump whose feature is None is the constant stump
    [(c, v) for c in sorted(CASES) for v in NOT_INTEGERS if (c, v) != ("StumpModel feature", None)],
    ids=lambda p: p if isinstance(p, str) else repr(p),
)
def test_each_integer_argument_rejects_what_is_not_an_integer(case, value):
    with pytest.raises(InvalidArgumentError):
        CASES[case][0](value)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("case", sorted(CASES))
def test_a_numpy_integer_gives_the_python_integer_result(case, kind):
    call, good = CASES[case]
    assert _bits(call(kind(good))) == _bits(call(good))


PAST_THE_ENDS = {
    "feature 2 of 2": lambda: DATA.feature_index(2),
    "feature -1": lambda: DATA.feature_index(-1),
    "row 6 of 6": lambda: DATA.row(6),
    "ice row -1": lambda: _ice_row(MODEL, DATA, 0, None, 1, -1),
    "ici row 6 of 6": lambda: ici_curve(MODEL, DATA, 6, 0, LOSS),
    "knn k 7 of 6": lambda: KNNModel(DATA.meta, 7, DATA.matrix(), DATA.target),
    "stump feature 2 of 2": lambda: StumpModel(DATA.meta, 2, "le", 1.5, 0.0, 1.0),
    "spawn_seeds count -1": lambda: spawn_seeds(0, -1),
    "spawn_seeds count past the index range": lambda: spawn_seeds(0, 10**30),
}


@pytest.mark.parametrize("case", sorted(PAST_THE_ENDS))
def test_an_index_past_either_end_is_out_of_range(case):
    with pytest.raises(InvalidArgumentError, match="out of range"):
        PAST_THE_ENDS[case]()


def test_a_feature_set_is_a_sequence_and_a_scalar_is_one_feature():
    assert pd_curve(MODEL, DATA, np.int64(1)).feature == 1
    assert pd_curve(MODEL, DATA, [np.int64(1), "x1"]).feature == (1, 0)
    with pytest.raises(InvalidArgumentError, match="names a feature twice"):
        pd_curve(MODEL, DATA, [1, "x2"])


CATEGORICAL = columns_dataset(x1=[0.0, 1.0, 2.0], x2=["a", "b", "a"])
NOT_A_LEVEL = "value an integer of 16610 bits is not a registered level of feature 'x2' (levels: ['a', 'b'])"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _integer(10**5000, "observation index", 0, 5), InvalidArgumentError,
         "observation index out of range: an integer of 16610 bits is not an integer from 0 to 5"),
        (lambda: _integer(-(10**5000), "seed"), InvalidArgumentError,
         "seed must be a non-negative integer, got a negative integer of 16610 bits"),
        (lambda: PredictionCache().substitute(MODEL, DATA, [([], [[]])], rows=[10**5000]), InvalidArgumentError,
         "rows must be integers from 0 to 5, got [an integer of 16610 bits]"),
        (lambda: CATEGORICAL.check_codes((["x2"], [[10**5000]]), 3), InvalidArgumentError,
         "feature 'x2' takes level codes, integers from 0 to 1; got an integer of 16610 bits"),
        (lambda: CATEGORICAL.check_value(1, 10**5000), InvalidLevelError, NOT_A_LEVEL),
        (lambda: intervene_replace(CATEGORICAL, {1: 10**5000}), InvalidLevelError, NOT_A_LEVEL),
    ],
    ids=["10**5000 row", "-10**5000 seed", "kernel rows", "level code", "check_value", "intervene_replace"],
)
def test_an_integer_too_long_to_print_is_named_by_its_size(call, error, message):
    """Past Python's 4300-digit limit ``repr`` and ``str`` themselves raise, so the message shows the bit length."""
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message
