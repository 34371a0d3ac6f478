"""The real-number rule: every real-valued argument, grid point, observed range
and model parameter is checked by ``data._real`` or its vectorized form
``data._reals``.

Each site below takes a Python or numpy real, never a bool, a string or
None, and never a non-finite value; a step or a kernel width must also be
positive.  A numpy real or a Python int gives the result of the equal Python
float, bit for bit.  A model file holding such a value is covered in
``test_refmodels.py``.
"""

import numpy as np
import pytest

from boxprobe import (
    CONTINUOUS,
    Dataset,
    FeatureMeta,
    Grid,
    KNNModel,
    LinearModel,
    StumpModel,
    average_marginal_effect,
    finite_difference,
    fit_linear,
    intervene_shift,
    lime_explain,
    pd_curve,
    zero_one_loss,
)
from boxprobe.cli import main
from boxprobe.data import _real, _reals
from boxprobe.errors import InvalidArgumentError, UnsupportedKindError

from conftest import columns_dataset

DATA = columns_dataset(
    x1=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], x2=[1.0, 0.0, 2.5, 1.0, 3.0, 2.0], target=[1.0, 0.5, 4.0, 3.5, 7.0, 6.5]
)
MODEL = fit_linear(DATA)
X = DATA.row(2)
TRAIN = DATA.matrix().tolist()

# argument -> (a call taking the value, a valid integral float for it)
CASES = {
    "zero_one_loss threshold": (lambda v: zero_one_loss(v)(np.array([0.5, 1.5, 2.5]), np.array([0, 1, 1])), 1.0),
    "intervene_shift delta": (lambda v: intervene_shift(DATA, 0, v), 1.0),
    "Grid point": (lambda v: pd_curve(MODEL, DATA, 0, Grid(0, (v, 4.0), CONTINUOUS, "custom")), 2.0),
    "FeatureMeta observed_range": (lambda v: FeatureMeta("a", CONTINUOUS, observed_range=(v, 3.0)), 1.0),
    "replace_columns value": (lambda v: DATA.replace_columns(([0], [[[v] * DATA.n_rows]])), 1.0),
    "LinearModel intercept": (lambda v: LinearModel(DATA.meta, v, [1.0, 2.0]).to_json_obj(), 1.0),
    "LinearModel coefficient": (lambda v: LinearModel(DATA.meta, 0.0, [v, 2.0]).to_json_obj(), 1.0),
    "KNNModel target": (lambda v: KNNModel(DATA.meta, 2, TRAIN, [v, *DATA.target[1:]]).to_json_obj(), 1.0),
    "KNNModel training value": (
        lambda v: KNNModel(DATA.meta, 2, [[v, 1.0], *TRAIN[1:]], DATA.target).to_json_obj(), 1.0
    ),
    "StumpModel threshold": (lambda v: StumpModel(DATA.meta, 0, "le", v, 0.0, 1.0).to_json_obj(), 2.0),
    "StumpModel left value": (lambda v: StumpModel(DATA.meta, 0, "le", 1.5, v, 1.0).to_json_obj(), 1.0),
    "StumpModel right value": (lambda v: StumpModel(DATA.meta, 0, "le", 1.5, 0.0, v).to_json_obj(), 1.0),
}
POSITIVE_CASES = {
    "finite_difference h": (lambda v: finite_difference(MODEL, X, 0, v), 1.0),
    "average_marginal_effect h": (lambda v: average_marginal_effect(MODEL, DATA, 0, v), 1.0),
    "lime_explain kernel_width": (lambda v: lime_explain(MODEL, DATA, X, 0, kernel_width=v), 2.0),
}
ALL_CASES = {**CASES, **POSITIVE_CASES}
HUGE = 10**400  # an integer past the float64 range, which float() cannot convert
NOT_REALS = [True, np.bool_(False), "0.5", None, float("nan"), float("inf"), -float("inf"), HUGE]
DEFAULTS_TO_NONE = {"average_marginal_effect h", "lime_explain kernel_width"}  # None asks for the default


def _bits(result):
    """What a result holds, down to the bits and the Python types."""
    if isinstance(result, Dataset):
        return result.codes().tobytes(), repr(result.provenance)
    if isinstance(result, np.ndarray):
        return result.tobytes()
    return repr(result)


@pytest.mark.parametrize(
    "case, value",
    [(c, v) for c in sorted(ALL_CASES) for v in NOT_REALS if not (v is None and c in DEFAULTS_TO_NONE)]
    + [(c, v) for c in sorted(POSITIVE_CASES) for v in (0.0, -1.0)],
    ids=lambda p: p if isinstance(p, str) else "10**400" if p is HUGE else repr(p),
)
def test_each_real_argument_rejects_what_is_not_a_finite_real(case, value):
    with pytest.raises((InvalidArgumentError, UnsupportedKindError)):
        ALL_CASES[case][0](value)


def test_the_vectorized_rule_takes_one_dimension():
    with pytest.raises(InvalidArgumentError, match=r"^grid is not one-dimensional$"):
        _reals(np.zeros((2, 2)), "grid")


@pytest.mark.parametrize("kind", [np.float64, np.float32, int])
@pytest.mark.parametrize("case", sorted(ALL_CASES))
def test_a_numpy_real_or_an_int_gives_the_python_float_result(case, kind):
    call, good = ALL_CASES[case]
    assert _bits(call(kind(good))) == _bits(call(good))


def test_an_argument_message_names_the_argument_and_the_value():
    with pytest.raises(InvalidArgumentError, match=r"^step h must be positive, finite and real, got '0\.5'$"):
        finite_difference(MODEL, X, 0, "0.5")
    with pytest.raises(InvalidArgumentError, match=r"^zero_one threshold must be finite and real, got True$"):
        zero_one_loss(True)
    with pytest.raises(UnsupportedKindError, match=r"^grid of feature 0 is continuous; got non-numeric True$"):
        Grid(0, (True, "2.5"), CONTINUOUS, "custom")


def test_a_numeric_target_passes_the_real_number_rule():
    """An integer target past the float64 range is a typed error, not numpy's bare ``OverflowError``,
    and a 2-D numeric target is rejected, not read as labels of printed rows."""
    with pytest.raises(InvalidArgumentError, match=r"^target holds an integer past the float64 range$"):
        Dataset([[1.0], [2.0]], target=[HUGE, 1.0])
    with pytest.raises(InvalidArgumentError, match=r"^target is not one-dimensional$"):
        Dataset.from_columns({"a": [1.0, 2.0]}, target=np.array([[1.0], [2.0]]))


def test_an_integer_too_long_to_print_is_named_by_its_size():
    with pytest.raises(InvalidArgumentError, match=r"^step h must be finite and real, got an integer of 16610 bits$"):
        _real(10**5000, "step h")


@pytest.mark.parametrize(
    "method", [("lime", "--kernel-width", "inf"), ("ame", "--h", "0"), ("me", "--h", "nan"), ("ame", "--h", "-inf")]
)
def test_cli_exits_1_on_a_bad_real_argument(tmp_path, capsys, method):
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    data.write_text("x1,x2,y\n0,1,1\n1,0,0.5\n2,2.5,4\n3,1,3.5\n4,3,7\n", encoding="utf-8")
    assert main(["fit", "--data", str(data), "--target", "y", "--out", str(model)]) == 0
    name, *flags = method
    args = ["--feature", "x1", "--data", str(data), "--model", str(model), *flags]
    assert main([name, *args, *(["--row", "1"] if name in ("lime", "me") else [])]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite and real" in err
