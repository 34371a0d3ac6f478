"""Variance-based and performance-based importance estimators."""

import numpy as np
import pytest

from boxprobe import (
    ImportanceScore,
    StageTrace,
    ces_curve,
    firm,
    fit_linear,
    ici_curve,
    make_rng,
    pd_curve,
    pd_importance,
    pfi_exhaustive,
    pfi_payout,
    pfi_permutation,
    pi_curve,
    sfimp,
    squared_loss,
)
from boxprobe import shapley
from boxprobe.core import spawn_seeds
from boxprobe.errors import (
    CapacityError,
    InvalidArgumentError,
    MissingTargetError,
    UndefinedVarianceError,
)

from conftest import (
    columns_dataset,
    constant_predictor,
    handle,
    kernel_calls,
    linear_predictor,
    random_dataset,
    random_refmodel,
)


def x1_only(p=2, scale=1.0):
    return handle(lambda X: scale * np.asarray(X[:, 0], dtype=float), p, name="x1")


def level_stepper():
    """Categorical predictor: level 'a' maps to 1, everything else to 5."""
    return handle(
        lambda X: np.where(np.asarray(X)[:, 0] == "a", 1.0, 5.0), 2, name="step"
    )


# -- pd_importance -------------------------------------------------------------


def test_a_variance_based_score_is_not_negative():
    with pytest.raises(InvalidArgumentError, match=r"^variance-based importance cannot be negative$"):
        ImportanceScore("pd_sd", 0, -1.0, StageTrace())


def test_pd_importance_constant_predictor_zero(two_feature_data):
    assert pd_importance(constant_predictor(4.0, 2), two_feature_data, 0).value == 0.0


def test_pd_importance_hand_example(two_feature_data):
    # PD of x1 under f = x1 is (0, 1, 2); sample sd with n-1 denominator is 1
    score = pd_importance(x1_only(), two_feature_data, 0)
    assert score.value == 1.0
    assert score.method == "pd_sd"


def test_pd_importance_categorical_range_rule():
    data = columns_dataset(c=["a", "b", "a"], x=[0.0, 1.0, 2.0])
    score = pd_importance(level_stepper(), data, 0)
    assert score.value == (5.0 - 1.0) / 4.0


def test_pd_importance_weights_duplicate_values():
    data = columns_dataset(x1=[0.0, 0.0, 2.0], x2=[1.0, 1.0, 1.0])
    score = pd_importance(x1_only(), data, 0)
    assert score.value == np.std([0.0, 0.0, 2.0], ddof=1)


def test_pd_importance_single_row_undefined():
    data = columns_dataset(x1=[1.0], x2=[2.0])
    with pytest.raises(UndefinedVarianceError):
        pd_importance(x1_only(), data, 0)


def test_pd_importance_scale_covariance(two_feature_data):
    # exact for dyadic scale factors: every float op commutes with *2
    base = pd_importance(x1_only(scale=1.0), two_feature_data, 0).value
    doubled = pd_importance(x1_only(scale=2.0), two_feature_data, 0).value
    assert doubled == 2.0 * base
    cat = columns_dataset(c=["a", "b"], x=[0.0, 1.0])
    cat_base = pd_importance(level_stepper(), cat, 0).value
    cat_doubled = pd_importance(
        handle(lambda X: 2.0 * np.where(np.asarray(X)[:, 0] == "a", 1.0, 5.0), 2), cat, 0
    ).value
    assert cat_doubled == 2.0 * cat_base


# -- CES and FIRM ----------------------------------------------------------------


def test_ces_is_pd_bit_exact(two_feature_data, sum_predictor):
    ces = ces_curve(sum_predictor, two_feature_data, 0)
    pd = pd_curve(sum_predictor, two_feature_data, 0)
    assert ces.method == "ces"
    assert ces.xs == pd.xs and ces.ys == pd.ys


def test_ces_hand_example(two_feature_data, sum_predictor):
    curve = ces_curve(sum_predictor, two_feature_data, 0)
    assert curve.ys[curve.xs.index(1.0)] == 3.0


def test_ces_constant(two_feature_data):
    assert set(ces_curve(constant_predictor(2.0, 2), two_feature_data, 0).ys) == {2.0}


def test_firm_equals_pd_importance(two_feature_data):
    score = firm(x1_only(), two_feature_data, 0)
    assert score.method == "firm"
    assert score.value == pd_importance(x1_only(), two_feature_data, 0).value == 1.0


def test_firm_constant_zero(two_feature_data):
    assert firm(constant_predictor(1.0, 2), two_feature_data, 0).value == 0.0


def test_firm_matches_pd_importance_across_models():
    rng = np.random.default_rng(3)
    for _ in range(10):
        data = random_dataset(rng, n=int(rng.integers(5, 20)), p=2)
        model = random_refmodel(rng, data)
        j = int(rng.integers(2))
        assert firm(model, data, j).value == pd_importance(model, data, j).value


def test_pd_importance_fails_where_its_pd_curve_fails(two_feature_data):
    # Every PD value overflows to inf: a spread of that flat curve would read 0.0.
    huge = constant_predictor(1.7e308, 2)
    for score in (pd_importance, firm):
        with np.errstate(over="ignore"), pytest.raises(InvalidArgumentError, match="effect values must be finite"):
            score(huge, two_feature_data, 0)


def test_firm_categorical_branch():
    data = columns_dataset(c=["a", "b", "a"], x=[0.0, 1.0, 2.0])
    assert firm(level_stepper(), data, 0).value == pd_importance(level_stepper(), data, 0).value


# -- ICI / PI / exhaustive PFI -----------------------------------------------------


@pytest.fixture
def two_row_identity():
    """f = x1, y = x1 over x1 = (0, 2): the worked PFI example."""
    data = columns_dataset(x1=[0.0, 2.0], target=[0.0, 2.0])
    return data, x1_only(p=1)


def test_ici_hand_example(two_row_identity):
    data, predictor = two_row_identity
    curve = ici_curve(predictor, data, 0, 0, squared_loss())
    assert curve.points == [(0.0, 0.0), (2.0, 4.0)]
    other = ici_curve(predictor, data, 1, 0, squared_loss())
    assert other.points == [(0.0, 4.0), (2.0, 0.0)]


def test_ici_zero_at_own_value(two_feature_data):
    predictor = linear_predictor([1.0, 1.0])
    data = columns_dataset(
        x1=[0.0, 1.0, 2.0], x2=[0.0, 2.0, 4.0], target=[0.1, 3.2, 5.9]
    )
    for i in range(3):
        curve = ici_curve(predictor, data, i, 0, squared_loss())
        own = data.column(0)[i]
        assert dict(curve.points)[own] == 0.0


def test_ici_ignored_feature_all_zero():
    data = columns_dataset(x1=[0.0, 1.0], x2=[5.0, 6.0], target=[0.0, 1.0])
    curve = ici_curve(x1_only(), data, 0, 1, squared_loss())
    assert set(curve.ys) == {0.0}


def test_ici_validation(two_row_identity):
    data, predictor = two_row_identity
    with pytest.raises(InvalidArgumentError):
        ici_curve(predictor, data, 5, 0, squared_loss())
    bare = columns_dataset(x1=[0.0, 2.0])
    with pytest.raises(MissingTargetError):
        ici_curve(predictor, bare, 0, 0, squared_loss())


def test_pi_hand_example(two_row_identity):
    data, predictor = two_row_identity
    curve = pi_curve(predictor, data, 0, squared_loss())
    assert curve.points == [(0.0, 2.0), (2.0, 2.0)]


def test_pi_is_mean_of_ici_curves():
    rng = np.random.default_rng(23)
    data = columns_dataset(
        x1=rng.normal(size=8), x2=rng.normal(size=8), target=rng.normal(size=8)
    )
    predictor = linear_predictor([1.0, -2.0], 0.3)
    pi = pi_curve(predictor, data, 0, squared_loss())
    stack = np.vstack(
        [ici_curve(predictor, data, i, 0, squared_loss()).ys for i in range(8)]
    )
    assert np.max(np.abs(stack.mean(axis=0) - np.asarray(pi.ys))) < 1e-12


def test_pi_single_row_equals_ici():
    data = columns_dataset(x1=[1.5], target=[2.0])
    predictor = x1_only(p=1)
    assert (
        pi_curve(predictor, data, 0, squared_loss()).points
        == ici_curve(predictor, data, 0, 0, squared_loss()).points
    )


def test_pi_keeps_duplicate_observed_values():
    data = columns_dataset(x1=[1.0, 1.0, 3.0], target=[1.0, 1.0, 3.0])
    curve = pi_curve(x1_only(p=1), data, 0, squared_loss())
    assert curve.xs == (1.0, 1.0, 3.0)


def test_pfi_exhaustive_hand_example(two_row_identity):
    data, predictor = two_row_identity
    # all four (observation, value) pairs: (0+4+4+0)/4 = 2
    score = pfi_exhaustive(predictor, data, 0, squared_loss())
    assert score.value == 2.0
    assert score.seed is None and score.method == "pfi_exhaustive"


def test_pfi_exhaustive_equals_mean_of_pi(two_feature_data):
    data = columns_dataset(
        x1=[0.0, 1.0, 5.0], x2=[1.0, 0.0, 2.0], target=[0.5, 1.5, 6.0]
    )
    predictor = linear_predictor([1.0, 0.5])
    pi = pi_curve(predictor, data, 0, squared_loss())
    score = pfi_exhaustive(predictor, data, 0, squared_loss())
    assert score.value == float(np.mean(pi.ys))


def test_pfi_exhaustive_dummy_exactly_zero():
    data = columns_dataset(x1=[0.3, 1.7], x2=[5.0, 6.0], target=[0.3, 1.7])
    assert pfi_exhaustive(x1_only(), data, 1, squared_loss()).value == 0.0


# -- permutation PFI ---------------------------------------------------------------


def test_pfi_permutation_dummy_exactly_zero():
    data = columns_dataset(x1=[0.1, 1.2, 2.3], x2=[9.0, 8.0, 7.0], target=[0.1, 1.2, 2.3])
    for seed in range(5):
        score = pfi_permutation(x1_only(), data, 1, squared_loss(), repeats=3, seed=seed)
        assert score.value == 0.0


def test_pfi_permutation_hand_example_swap(two_row_identity):
    data, predictor = two_row_identity
    # find a master seed whose single child permutation swaps the two rows
    swap_seed = next(
        s
        for s in range(50)
        if list(make_rng(spawn_seeds(s, 1)[0]).permutation(2)) == [1, 0]
    )
    score = pfi_permutation(predictor, data, 0, squared_loss(), repeats=1, seed=swap_seed)
    assert score.value == 4.0  # GE permuted = 4, baseline = 0
    for seed in range(20):
        value = pfi_permutation(predictor, data, 0, squared_loss(), repeats=1, seed=seed).value
        assert value in (0.0, 4.0)


def test_pfi_permutation_deterministic(two_row_identity):
    data, predictor = two_row_identity
    a = pfi_permutation(predictor, data, 0, squared_loss(), repeats=4, seed=11)
    b = pfi_permutation(predictor, data, 0, squared_loss(), repeats=4, seed=11)
    assert a.value == b.value
    assert a.repeats == 4 and a.seed == 11 and a.loss == "squared"


def test_pfi_permutation_validation(two_row_identity):
    data, predictor = two_row_identity
    with pytest.raises(InvalidArgumentError):
        pfi_permutation(predictor, data, 0, squared_loss(), repeats=0)
    bare = columns_dataset(x1=[0.0, 2.0])
    with pytest.raises(MissingTargetError):
        pfi_permutation(predictor, bare, 0, squared_loss())


# -- loss payout and Shapley importance ---------------------------------------------


def test_pfi_payout_empty_coalition(two_row_identity):
    data, predictor = two_row_identity
    assert pfi_payout(predictor, data, [], squared_loss()) == 0.0


def test_pfi_payout_constant_predictor_zero():
    data = columns_dataset(x1=[0.0, 1.0], x2=[2.0, 3.0], target=[0.0, 1.0])
    predictor = constant_predictor(0.5, 2)
    for coalition in ([], [0], [1], [0, 1]):
        assert pfi_payout(predictor, data, coalition, squared_loss()) == 0.0


def test_pfi_payout_single_feature_hand_enumeration(two_row_identity):
    data, predictor = two_row_identity
    # GE with nothing perturbed = 0; GE with x1 exhaustively substituted = 2
    assert pfi_payout(predictor, data, [0], squared_loss()) == 0.0 - 2.0


def test_pfi_payout_permutation_mode_needs_seed(two_row_identity):
    data, predictor = two_row_identity
    with pytest.raises(InvalidArgumentError, match="seed"):
        pfi_payout(predictor, data, [0], squared_loss(), mode="permutation")
    with pytest.raises(InvalidArgumentError, match="mode"):
        pfi_payout(predictor, data, [0], squared_loss(), mode="bogus")
    a = pfi_payout(predictor, data, [0], squared_loss(), mode="permutation", seed=3)
    b = pfi_payout(predictor, data, [0], squared_loss(), mode="permutation", seed=3)
    assert a == b


def test_sfimp_single_feature_equals_payout(two_row_identity):
    data, predictor = two_row_identity
    score = sfimp(predictor, data, 0, squared_loss())
    assert score.value == -2.0
    assert abs(score.value) == 2.0
    assert score.method == "sfimp" and score.mode == "exhaustive"


def test_sfimp_dummy_exactly_zero():
    data = columns_dataset(x1=[0.0, 1.0, 2.0], x2=[4.0, 5.0, 6.0], target=[0.0, 1.0, 2.0])
    assert sfimp(x1_only(), data, 1, squared_loss()).value == 0.0


def test_sfimp_efficiency():
    rng = np.random.default_rng(31)
    data = columns_dataset(
        x1=rng.normal(size=6),
        x2=rng.normal(size=6),
        x3=rng.normal(size=6),
        target=rng.normal(size=6),
    )
    predictor = handle(
        lambda X: np.asarray(X, dtype=float)[:, 0]
        * np.asarray(X, dtype=float)[:, 1]
        + np.asarray(X, dtype=float)[:, 2],
        3,
    )
    total = sum(sfimp(predictor, data, j, squared_loss()).value for j in range(3))
    full = pfi_payout(predictor, data, [0, 1, 2], squared_loss())
    assert abs(total - full) < 1e-10


def test_sfimp_validation(two_row_identity, monkeypatch):
    data, _ = two_row_identity
    predicted = []
    predictor = handle(lambda X: predicted.append(len(X)) or np.asarray(X)[:, 0], 1)
    monkeypatch.setattr(shapley, "EXACT_FEATURE_CAP", 0)
    calls = kernel_calls(monkeypatch)
    for mode, seed in (("exhaustive", None), ("permutation", 3)):
        with pytest.raises(CapacityError):
            sfimp(predictor, data, 0, squared_loss(), mode=mode, seed=seed)
    assert predicted == [] and calls == []
    with pytest.raises(InvalidArgumentError, match="seed"):
        sfimp(predictor, data, 0, squared_loss(), mode="permutation")


@pytest.mark.parametrize("seed", [2.7, True, -1])
@pytest.mark.parametrize("mode", ["exhaustive", "permutation"])
@pytest.mark.parametrize(
    "run",
    [
        lambda f, data, mode, seed: sfimp(f, data, 0, squared_loss(), mode=mode, seed=seed),
        lambda f, data, mode, seed: pfi_payout(f, data, [0], squared_loss(), mode=mode, seed=seed),
    ],
    ids=["sfimp", "pfi_payout"],
)
def test_loss_payouts_reject_a_bad_seed_before_predicting(two_feature_data, run, mode, seed):
    calls = []
    predictor = handle(lambda X: calls.append(len(X)) or np.zeros(len(X)), 2)
    with pytest.raises(InvalidArgumentError, match="non-negative integer"):
        run(predictor, two_feature_data, mode, seed)
    assert calls == []


# -- finite scores ----------------------------------------------------------------


@pytest.mark.parametrize("score", [pfi_permutation, pfi_exhaustive, sfimp])
def test_a_loss_past_the_float_range_is_rejected(score):
    # Squared residuals near 1e400 overflow to inf, and inf - inf is NaN.
    data = columns_dataset(
        x1=[0.0, 1.0, 3.0, 4.0], x2=[1.0, -1.0, 2.0, 0.5], target=[1e200, -2e200, 3e200, 5e199]
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidArgumentError, match="must be finite"):
        score(fit_linear(data), data, 0, squared_loss())
