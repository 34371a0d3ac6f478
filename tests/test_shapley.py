"""Shapley values: payout construction, exact enumeration, Monte Carlo."""

import itertools
import math

import numpy as np
import pytest

from boxprobe import intervene_shift, pd_payout, sfimp, shapley_exact, shapley_mc, squared_loss
from boxprobe import shapley
from boxprobe.errors import CapacityError, InvalidArgumentError

from conftest import columns_dataset, constant_predictor, handle, kernel_calls


def payout_oracle(scalar_fn, matrix, x, coalition):
    """Mean-shifted partial dependence computed with plain loops."""
    if not coalition:
        return 0.0
    pd_total, base_total = 0.0, 0.0
    for row in matrix:
        r = list(row)
        for k in coalition:
            r[k] = x[k]
        pd_total += scalar_fn(r)
        base_total += scalar_fn(list(row))
    return (pd_total - base_total) / len(matrix)


def orderings_oracle(scalar_fn, matrix, x, j, p):
    """Average marginal payout gain over all p! feature orderings."""
    memo = {}

    def payout(coalition):
        key = frozenset(coalition)
        if key not in memo:
            memo[key] = payout_oracle(scalar_fn, matrix, x, key)
        return memo[key]

    total = 0.0
    for order in itertools.permutations(range(p)):
        pos = order.index(j)
        before = frozenset(order[:pos])
        total += payout(before | {j}) - payout(before)
    return total / math.factorial(p)


# -- payout ---------------------------------------------------------------------


def test_payout_empty_coalition_pays_exactly_zero(two_feature_data, sum_predictor):
    assert pd_payout(sum_predictor, two_feature_data, (1.0, 2.0), []) == 0.0


def test_payout_full_coalition_hand_example(sum_predictor):
    data = columns_dataset(x1=[0.0, 2.0], x2=[0.0, 4.0])
    value = pd_payout(sum_predictor, data, (2.0, 4.0), [0, 1])
    assert value == 6.0 - 3.0
    assert value == payout_oracle(lambda r: r[0] + r[1], data.matrix().tolist(), (2.0, 4.0), {0, 1})


def test_payout_constant_predictor_zero(two_feature_data):
    predictor = constant_predictor(7.0, 2)
    for coalition in ([], [0], [1], [0, 1]):
        assert pd_payout(predictor, two_feature_data, (1.0, 2.0), coalition) == 0.0


# -- exact ------------------------------------------------------------------------


def test_exact_constant_predictor_zero(two_feature_data):
    predictor = constant_predictor(3.0, 2)
    for j in (0, 1):
        assert shapley_exact(predictor, two_feature_data, (1.0, 2.0), j).value == 0.0


def test_exact_hand_example(sum_predictor):
    data = columns_dataset(x1=[0.0, 2.0], x2=[0.0, 4.0])
    phi1 = shapley_exact(sum_predictor, data, (2.0, 4.0), 0)
    phi2 = shapley_exact(sum_predictor, data, (2.0, 4.0), 1)
    assert abs(phi1.value - 1.0) < 1e-12
    assert abs(phi2.value - 2.0) < 1e-12
    assert abs(phi1.value + phi2.value - phi1.full_coalition_payout) < 1e-12
    assert phi1.full_coalition_payout == 3.0
    assert phi1.mode == "exact"


def test_exact_value_past_the_float_range_is_rejected():
    data = columns_dataset(x1=[0.0, 1.0, 3.0, 4.0], x2=[1.0, -1.0, 2.0, 0.5])
    predictor = handle(lambda X: 1.7e308 * np.sign(np.asarray(X, dtype=float)[:, 0] - 2.0), 2)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidArgumentError, match="must be finite"):
        shapley_exact(predictor, data, (3.0, 0.0), 0)


def test_exact_dummy_feature_is_exactly_zero():
    data = columns_dataset(x1=[0.0, 1.0, 2.0], x2=[5.0, 6.0, 7.0])
    only_x1 = handle(lambda X: 3.0 * np.asarray(X, dtype=float)[:, 0], 2)
    assert shapley_exact(only_x1, data, (1.5, 6.0), 1).value == 0.0


def test_exact_symmetry():
    data = columns_dataset(x1=[0.0, 1.0, 3.0], x2=[0.0, 1.0, 3.0])
    product = handle(
        lambda X: np.asarray(X, dtype=float)[:, 0] * np.asarray(X, dtype=float)[:, 1], 2
    )
    a = shapley_exact(product, data, (2.0, 2.0), 0).value
    b = shapley_exact(product, data, (2.0, 2.0), 1).value
    assert abs(a - b) < 1e-10


def test_exact_additive_closed_form():
    rng = np.random.default_rng(13)
    cols = {f"x{j}": rng.normal(size=10) for j in (1, 2, 3)}
    data = columns_dataset(**cols)
    parts = [lambda v: v**2, lambda v: np.sin(v), lambda v: 3.0 * v]

    def fn(X):
        X = np.asarray(X, dtype=float)
        return parts[0](X[:, 0]) + parts[1](X[:, 1]) + parts[2](X[:, 2])

    predictor = handle(fn, 3)
    x = tuple(float(data.column(j)[0]) for j in range(3))
    for j in range(3):
        expected = parts[j](x[j]) - np.mean(parts[j](data.column(j)))
        assert abs(shapley_exact(predictor, data, x, j).value - expected) < 1e-10


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_exact_equals_all_orderings_brute_force(p):
    rng = np.random.default_rng(100 + p)
    cols = {f"x{j}": rng.normal(size=7) for j in range(p)}
    data = columns_dataset(**cols)

    def scalar_fn(r):
        value = r[0] * r[1 % p] + sum((k + 1) * r[k] ** 2 for k in range(p))
        return float(value)

    predictor = handle(
        lambda X: np.array([scalar_fn(list(row)) for row in np.asarray(X, dtype=float)]), p
    )
    x = tuple(float(v) for v in rng.normal(size=p))
    matrix = data.matrix().tolist()
    for j in range(p):
        oracle = orderings_oracle(scalar_fn, matrix, x, j, p)
        assert abs(shapley_exact(predictor, data, x, j).value - oracle) < 1e-10


def test_exact_capacity_error_points_to_monte_carlo(two_feature_data, sum_predictor, monkeypatch):
    monkeypatch.setattr(shapley, "EXACT_FEATURE_CAP", 1)
    calls = kernel_calls(monkeypatch)
    with pytest.raises(CapacityError, match="Monte Carlo"):
        shapley_exact(sum_predictor, two_feature_data, (1.0, 2.0), 0)
    assert calls == []


@pytest.mark.parametrize(
    "explain",
    [
        lambda predictor, data: shapley_exact(predictor, data, (1.0, 2.0), 0),
        lambda predictor, data: sfimp(predictor, data, 0, squared_loss()),
        lambda predictor, data: sfimp(predictor, data, 0, squared_loss(), "permutation", seed=1),
    ],
    ids=["shapley_exact", "sfimp", "sfimp_permutation"],
)
def test_exact_enumeration_over_the_cap_predicts_nothing(two_feature_data, monkeypatch, explain):
    monkeypatch.setattr(shapley, "EXACT_FEATURE_CAP", 1)
    calls = []
    predictor = handle(lambda X: calls.append(len(X)) or np.zeros(len(X)), 2)
    kernel = kernel_calls(monkeypatch)
    with pytest.raises(CapacityError):
        explain(predictor, two_feature_data)
    assert calls == [] and kernel == []


@pytest.mark.parametrize(
    "n_features, feature, message",
    [
        (3, 5, "feature out of range: 5 is not an integer from 0 to 2"),
        (3, -1, "feature out of range: -1 is not an integer from 0 to 2"),
        (2.5, 0, "n_features must be an integer of at least 1, got 2.5"),
        (-1, 0, "n_features must be an integer of at least 1, got -1"),
        (True, 0, "n_features must be an integer of at least 1, got True"),
    ],
    ids=["feature past the end", "negative feature", "fractional count", "negative count", "bool count"],
)
def test_exact_shapley_value_applies_the_integer_rule(n_features, feature, message):
    """Neither ``math.factorial``'s bare error nor a silent 0.0 from an empty enumeration."""
    payouts = []
    with pytest.raises(InvalidArgumentError) as raised:
        shapley.exact_shapley_value(lambda k: payouts.append(k) or 1.0, n_features, feature)
    assert str(raised.value) == message and payouts == []


# -- Monte Carlo -------------------------------------------------------------------


def test_mc_constant_predictor_zero(two_feature_data):
    predictor = constant_predictor(2.0, 2)
    result = shapley_mc(predictor, two_feature_data, (1.0, 2.0), 0, iterations=50, seed=4)
    assert result.value == 0.0
    assert result.mode == "monte_carlo"
    assert result.iterations == 50 and result.seed == 4


def test_mc_within_three_standard_errors_of_exact(sum_predictor):
    data = columns_dataset(x1=[0.0, 2.0], x2=[0.0, 4.0])
    exact = shapley_exact(sum_predictor, data, (2.0, 4.0), 0).value
    result = shapley_mc(sum_predictor, data, (2.0, 4.0), 0, iterations=2000, seed=8)
    assert result.standard_error is not None and result.standard_error > 0
    assert abs(result.value - exact) < 3 * result.standard_error


def test_mc_deterministic_given_seed(two_feature_data, sum_predictor):
    a = shapley_mc(sum_predictor, two_feature_data, (1.0, 2.0), 0, iterations=200, seed=6)
    b = shapley_mc(sum_predictor, two_feature_data, (1.0, 2.0), 0, iterations=200, seed=6)
    assert a.value == b.value
    assert a.standard_error == b.standard_error


def test_mc_rejects_zero_iterations(two_feature_data, sum_predictor):
    with pytest.raises(InvalidArgumentError):
        shapley_mc(sum_predictor, two_feature_data, (1.0, 2.0), 0, iterations=0, seed=1)


def test_mc_with_one_iteration_reports_no_standard_error(two_feature_data, sum_predictor):
    result = shapley_mc(sum_predictor, two_feature_data, (1.0, 2.0), 0, iterations=1, seed=1)
    assert result.iterations == 1 and result.standard_error is None


def test_mc_trace_records_sampling_seed(two_feature_data, sum_predictor):
    result = shapley_mc(sum_predictor, two_feature_data, (1.0, 2.0), 0, iterations=10, seed=3)
    assert result.trace.stages() == ("sampling", "intervention", "prediction", "aggregation")
    assert result.trace.records[0].parameters["seed"] == 3


def test_exact_predicts_the_baseline_once():
    seen = []

    def fn(X):
        seen.append(np.array(X))
        return np.asarray(X) @ np.array([1.0, 2.0, -1.0])

    data = columns_dataset(a=[0.0, 1.0, 2.0], b=[1.0, 0.0, 1.0], c=[2.0, 2.0, 0.0])
    result = shapley_exact(handle(fn, 3), data, (5.0, 6.0, 7.0), 0)
    assert sum(np.array_equal(X, data.matrix()) for X in seen) == 1
    assert len(seen) == 1 + (2**3 - 1)  # the baseline, then each non-empty coalition
    record = next(r for r in result.trace.records if r.stage == "prediction")
    # Every payout still counts its baseline batch.
    assert (record.parameters["batches"], record.parameters["rows"]) == (2 * 7, 2 * 7 * 3)


def test_mc_on_derived_data_keeps_stage_order():
    data = intervene_shift(columns_dataset(a=[1.0, 1.0, 1.0], b=[1.0, 0.0, 1.0]), "a", 0.5)
    f = handle(lambda X: np.asarray(X, dtype=float) @ np.array([1.0, 2.0]), 2)
    result = shapley_mc(f, data, (5.0, 6.0), "a", 20, seed=3)
    assert result.trace.stages() == (
        "sampling", "intervention", "intervention", "prediction", "aggregation"
    )
    shift, compose = result.trace.records[1:3]
    assert shift.description == "shift feature column"
    assert compose.description.startswith("compose coalition rows")
    assert result.value == 5.0 - 1.5
