"""Closed-form oracles for estimators on random reference models.

A linear model is additive: its prediction is the intercept plus one term
per feature, ``coef * x`` for a continuous feature and the coefficient of
the value's one-hot column (0 for the first level) for a categorical one.
Partial dependence at a coalition then shifts each member's term from its
data mean to its value at the explained point, so the exact Shapley value
of feature j is ``term_j(x_j) - mean(term_j(column_j))``.  On any model the
values over all features sum to the full-coalition payout (efficiency),
checked on random stumps and knn fits.

The same additivity gives partial dependence on feature j at value v as
``intercept + term_j(v) + sum over k != j of mean(term_k)``, PD importance
as that curve's spread, and the PI curve and exhaustive PFI as averages of
the squared loss over all n^2 (observation, substituted value) pairs: with
residual ``r = f - y``, substituting v into observation i moves its residual
to ``r_i - term_j(x_ij) + term_j(v)``.  These are the closed forms of
``bench/checks.py::LinearOracle``, restated on random models of both an
all-continuous and a mixed schema.  So are the ICE curve of observation i,
``f_i - term_j(x_ij) + term_j(v)``, its ICI curve, the squared residual of
that prediction minus ``r_i**2``, and exhaustive SFIMP, the Shapley value
of the payout ``ge(all - K) - ge(all)``, where ``ge(B)`` averages the loss
over every donor's block B substituted into every observation.

The curve-based scores aggregate their curves: on random linear, knn and
stump models, PD importance and FIRM are bit for bit the spread of one PD,
exhaustive PFI is the mean of the PI curve, and each score's trace is its
curve's trace with the curve's aggregation swapped for (or, for FIRM,
followed by) the score's.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxprobe import (
    CONTINUOUS,
    Dataset,
    LinearModel,
    ces_curve,
    firm,
    fit_knn,
    fit_stump,
    ice_curves,
    ici_curve,
    pd_curve,
    pd_importance,
    pfi_exhaustive,
    pi_curve,
    sfimp,
    shapley_exact,
    squared_loss,
)
from boxprobe.data import encode

NUMBERS = st.floats(-4.0, 4.0, allow_nan=False).map(lambda v: round(v, 2))
LEVELS = st.sampled_from(["a", "b", "c"])
KINDS = {"continuous": [NUMBERS], "mixed": [NUMBERS, LEVELS]}


@st.composite
def mixed_points(draw, kinds=(NUMBERS, LEVELS)):
    """A table of columns drawn from ``kinds``, a target, and a point."""
    n, p = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    pools = [draw(st.sampled_from(list(kinds))) for _ in range(p)]
    columns = {f"x{k + 1}": draw(st.lists(pool, min_size=n, max_size=n)) for k, pool in enumerate(pools)}
    target = draw(st.lists(NUMBERS, min_size=n, max_size=n))
    data = Dataset.from_columns(columns, target=target)
    x = tuple(
        draw(NUMBERS) if m.kind == CONTINUOUS else draw(st.sampled_from(m.levels)) for m in data.meta
    )
    return data, x


def linear_terms(model, data, x):
    """Each feature's term at the data's column and at ``x``."""
    coefs = iter(model.coefficients.tolist())
    terms = []
    for j, meta in enumerate(data.meta):
        column = data.column(j)
        if meta.kind == CONTINUOUS:
            coef = next(coefs)
            terms.append((coef * np.asarray(column, dtype=float), coef * x[j]))
        else:
            table = dict(zip(meta.levels, [0.0, *(next(coefs) for _ in meta.levels[1:])]))
            terms.append((np.array([table[str(v)] for v in column]), table[x[j]]))
    return terms


def random_linear_model(data, draw):
    width = sum(1 if m.kind == CONTINUOUS else len(m.levels) - 1 for m in data.meta)
    coefficients = draw.draw(st.lists(NUMBERS, min_size=width, max_size=width))
    return LinearModel(data.meta, draw.draw(NUMBERS), coefficients)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mixed_points(), st.data())
def test_exact_shapley_on_a_linear_model_is_the_term_minus_its_mean(case, draw):
    data, x = case
    model = random_linear_model(data, draw)
    terms = linear_terms(model, data, x)
    scale = max(1.0, sum(float(np.max(np.abs(column))) + abs(at_x) for column, at_x in terms))
    full = 0.0
    for j, (column, at_x) in enumerate(terms):
        result = shapley_exact(model, data, x, j)
        assert abs(result.value - (at_x - float(np.mean(column)))) <= 1e-12 * scale
        full += at_x - float(np.mean(column))
    assert abs(result.full_coalition_payout - full) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mixed_points())
def test_exact_shapley_values_of_a_stump_sum_to_the_full_coalition_payout(case):
    data, x = case
    model = fit_stump(data)
    results = [shapley_exact(model, data, x, j) for j in range(data.n_features)]
    full = results[0].full_coalition_payout
    scale = max(1.0, abs(model.left_value), abs(model.right_value))
    assert abs(sum(r.value for r in results) - full) <= 1e-12 * scale
    (at_x,) = model(encode([[v] for v in x], data.meta), data.meta)
    assert abs(full - (at_x - float(np.mean(model(data.codes(), data.meta))))) <= 1e-12 * scale


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_exact_shapley_values_of_a_knn_model_sum_to_the_full_coalition_payout(draw):
    data, x = draw.draw(mixed_points())
    model = fit_knn(data, draw.draw(st.integers(1, min(3, data.n_rows))))
    results = [shapley_exact(model, data, x, j) for j in range(data.n_features)]
    full = results[0].full_coalition_payout
    scale = max(1.0, float(np.max(np.abs(model.target))))
    assert abs(sum(r.value for r in results) - full) <= 1e-12 * scale
    (at_x,) = model(encode([[v] for v in x], data.meta), data.meta)
    assert abs(full - (at_x - float(np.mean(model(data.codes(), data.meta))))) <= 1e-12 * scale


def term_at(model, data, x, j, values):
    """Feature j's term at each of ``values``, the other features held at ``x``."""
    return np.array([linear_terms(model, data, (*x[:j], v, *x[j + 1 :]))[j][1] for v in values])


@pytest.mark.parametrize("kinds", KINDS.values(), ids=KINDS.keys())
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_pd_and_pd_importance_on_a_linear_model_are_the_closed_form(kinds, draw):
    data, x = draw.draw(mixed_points(kinds))
    model = random_linear_model(data, draw)
    terms = linear_terms(model, data, x)
    scale = max(1.0, abs(model.intercept) + sum(float(np.max(np.abs(c))) for c, _ in terms))
    for j, (column, _) in enumerate(terms):
        curve = pd_curve(model, data, j)
        rest = model.intercept + sum(float(np.mean(c)) for k, (c, _) in enumerate(terms) if k != j)
        want = rest + term_at(model, data, x, j, curve.xs)
        assert np.max(np.abs(np.array(curve.ys) - want)) <= 1e-12 * scale
        if data.meta[j].kind == CONTINUOUS:  # sample sd over the observations
            spread = float(np.std(column, ddof=1))
        else:  # level range / 4
            spread = float(np.max(want) - np.min(want)) / 4.0
        assert abs(pd_importance(model, data, j).value - spread) <= 1e-12 * scale


@pytest.mark.parametrize("kinds", KINDS.values(), ids=KINDS.keys())
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_pi_and_exhaustive_pfi_on_a_linear_model_are_the_n_squared_average(kinds, draw):
    data, x = draw.draw(mixed_points(kinds))
    model = random_linear_model(data, draw)
    terms = linear_terms(model, data, x)
    y = np.asarray(data.target, dtype=float)
    r = model.intercept + sum(c for c, _ in terms) - y
    scale = max(1.0, abs(model.intercept) + float(np.max(np.abs(y)))
                + sum(float(np.max(np.abs(c))) for c, _ in terms))
    for j, (column, _) in enumerate(terms):
        curve = pi_curve(model, data, j, squared_loss())
        moved = (r - column)[None, :] + term_at(model, data, x, j, curve.xs)[:, None]
        want = np.mean(moved**2, axis=1) - np.mean(r**2)  # one row per substituted value
        assert np.max(np.abs(np.array(curve.ys) - want)) <= 1e-12 * scale**2
        pairs = (r - column)[None, :] + column[:, None]  # every donor into every observation
        want = float(np.mean(pairs**2) - np.mean(r**2))
        assert abs(pfi_exhaustive(model, data, j, squared_loss()).value - want) <= 1e-12 * scale**2


@pytest.mark.parametrize("kinds", KINDS.values(), ids=KINDS.keys())
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_ice_and_ici_on_a_linear_model_are_the_closed_form(kinds, draw):
    data, x = draw.draw(mixed_points(kinds))
    model = random_linear_model(data, draw)
    terms = linear_terms(model, data, x)
    y = np.asarray(data.target, dtype=float)
    f = model.intercept + sum(c for c, _ in terms)
    r = f - y
    scale = max(1.0, abs(model.intercept) + float(np.max(np.abs(y)))
                + sum(float(np.max(np.abs(c))) for c, _ in terms))
    for j, (column, _) in enumerate(terms):
        for i, curve in enumerate(ice_curves(model, data, j)):
            want = f[i] - column[i] + term_at(model, data, x, j, curve.xs)
            assert np.max(np.abs(np.array(curve.ys) - want)) <= 1e-12 * scale
            curve = ici_curve(model, data, i, j, squared_loss())
            want = (r[i] - column[i] + term_at(model, data, x, j, curve.xs)) ** 2 - r[i] ** 2
            assert np.max(np.abs(np.array(curve.ys) - want)) <= 1e-12 * scale**2


def exhaustive_sfimp(terms, r, j):
    """Feature j's Shapley value under the loss payout, from the n^2 block average."""
    p, everything = len(terms), frozenset(range(len(terms)))

    def ge(block):
        s = sum((terms[t][0] for t in block), np.zeros_like(r))
        d = r - s
        return float(np.mean(d**2) + 2.0 * np.mean(d) * np.mean(s) + np.mean(s**2))

    def payout(coalition):
        return ge(everything - coalition) - ge(everything) if coalition else 0.0

    others = [k for k in range(p) if k != j]
    return sum(
        math.factorial(size) * math.factorial(p - size - 1) / math.factorial(p)
        * (payout(frozenset(combo) | {j}) - payout(frozenset(combo)))
        for size in range(p)
        for combo in itertools.combinations(others, size)
    )


@pytest.mark.parametrize("kinds", KINDS.values(), ids=KINDS.keys())
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_exhaustive_sfimp_on_a_linear_model_is_the_n_squared_average(kinds, draw):
    data, x = draw.draw(mixed_points(kinds))
    model = random_linear_model(data, draw)
    terms = linear_terms(model, data, x)
    y = np.asarray(data.target, dtype=float)
    r = model.intercept + sum(c for c, _ in terms) - y
    scale = max(1.0, abs(model.intercept) + float(np.max(np.abs(y)))
                + sum(float(np.max(np.abs(c))) for c, _ in terms))
    for j in range(data.n_features):
        got = sfimp(model, data, j, squared_loss()).value
        assert abs(got - exhaustive_sfimp(terms, r, j)) <= 1e-12 * scale**2


def random_model(data, draw, kind):
    if kind == "linear":
        return random_linear_model(data, draw)
    if kind == "knn":
        return fit_knn(data, draw.draw(st.integers(1, data.n_rows)))
    return fit_stump(data)


def swapped(curve, score):
    """The curve's records but the last, then the score's last: a score that
    aggregates its curve once more has exactly this trace."""
    return (*curve.trace.records[:-1], score.trace.records[-1])


@pytest.mark.parametrize("kind", ["linear", "knn", "stump"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(mixed_points(), st.data())
def test_each_curve_based_score_aggregates_its_curve(kind, case, draw):
    data, _ = case
    model = random_model(data, draw, kind)
    loss = squared_loss()
    for j in range(data.n_features):
        pd, score, ces, firm_score = (
            pd_curve(model, data, j), pd_importance(model, data, j),
            ces_curve(model, data, j), firm(model, data, j),
        )
        assert firm_score.value.hex() == score.value.hex()
        assert score.trace.records == swapped(pd, score)
        assert firm_score.trace.records[:-1] == ces.trace.records
        pi, pfi = pi_curve(model, data, j, loss), pfi_exhaustive(model, data, j, loss)
        assert pfi.value.hex() == float(np.mean(pi.ys)).hex()
        assert pfi.trace.records == swapped(pi, pfi)
        for curve, aggregated in ((pd, score), (pi, pfi)):
            last, own = aggregated.trace.records[-1], curve.trace.records[-1]
            assert last.stage == own.stage == "aggregation" and last != own
