"""Closed-form oracles for exact Shapley values on random reference models.

A linear model is additive: its prediction is the intercept plus one term
per feature, ``coef * x`` for a continuous feature and the coefficient of
the value's one-hot column (0 for the first level) for a categorical one.
Partial dependence at a coalition then shifts each member's term from its
data mean to its value at the explained point, so the exact Shapley value
of feature j is ``term_j(x_j) - mean(term_j(column_j))``.  On any model the
values over all features sum to the full-coalition payout (efficiency).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boxprobe import CONTINUOUS, Dataset, LinearModel, fit_stump, shapley_exact
from boxprobe.data import encode

NUMBERS = st.floats(-4.0, 4.0, allow_nan=False).map(lambda v: round(v, 2))
LEVELS = st.sampled_from(["a", "b", "c"])


@st.composite
def mixed_points(draw):
    """A table of continuous and categorical columns, a target, and a point."""
    n, p = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    pools = [draw(st.sampled_from([NUMBERS, LEVELS])) for _ in range(p)]
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mixed_points(), st.data())
def test_exact_shapley_on_a_linear_model_is_the_term_minus_its_mean(case, draw):
    data, x = case
    width = sum(1 if m.kind == CONTINUOUS else len(m.levels) - 1 for m in data.meta)
    coefficients = draw.draw(st.lists(NUMBERS, min_size=width, max_size=width))
    model = LinearModel(data.meta, draw.draw(NUMBERS), coefficients)
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
