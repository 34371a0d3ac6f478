"""Property tests of the substitution kernel on random small data with duplicates.

Whatever the kernel merges, the prediction record counts the grid the
estimator is defined over (G batches of n rows), and the partial dependence
equals the per-point ``intervene_replace`` reference bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from boxprobe import Dataset, custom_grid, ice_curves, intervene_replace, pd_curve

from conftest import handle

# A small pool, so columns and grids repeat values; -0.0 and 0.0 are distinct bits.
VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 2.0])


@st.composite
def cases(draw):
    n, p = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    data = Dataset.from_columns(
        {f"x{k}": draw(st.lists(VALUES, min_size=n, max_size=n)) for k in range(p)}
    )
    j = draw(st.integers(0, p - 1))
    points = sorted(draw(st.lists(VALUES, min_size=1, max_size=8)))
    return data, custom_grid(data, j, points)


def rowwise(X):
    """Exact elementwise operations only, and sensitive to the sign of zero."""
    X = np.asarray(X, dtype=float)
    return np.copysign(1.0, X[:, 0]) * X[:, -1] + 3.0 * X[:, 0] * X[:, 0]


def prediction_counts(trace):
    record = next(r for r in trace.records if r.stage == "prediction")
    return record.parameters["batches"], record.parameters["rows"]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cases())
def test_prediction_records_count_the_whole_grid(case):
    data, grid = case
    predictor = handle(rowwise, data.n_features)
    expected = (len(grid), len(grid) * data.n_rows)
    assert prediction_counts(pd_curve(predictor, data, grid.feature, grid=grid).trace) == expected
    curves = ice_curves(predictor, data, grid.feature, grid=grid)
    assert {prediction_counts(c.trace) for c in curves} == {expected}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cases())
def test_pd_equals_per_point_reference(case):
    data, grid = case
    predictor = handle(rowwise, data.n_features)
    rows = [predictor(intervene_replace(data, {grid.feature: v}).matrix()) for v in grid.points]
    reference = np.vstack(rows).mean(axis=1)
    curve = pd_curve(predictor, data, grid.feature, grid=grid)
    assert curve.values().tobytes() == reference.tobytes()
