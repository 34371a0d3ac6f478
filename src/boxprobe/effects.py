"""Feature-effect estimators.

Individual conditional expectation (ICE) and partial dependence (PD)
curves, first-order accumulated local effects (ALE), marginal effects,
and local surrogate (LIME-style) explanations.  Every estimator here is a
composition of the stage primitives in :mod:`boxprobe.core` and returns a
result carrying its stage trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .core import (
    PredictionCache,
    PredictorHandle,
    _shifted_column,
    default_step,
    finite_difference,
    make_rng,
)
from .data import CATEGORICAL, CONTINUOUS, Dataset, _codes, _integer, _real, _reals, encode
from .errors import DegenerateBinningError, InvalidArgumentError, SingularFitError
from .trace import StageTrace

OBSERVED_VALUES = "observed_values"
EQUIDISTANT = "equidistant"
CUSTOM = "custom"


@dataclass(frozen=True)
class Grid:
    """Evaluation points for one feature: sorted reals or categorical levels."""

    feature: int
    points: tuple[Any, ...]
    kind: str
    source: str

    def __post_init__(self) -> None:
        if len(self.points) == 0:
            raise InvalidArgumentError("a grid needs at least one point")
        if self.kind == CONTINUOUS:
            values = _reals(self.points, f"grid of feature {self.feature}").tolist()
            if any(a > b for a, b in zip(values, values[1:])):
                raise InvalidArgumentError("continuous grid points must be sorted ascending")
            object.__setattr__(self, "points", tuple(values))
        else:
            object.__setattr__(self, "points", tuple(str(v) for v in self.points))

    def __len__(self) -> int:
        return len(self.points)


def observed_grid(data: Dataset, feature: int | str) -> Grid:
    """Default grid: sorted unique observed values, or all registered levels."""
    j = data.feature_index(feature)
    meta = data.meta[j]
    if meta.kind == CONTINUOUS:
        return Grid(j, tuple(np.unique(data.column(j))), CONTINUOUS, OBSERVED_VALUES)
    return Grid(j, meta.levels, CATEGORICAL, OBSERVED_VALUES)


def equidistant_grid(data: Dataset, feature: int | str, k: int) -> Grid:
    """``k`` (an integer of at least 2) equally spaced points spanning the observed range."""
    j = data.continuous_index(feature, "an equidistant grid")
    k = _integer(k, "an equidistant grid's k", 2, np.iinfo(np.intp).max)
    lo, hi = data.meta[j].observed_range
    return Grid(j, tuple(np.linspace(lo, hi, k)), CONTINUOUS, EQUIDISTANT)


def custom_grid(data: Dataset, feature: int | str, values: Sequence[Any]) -> Grid:
    j = data.feature_index(feature)
    meta = data.meta[j]
    points = tuple(data.check_value(j, v) for v in values)
    return Grid(j, points, meta.kind, CUSTOM)


@dataclass(frozen=True)
class EffectCurve:
    """Ordered (grid value, effect value) pairs with a method tag and trace.

    Grid values are strictly increasing for curves built on deduplicated
    grids (ICE/PD/ALE/CES) and non-decreasing for curves indexed by the raw
    observation multiset (ICI/PI keep duplicate observed values so their
    averages match the estimator definitions bit-exactly).
    """

    method: str
    feature: int | tuple[int, ...]
    xs: tuple[Any, ...]
    ys: tuple[float, ...]
    trace: StageTrace
    observation: int | None = None

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys):
            raise InvalidArgumentError("curve needs one effect value per grid point")
        if len(self.xs) == 0:
            raise InvalidArgumentError("curve needs at least one point")
        ys = np.asarray(self.ys, dtype=float)
        if not np.isfinite(ys).all():
            raise InvalidArgumentError("effect values must be finite")
        object.__setattr__(self, "ys", tuple(ys.tolist()))
        if isinstance(self.feature, int) and all(
            issubclass(t, (int, float)) for t in set(map(type, self.xs))
        ):
            xs = np.asarray(self.xs, dtype=float)
            if (xs[:-1] > xs[1:]).any():
                raise InvalidArgumentError("grid values must be non-decreasing")
            object.__setattr__(self, "xs", tuple(xs.tolist()))

    @property
    def points(self) -> list[tuple[Any, float]]:
        return list(zip(self.xs, self.ys))

    def values(self) -> np.ndarray:
        return np.asarray(self.ys, dtype=float)


# ---------------------------------------------------------------------------
# ICE and PD
# ---------------------------------------------------------------------------


def _resolve_feature_set(
    data: Dataset,
    features: int | str | Sequence[int | str],
    grid: Grid | Sequence[Grid] | None,
) -> tuple[list[int], list[Grid]]:
    """Normalize a feature-or-set spec, any 0-d value being one feature, plus the matching grids."""
    if np.ndim(features) == 0:
        feature_list = [data.feature_index(features)]
    else:
        feature_list = list(data.feature_indices(features))
        if not feature_list:
            raise InvalidArgumentError("feature set must not be empty")
    if grid is None:
        grids = [observed_grid(data, j) for j in feature_list]
    elif isinstance(grid, Grid):
        grids = [grid]
    else:
        grids = list(grid)
    if len(grids) != len(feature_list) or any(
        g.feature != j for g, j in zip(grids, feature_list)
    ):
        raise InvalidArgumentError("need one grid per feature, in order")
    return feature_list, grids


def _substitute_grid(
    predictor: PredictorHandle,
    data: Dataset,
    features: int | str | Sequence[int | str],
    grid: Grid | Sequence[Grid] | None,
    threads: int,
    reduce: Callable[[np.ndarray], np.ndarray],
) -> tuple[int | tuple[int, ...], tuple[Any, ...], np.ndarray, PredictionCache, tuple]:
    """Predict every grid point of a feature or feature set.

    Returns the curve's feature and grid values, one reduced value or row
    per grid point, in grid order, as ``reduce`` makes it in the kernel of
    one column per observation, the cache that predicted them and the
    intervention step.
    """
    feature_list, grids = _resolve_feature_set(data, features, grid)
    points = list(itertools.product(*(g.points for g in grids)))
    codes = np.array(list(itertools.product(*(_codes(g.points, data.meta[g.feature]) for g in grids))))
    cache = PredictionCache(threads)
    preds = cache.substitute(predictor, data, [(feature_list, codes)], reduce=reduce)
    intervention = (
        "replace feature columns with each grid value",
        {
            "features": [data.meta[g.feature].name for g in grids],
            "grid_points": len(points),
            "grid_source": [g.source for g in grids],
        },
    )
    if len(feature_list) == 1:
        return feature_list[0], tuple(p[0] for p in points), preds, cache, intervention
    return tuple(feature_list), tuple(points), preds, cache, intervention


def _ice_row(
    predictor: PredictorHandle,
    data: Dataset,
    features: int | str | Sequence[int | str],
    grid: Grid | Sequence[Grid] | None,
    threads: int,
    row: int,
) -> EffectCurve:
    """The ICE curve of observation ``row``: the kernel keeps only its column of the grid."""
    row = _integer(row, "row", 0, data.n_rows - 1)
    feature, xs, preds, cache, intervention = _substitute_grid(
        predictor, data, features, grid, threads, reduce=lambda b: b[:, row]
    )
    trace = cache.trace(predictor, data, intervention)
    return EffectCurve("ice", feature, xs, preds, trace, observation=row)


def ice_curves(
    predictor: PredictorHandle,
    data: Dataset,
    features: int | str | Sequence[int | str],
    grid: Grid | Sequence[Grid] | None = None,
    threads: int = 1,
) -> list[EffectCurve]:
    """One individual conditional expectation curve per observation.

    Curve ``i`` holds the prediction for observation ``i`` with the chosen
    feature forced to each grid value in turn; all remaining features stay
    at their observed values.  A feature set evaluates over the Cartesian
    product of the per-feature grids (grid values become tuples).
    """
    feature, xs, preds, cache, intervention = _substitute_grid(
        predictor, data, features, grid, threads, reduce=lambda b: b
    )
    trace = cache.trace(predictor, data, intervention)
    return [
        EffectCurve("ice", feature, xs, preds[:, i], trace, observation=i)
        for i in range(data.n_rows)
    ]


def pd_curve(
    predictor: PredictorHandle,
    data: Dataset,
    features: int | str | Sequence[int | str],
    grid: Grid | Sequence[Grid] | None = None,
    threads: int = 1,
) -> EffectCurve:
    """Partial dependence of the prediction on one feature (or a feature set).

    At each grid point the remaining features are marginalized out by
    averaging predictions over all observed background rows.  With a single
    feature this is the pointwise mean of the ICE curves.  With a feature
    set the curve runs over the Cartesian product of the per-feature grids
    (grid values become tuples); if the set covers every feature there is
    nothing to marginalize and the curve is the prediction itself.
    """
    feature, xs, means, cache, intervention = _substitute_grid(
        predictor, data, features, grid, threads, reduce=lambda b: b.mean(axis=1)
    )
    aggregation = (
        "mean prediction over background rows at each grid point",
        {"background_rows": data.n_rows},
    )
    trace = cache.trace(predictor, data, intervention, aggregation)
    return EffectCurve("pd", feature, xs, means, trace)


# ---------------------------------------------------------------------------
# Accumulated local effects
# ---------------------------------------------------------------------------


def _ale_bins(column: np.ndarray, num_intervals: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantile interval edges plus per-observation interval assignment.

    Duplicate quantile edges collapse.  An interval left empty by the
    interpolated quantiles merges into its left neighbour (the leftmost
    into its right), in one pass: the first and the last edge stay, and an
    interior edge stays only when the interval it opens and some interval
    before it both hold an observation, so every interval holds one.
    """
    edges = np.unique(np.quantile(column, np.linspace(0.0, 1.0, num_intervals + 1)))
    if len(edges) < 2:
        raise DegenerateBinningError(
            "feature has a single distinct value; no intervals can be formed"
        )

    def assign(e: np.ndarray) -> np.ndarray:
        return np.clip(np.searchsorted(e, column, side="left") - 1, 0, len(e) - 2)

    counts = np.bincount(assign(edges), minlength=len(edges) - 1)
    edges = edges[np.concatenate(([True], (counts[1:] > 0) & (np.cumsum(counts)[:-1] > 0), [True]))]
    return edges, assign(edges)


def ale_first_order(
    predictor: PredictorHandle,
    data: Dataset,
    feature: int | str,
    num_intervals: int,
    threads: int = 1,
) -> EffectCurve:
    """First-order accumulated local effects curve.

    The observed range of the feature is split into quantile intervals.
    For each observation the feature is substituted by its interval's right
    and left boundary and the prediction difference taken; these finite
    differences are averaged per interval (local effects), accumulated
    across intervals, and centered by the data-weighted mean of the
    accumulated curve (each observation contributing the accumulated value
    at its interval's right boundary).  Returns one point per interval
    boundary, so ``num_intervals`` intervals yield ``num_intervals + 1``
    curve points (fewer if degenerate intervals were merged).
    """
    j = data.continuous_index(feature, "ALE")
    column = data.column(j)
    edges, idx = _ale_bins(column, _integer(num_intervals, "num_intervals", 1, np.iinfo(np.intp).max))
    n_int = len(edges) - 1

    cache = PredictionCache(threads)
    counts = np.bincount(idx, minlength=n_int)
    members = np.split(np.argsort(idx, kind="stable"), np.cumsum(counts)[:-1])  # row order per interval
    local_effects = np.empty(n_int)
    for k, rows in enumerate(members):
        upper, lower = cache.substitute(predictor, data, [((j,), edges[[k + 1, k], None])], rows=rows)
        local_effects[k] = np.mean(upper - lower)

    accumulated = np.cumsum(local_effects)
    center = float(np.sum(accumulated * counts) / data.n_rows)
    ys = np.concatenate(([0.0], accumulated)) - center

    trace = cache.trace(
        predictor,
        data,
        (
            "substitute interval boundaries for each observation's feature value",
            {"feature": data.meta[j].name, "intervals": n_int, "edges": [float(e) for e in edges]},
        ),
        (
            "average finite differences per interval, accumulate, center by data-weighted mean",
            {"interval_counts": [int(c) for c in counts]},
        ),
    )
    return EffectCurve("ale", j, tuple(float(e) for e in edges), tuple(ys), trace)


# ---------------------------------------------------------------------------
# Marginal effects
# ---------------------------------------------------------------------------


def marginal_effect(
    predictor: PredictorHandle,
    x: Sequence[Any],
    feature: int,
    h: float,
    cache: PredictionCache | None = None,
) -> float:
    """Symmetric difference quotient of the prediction at one point."""
    _, quotient = finite_difference(predictor, x, feature, h, cache=cache)
    return quotient


@dataclass(frozen=True)
class AverageMarginalEffect:
    """Mean symmetric difference quotient of one feature at step ``h``."""

    feature: int
    h: float
    value: float
    trace: StageTrace

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise InvalidArgumentError(f"marginal effects must be finite, got {self.value}")


def average_marginal_effect(
    predictor: PredictorHandle,
    data: Dataset,
    feature: int | str,
    h: float | None = None,
    threads: int = 1,
) -> AverageMarginalEffect:
    """Mean symmetric difference quotient over all observed rows (default ``h``: default_step)."""
    j = data.continuous_index(feature, "a marginal effect")
    if h is None:
        h = default_step(data, j)
    h = _real(h, "step h", positive=True)
    cache = PredictionCache(threads)
    shifts = np.stack([_shifted_column(data, j, h), _shifted_column(data, j, -h)])[:, None]
    upper, lower = cache.substitute(predictor, data, [((j,), shifts)])
    value = float(np.mean((upper - lower) / (2.0 * h)))
    trace = cache.trace(
        predictor,
        data,
        ("shift the feature by plus and minus h", {"feature": data.meta[j].name, "h": h}),
        ("symmetric difference quotient, averaged over observed rows", {"h": h}),
    )
    return AverageMarginalEffect(j, h, value, trace)


# ---------------------------------------------------------------------------
# Local surrogate (LIME)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimeExplanation:
    """Weighted linear surrogate fitted around one explained point."""

    x: tuple[Any, ...]
    feature: int
    intercept: float
    slope: float
    kernel_width: float
    perturbation_sd: float
    num_samples: int
    seed: int
    trace: StageTrace

    def __post_init__(self) -> None:
        if not np.isfinite(self.slope) or not np.isfinite(self.intercept):
            raise SingularFitError("surrogate fit produced non-finite coefficients")


def lime_explain(
    predictor: PredictorHandle,
    data: Dataset,
    x: Sequence[Any],
    feature: int | str,
    num_samples: int = 100,
    kernel_width: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> LimeExplanation:
    """Fit a proximity-weighted line to predictions around ``x``.

    The explained feature is perturbed with Gaussian noise (sd = sample sd
    of the feature column) while all other features stay fixed at their
    values in ``x``; predictions are weighted by ``exp(-d^2 / width^2)`` in
    the distance ``d`` to the original value and a weighted least-squares
    line is fitted through them.  The default kernel width is 0.75 times
    the column's sample sd.  Exact for affine predictors under any
    positive weights.
    """
    j = data.continuous_index(feature, "the linear surrogate")
    meta = data.meta[j]
    num_samples = _integer(num_samples, "num_samples", 3, np.iinfo(np.intp).max)
    x = data.check_vector(x)
    center = float(x[j])

    column = data.column(j)
    sd = float(np.std(column, ddof=1)) if len(column) > 1 else 0.0
    if sd == 0.0:
        raise SingularFitError(
            f"feature {meta.name!r} has zero sample sd; perturbed values would all coincide"
        )
    kernel_width = 0.75 * sd if kernel_width is None else _real(kernel_width, "kernel width", positive=True)

    rng = make_rng(seed)
    perturbed = center + sd * rng.standard_normal(num_samples)
    matrix = np.repeat(encode([[v] for v in x], data.meta), num_samples, axis=0)
    matrix[:, j] = perturbed

    cache = PredictionCache(threads)
    preds = cache.predict(predictor, matrix, data.meta)
    weights = np.exp(-((perturbed - center) ** 2) / kernel_width**2)

    if np.unique(perturbed).size < 2:
        raise SingularFitError("all perturbed values coincide; surrogate line is undetermined")
    sw = np.sqrt(weights)
    design = np.column_stack((np.ones(num_samples), perturbed)) * sw[:, None]
    coef, _, rank, _ = np.linalg.lstsq(design, preds * sw, rcond=None)
    if rank < 2:
        raise SingularFitError("weighted design is rank deficient")

    trace = cache.trace(
        predictor,
        data,
        (
            "perturb the explained feature with Gaussian noise around its value",
            {
                "feature": meta.name,
                "num_samples": num_samples,
                "perturbation_sd": sd,
                "seed": int(seed),
            },
        ),
        (
            "proximity-weighted least-squares line through the predictions",
            {"kernel_width": kernel_width},
        ),
    )
    return LimeExplanation(
        x=x,
        feature=j,
        intercept=float(coef[0]),
        slope=float(coef[1]),
        kernel_width=kernel_width,
        perturbation_sd=sd,
        num_samples=num_samples,
        seed=int(seed),
        trace=trace,
    )
