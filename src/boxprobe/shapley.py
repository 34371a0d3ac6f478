"""Shapley values for single predictions.

The payout of a feature coalition is the partial-dependence value of the
explained point at the coalition's features, shifted by the mean prediction
so the empty coalition pays exactly zero.  Feature contributions are the
factorially weighted average payout gains over all coalitions (exact mode)
or a permutation-sampling estimate (Monte Carlo mode).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .core import (
    PredictionCache,
    PredictorHandle,
    make_rng,
)
from .data import Dataset, _integer, encode
from .errors import CapacityError, InvalidArgumentError
from .trace import StageTrace

EXACT_FEATURE_CAP = 12


@dataclass(frozen=True)
class ShapleyExplanation:
    """Contribution of one feature to the prediction at one explained point."""

    x: tuple[Any, ...]
    feature: int
    value: float
    full_coalition_payout: float
    mode: str
    trace: StageTrace
    iterations: int | None = None
    seed: int | None = None
    standard_error: float | None = None

    def __post_init__(self) -> None:
        if not np.isfinite([self.value, self.full_coalition_payout]).all():
            raise InvalidArgumentError("Shapley values and payouts must be finite")


def coalition_weight(coalition_size: int, n_features: int) -> float:
    """Weight of one coalition in the exact value: |K|! (p - |K| - 1)! / p!."""
    return (
        math.factorial(coalition_size)
        * math.factorial(n_features - coalition_size - 1)
        / math.factorial(n_features)
    )


def _coalitions(n_features: int) -> list[frozenset[int]]:
    """Every coalition of ``n_features`` features, by size, then lexicographically.

    Checks :data:`EXACT_FEATURE_CAP` first, so no caller that enumerates
    through here predicts beyond the cap.
    """
    if n_features > EXACT_FEATURE_CAP:
        raise CapacityError(
            f"exact enumeration over {n_features} features exceeds the cap of "
            f"{EXACT_FEATURE_CAP}; Monte Carlo sampling scales to more features"
        )
    features = range(n_features)
    return [frozenset(k) for size in range(n_features + 1) for k in itertools.combinations(features, size)]


def exact_shapley_value(
    payout: Callable[[frozenset[int]], float], n_features: int, feature: int
) -> float:
    """Exact value of ``feature`` under an arbitrary coalition payout function.

    Sums the factorially weighted marginal payout gains over every coalition
    of :func:`_coalitions` not containing the feature.  Shared by the
    effect-based and the performance-based (loss payout) Shapley computations.
    """
    n_features = _integer(n_features, "n_features", 1)
    feature = _integer(feature, "feature", 0, n_features - 1)
    total = 0.0
    for coalition in _coalitions(n_features):
        if feature not in coalition:
            weight = coalition_weight(len(coalition), n_features)
            total += weight * (payout(coalition | {feature}) - payout(coalition))
    return total


def pd_payout(
    predictor: PredictorHandle,
    data: Dataset,
    x: Sequence[Any],
    coalition: Iterable[int],
) -> float:
    """Coalition payout: partial dependence at ``x_K`` minus the mean prediction.

    The empty coalition pays exactly zero by construction.
    """
    x = data.check_vector(x)
    members = frozenset(data.feature_index(k) for k in coalition)
    if not members:
        return 0.0
    return _pd_payouts(predictor, data, x, [members], PredictionCache())[0]


def _pd_payouts(
    predictor: PredictorHandle, data: Dataset, x: tuple, members: Sequence[Iterable[int]],
    cache: PredictionCache,
) -> list[float]:
    """:func:`pd_payout` of each non-empty coalition of column indices, at a vector
    ``x`` that :meth:`Dataset.check_vector` returned: one kernel call, each
    coalition's copy, then one unchanged copy per coalition."""
    code = encode([[v] for v in x], data.meta)[0]
    plan = [(js, code[js][None]) for js in map(sorted, members)] + [((), np.empty((len(members), 0)))]
    means = cache.substitute(predictor, data, plan, reduce=lambda b: b.mean(axis=1))
    return (means[: len(members)] - means[len(members) :]).tolist()


def shapley_exact(
    predictor: PredictorHandle,
    data: Dataset,
    x: Sequence[Any],
    feature: int | str,
    threads: int = 1,
) -> ShapleyExplanation:
    """Exact Shapley value of one feature at the explained point ``x``.

    Enumerates all 2^(p-1) coalitions of the remaining features, so the
    feature count is capped at :data:`EXACT_FEATURE_CAP`; beyond the cap
    use :func:`shapley_mc`.
    """
    p = data.n_features
    j = data.feature_index(feature)
    x = data.check_vector(x)
    cache = PredictionCache(threads)
    coalitions = _coalitions(p)
    payouts = dict(zip(coalitions, [0.0, *_pd_payouts(predictor, data, x, coalitions[1:], cache)]))
    value = exact_shapley_value(payouts.__getitem__, p, j)
    full = payouts[coalitions[-1]]
    trace = cache.trace(
        predictor,
        data,
        (
            "replace coalition columns with the explained point's values, all coalitions",
            {"feature": data.meta[j].name, "coalitions": 2 ** (p - 1)},
        ),
        (
            "factorially weighted average of marginal payout gains",
            {"payout": "mean-shifted partial dependence"},
        ),
    )
    return ShapleyExplanation(
        x=x,
        feature=j,
        value=value,
        full_coalition_payout=full,
        mode="exact",
        trace=trace,
    )


def shapley_mc(
    predictor: PredictorHandle,
    data: Dataset,
    x: Sequence[Any],
    feature: int | str,
    iterations: int,
    seed: int,
    threads: int = 1,
) -> ShapleyExplanation:
    """Monte Carlo Shapley value via permutation sampling.

    Each iteration draws a uniformly random feature ordering and one
    background observation ``z``; features up to and including the explained
    feature (in that ordering) take their values from ``x``, the rest from
    ``z``, and the contribution is the prediction difference between the
    composition with and without the explained feature.  The estimate is
    the mean contribution over all ``iterations``, an integer of at least 1;
    with at least two its sampling standard error is reported alongside.
    """
    iterations = _integer(iterations, "iterations", 1, np.iinfo(np.intp).max)
    j = data.feature_index(feature)
    x = data.check_vector(x)
    p = data.n_features
    n = data.n_rows
    matrix = data.codes()

    rng = make_rng(seed)
    orders = np.empty((iterations, p), dtype=np.intp)
    background = np.empty(iterations, dtype=np.intp)
    for it in range(iterations):
        orders[it] = rng.permutation(p)
        background[it] = rng.integers(n)
    rank = np.argsort(orders, axis=1)  # rank[it, k]: position of feature k in draw it
    # Features up to and including the explained one take x's values.
    from_x = rank <= rank[:, j, None]
    z = matrix[background]
    explained = encode([[v] for v in x], data.meta)[0]
    rows = np.empty((2 * iterations, p))
    rows[0::2] = np.where(from_x, explained, z)
    from_x[:, j] = False
    rows[1::2] = np.where(from_x, explained, z)

    cache = PredictionCache(threads)
    preds = cache.predict(predictor, rows, data.meta)
    contributions = preds[0::2] - preds[1::2]
    value = float(np.mean(contributions))
    se = (
        float(np.std(contributions, ddof=1) / math.sqrt(iterations))
        if iterations > 1
        else None
    )
    (full,) = _pd_payouts(predictor, data, x, [range(p)], cache)

    trace = cache.trace(
        predictor,
        data,
        (
            "compose coalition rows from the explained point and the background draw",
            {"feature": data.meta[j].name},
        ),
        ("mean marginal contribution over iterations", {"iterations": iterations}),
        sampling=(
            "draw a feature ordering and one background observation per iteration",
            {"iterations": iterations, "seed": int(seed)},
        ),
    )
    return ShapleyExplanation(
        x=x,
        feature=j,
        value=value,
        full_coalition_payout=full,
        mode="monte_carlo",
        trace=trace,
        iterations=iterations,
        seed=int(seed),
        standard_error=se,
    )
