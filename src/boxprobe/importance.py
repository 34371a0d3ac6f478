"""Feature-importance estimators.

Variance-based scores (standard deviation of the partial dependence, and
its conditional-expected-score restatement) and performance-based scores
(permutation importance, per-observation and averaged loss-change curves,
their exhaustive double average, and the Shapley importance with a
loss-based payout).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .core import (
    LossFunction,
    PredictionCache,
    PredictorHandle,
    _seed_sequence,
    make_rng,
    spawn_seeds,
)
from .data import CONTINUOUS, Dataset, _integer
from .effects import EffectCurve, pd_curve
from .errors import InvalidArgumentError, UndefinedVarianceError
from .shapley import _coalitions, exact_shapley_value
from .trace import AGGREGATION, StageRecord, StageTrace

PERTURB_EXHAUSTIVE = "exhaustive"
PERTURB_PERMUTATION = "permutation"


@dataclass(frozen=True)
class ImportanceScore:
    """Scalar importance of one feature, with method/loss tags and seeds."""

    method: str
    feature: int
    value: float
    trace: StageTrace
    loss: str | None = None
    repeats: int | None = None
    seed: int | None = None
    mode: str | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise InvalidArgumentError(f"importance values must be finite, got {self.value}")
        if self.method in ("pd_sd", "firm") and self.value < 0:
            raise InvalidArgumentError("variance-based importance cannot be negative")


def _sample_sd(values: np.ndarray) -> float:
    """Sample standard deviation; exactly zero for a constant multiset."""
    if len(values) < 2:
        raise UndefinedVarianceError(
            "standard deviation needs at least two values (n = 1 dataset)"
        )
    if np.max(values) == np.min(values):
        return 0.0
    return float(np.std(values, ddof=1))


# ---------------------------------------------------------------------------
# Variance-based importance
# ---------------------------------------------------------------------------


def _pd_spread(
    curve_xs: tuple, curve_ys: np.ndarray, data: Dataset, j: int, description: str
) -> tuple[float, tuple[str, dict]]:
    """Importance from a PD-style curve (per-observation sd, or level range / 4) and its step."""
    if data.meta[j].kind == CONTINUOUS:
        # the curve's value at each of the n observations, duplicates kept
        per_obs = curve_ys[np.searchsorted(np.asarray(curve_xs, dtype=float), data.column(j))]
        return _sample_sd(per_obs), (description, {"spread": "sample sd"})
    return float((np.max(curve_ys) - np.min(curve_ys)) / 4.0), (description, {"spread": "range / 4"})


def _score_trace(curve: EffectCurve, aggregation: tuple[str, dict]) -> StageTrace:
    """The curve's trace with its own aggregation, the last record, replaced by the score's."""
    return StageTrace(curve.trace.records[:-1] + (StageRecord(AGGREGATION, *aggregation),))


def pd_importance(
    predictor: PredictorHandle, data: Dataset, feature: int | str, threads: int = 1
) -> ImportanceScore:
    """Spread of the feature's partial dependence, :func:`pd_curve` on the observed values.

    Continuous features score the sample standard deviation (n - 1
    denominator) of the PD evaluated at each of the n observed values;
    categorical features score the PD range over all levels divided by 4,
    the usual small-sample stand-in for the standard deviation.  Fails
    wherever the PD curve fails.
    """
    j = data.feature_index(feature)
    curve = pd_curve(predictor, data, j, threads=threads)
    description = "partial dependence per grid value, then spread across observed values"
    value, aggregation = _pd_spread(curve.xs, curve.values(), data, j, description)
    return ImportanceScore("pd_sd", j, value, _score_trace(curve, aggregation))


def ces_curve(
    predictor: PredictorHandle, data: Dataset, feature: int | str, threads: int = 1
) -> EffectCurve:
    """Conditional expected score at each observed value of the feature.

    Identical to the partial dependence over the observed-values grid; the
    output is retagged so downstream consumers see which estimator asked.
    """
    return replace(pd_curve(predictor, data, feature, threads=threads), method="ces")


def firm(
    predictor: PredictorHandle, data: Dataset, feature: int | str, threads: int = 1
) -> ImportanceScore:
    """Importance as the spread of the conditional expected score.

    Coincides bit-exactly with :func:`pd_importance`: both apply the same
    spread to the same :func:`pd_curve`; the trace keeps the CES curve's
    own aggregation and adds the spread after it.
    """
    j = data.feature_index(feature)
    curve = ces_curve(predictor, data, j, threads=threads)
    description = "spread of the conditional expected score across observed values"
    value, aggregation = _pd_spread(curve.xs, curve.values(), data, j, description)
    trace = StageTrace(curve.trace.records + (StageRecord(AGGREGATION, *aggregation),))
    return ImportanceScore("firm", j, value, trace)


# ---------------------------------------------------------------------------
# Loss-change curves and permutation importance
# ---------------------------------------------------------------------------


def _sorted_observed(data: Dataset, j: int) -> tuple[np.ndarray, np.ndarray]:
    # The full observation multiset, duplicates kept, and its codes, in one stable
    # sort: the averages below must weight repeated values by their multiplicity.
    column = data.column(j)
    order = np.argsort(column, kind="stable")
    return column[order], data.codes()[order, j]


def ici_curve(
    predictor: PredictorHandle,
    data: Dataset,
    observation: int,
    feature: int | str,
    loss: LossFunction,
    threads: int = 1,
) -> EffectCurve:
    """Loss change for one observation as its feature value is substituted.

    At each observed value ``v`` of the feature (across the whole dataset),
    the curve holds the loss of predicting observation ``i`` (an index) with
    its feature replaced by ``v``, minus the loss at its original value.
    """
    target = loss.targets(data, "ICI")
    j = data.feature_index(feature)
    i = _integer(observation, "observation", 0, data.n_rows - 1)
    values, codes = _sorted_observed(data, j)
    cache = PredictionCache(threads)
    # The row's own code first: the kernel predicts it once with the equal observed value.
    codes = np.insert(codes, 0, data.codes()[i, j])[:, None]
    preds = cache.substitute(predictor, data, [((j,), codes)], rows=[i])
    losses = loss(preds[:, 0], np.repeat(target[i : i + 1], len(preds)))
    with np.errstate(invalid="ignore"):  # inf - inf: the curve rejects the NaN
        ys = losses[1:] - losses[0]
    trace = cache.trace(
        predictor,
        data,
        (
            "substitute each observed feature value into one observation",
            {"feature": data.meta[j].name, "observation": i, "values": len(values)},
        ),
        ("loss change against the observation's original prediction", {"loss": loss.tag}),
    )
    return EffectCurve("ici", j, tuple(values), ys, trace, observation=i)


def pi_curve(
    predictor: PredictorHandle,
    data: Dataset,
    feature: int | str,
    loss: LossFunction,
    threads: int = 1,
) -> EffectCurve:
    """Pointwise mean of all per-observation loss-change curves."""
    j = data.feature_index(feature)
    target = loss.targets(data, "the mean loss change")
    values, codes = _sorted_observed(data, j)
    cache = PredictionCache(threads)
    (unchanged,) = cache.substitute(predictor, data, [((), np.empty((1, 0)))])
    base_losses = loss(unchanged, target)
    # inf - inf: the curve rejects the NaN
    change = np.errstate(invalid="ignore")(lambda b: (loss(b, target) - base_losses).mean(axis=1))
    means = cache.substitute(predictor, data, [((j,), codes[:, None])], reduce=change)
    trace = cache.trace(
        predictor,
        data,
        (
            "substitute each observed feature value into every observation",
            {"feature": data.meta[j].name, "values": len(values)},
        ),
        ("mean loss change over observations at each substituted value", {"loss": loss.tag}),
    )
    return EffectCurve("pi", j, tuple(values), means, trace)


def pfi_exhaustive(
    predictor: PredictorHandle,
    data: Dataset,
    feature: int | str,
    loss: LossFunction,
    threads: int = 1,
) -> ImportanceScore:
    """Permutation importance by exhaustive substitution (no randomness).

    The mean of :func:`pi_curve`: the double average of the loss change
    over every (observation, substituted value) pair.  Fails wherever the
    PI curve fails.
    """
    curve = pi_curve(predictor, data, feature, loss, threads=threads)
    aggregation = (
        "double average of loss changes over all value/observation pairs",
        {"loss": loss.tag, "pairs": len(curve.xs) * data.n_rows},
    )
    trace = _score_trace(curve, aggregation)
    return ImportanceScore("pfi_exhaustive", curve.feature, float(np.mean(curve.values())), trace, loss=loss.tag)


def pfi_permutation(
    predictor: PredictorHandle,
    data: Dataset,
    feature: int | str,
    loss: LossFunction,
    repeats: int = 5,
    seed: int = 0,
    threads: int = 1,
) -> ImportanceScore:
    """Permutation importance: loss increase after shuffling the feature.

    Each repeat permutes the column with an independent child seed and
    scores the generalization-error difference against the intact data;
    the result is the mean over repeats (one permutation has high
    variance, hence the default of five, and ``repeats`` must be at least 1).
    """
    target = loss.targets(data, "permutation importance")
    j = data.feature_index(feature)
    repeats = _integer(repeats, "repeats", 1, np.iinfo(np.intp).max)
    child_seeds = spawn_seeds(seed, repeats)
    cache = PredictionCache(threads)
    column = data.codes()[:, j]
    # The column itself first: the unchanged data, then one permuted copy per repeat.
    copies = [column] + [column[make_rng(child).permutation(data.n_rows)] for child in child_seeds]
    errors = cache.substitute(
        predictor, data, [((j,), np.stack(copies)[:, None])], reduce=lambda b: loss(b, target).mean(axis=1)
    )
    with np.errstate(invalid="ignore"):  # inf - inf: the score rejects the NaN
        value = float(np.mean(errors[1:] - errors[0]))
    trace = cache.trace(
        predictor,
        data,
        (
            "permute the feature column once per repeat",
            {"feature": data.meta[j].name, "seed": int(seed), "child_seeds": child_seeds},
        ),
        ("mean generalization-error increase over repeats", {"loss": loss.tag, "repeats": repeats}),
    )
    return ImportanceScore(
        "pfi_permutation", j, value, trace, loss=loss.tag, repeats=repeats, seed=int(seed)
    )


# ---------------------------------------------------------------------------
# Shapley importance with a loss payout
# ---------------------------------------------------------------------------


def _coalition_seed(seed: int, perturbed: frozenset[int]) -> int:
    state = _seed_sequence(seed, *sorted(perturbed)).generate_state(1, dtype=np.uint32)
    return int(state[0])


def _check_perturbation(data: Dataset, loss: LossFunction, mode: str, seed: int | None) -> None:
    if mode not in (PERTURB_EXHAUSTIVE, PERTURB_PERMUTATION):
        raise InvalidArgumentError(f"unknown perturbation mode {mode!r}")
    if mode == PERTURB_PERMUTATION and seed is None:
        raise InvalidArgumentError("permutation mode needs a seed")
    if seed is not None:  # exhaustive mode records a given seed, so check it too
        _seed_sequence(seed)
    loss.targets(data, "Shapley importance")


def _perturbed_ges(
    predictor: PredictorHandle,
    data: Dataset,
    blocks: list[frozenset[int]],
    loss: LossFunction,
    mode: str,
    seed: int | None,
    cache: PredictionCache,
) -> list[float]:
    """Generalization error with each feature block decoupled from the rest, in one kernel call.

    Exhaustive mode substitutes the block's values from every observation
    in turn and averages over all n^2 (donor, receiver) pairs; permutation
    mode applies one seeded joint permutation of the block; an empty block
    is the unchanged data.  Callers have checked the target with
    :func:`_check_perturbation`.
    """
    plan = []
    for perturbed in blocks:
        block = sorted(perturbed)
        if not block:
            donors = np.empty((1, 0))  # one copy: the unchanged data
        elif mode == PERTURB_PERMUTATION:
            perm = make_rng(_coalition_seed(seed, perturbed)).permutation(data.n_rows)
            donors = data.codes()[:, block][perm].T[None]  # one copy, its codes per row
        else:
            donors = data.codes()[:, block]  # one copy per donor observation
        plan.append((block, donors))
    per_copy = cache.substitute(predictor, data, plan, reduce=lambda b: loss(b, data.target).mean(axis=1))
    ends = np.cumsum([len(donors) for _, donors in plan])
    return [float(np.mean(errors)) for errors in np.split(per_copy, ends[:-1])]


def pfi_payout(
    predictor: PredictorHandle,
    data: Dataset,
    coalition: Iterable[int],
    loss: LossFunction,
    mode: str = PERTURB_EXHAUSTIVE,
    seed: int | None = None,
) -> float:
    """Loss-based coalition payout for the Shapley importance.

    Knowing a coalition means its features stay intact while everything
    outside is perturbed; the payout is that generalization error minus
    the all-perturbed baseline, so the empty coalition pays exactly zero
    and fully informative coalitions pay negatively (loss saved).
    """
    _check_perturbation(data, loss, mode, seed)
    members = frozenset(data.feature_index(k) for k in coalition)
    if not members:
        return 0.0
    everything = frozenset(range(data.n_features))
    blocks = [everything - members, everything]
    ge_known, ge_nothing = _perturbed_ges(predictor, data, blocks, loss, mode, seed, PredictionCache())
    return ge_known - ge_nothing


def sfimp(
    predictor: PredictorHandle,
    data: Dataset,
    feature: int | str,
    loss: LossFunction,
    mode: str = PERTURB_EXHAUSTIVE,
    seed: int | None = None,
    threads: int = 1,
) -> ImportanceScore:
    """Shapley importance: exact coalition formula under the loss payout.

    Uses the same factorially weighted enumeration as the effect Shapley
    value, with :func:`pfi_payout` as the characteristic function; the
    per-feature values therefore sum to the full-coalition payout.  The
    feature count is capped at :data:`~boxprobe.shapley.EXACT_FEATURE_CAP`.
    """
    p = data.n_features
    _check_perturbation(data, loss, mode, seed)
    j = data.feature_index(feature)
    blocks = _coalitions(p)
    cache = PredictionCache(threads)
    # One kernel call per block: one plan for all blocks raised peak RSS from 43 to 197 MB at n = 100, p = 12.
    ge = {block: _perturbed_ges(predictor, data, [block], loss, mode, seed, cache)[0] for block in blocks}
    everything = frozenset(range(p))
    payouts = {k: ge[everything - k] - ge[everything] if k else 0.0 for k in blocks}
    value = exact_shapley_value(payouts.__getitem__, p, j)
    trace = cache.trace(
        predictor,
        data,
        (
            "perturb the feature block outside each coalition",
            {"feature": data.meta[j].name, "mode": mode, "coalitions": 2 ** (p - 1)},
        ),
        (
            "factorially weighted average of loss-payout gains "
            "(payout: error with the coalition intact minus error with everything perturbed)",
            {"loss": loss.tag},
        ),
    )
    return ImportanceScore(
        "sfimp", j, value, trace, loss=loss.tag, seed=seed, mode=mode
    )
