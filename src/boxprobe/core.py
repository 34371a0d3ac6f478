"""Black-box predictor boundary and the four stage primitives.

Everything in this package composes four primitives over immutable data:
draw a subset of observations (sampling), manipulate feature columns
(intervention), run the black box (prediction), and reduce predictions to
effect or importance estimates (aggregation).

Reproducibility contract
------------------------
All randomness flows through :func:`make_rng`, a PCG64 generator seeded
explicitly; every seed, a non-negative integer, enters numpy through the
one checked function :func:`_seed_sequence`.  Identical (input, seed)
pairs give bit-identical results on any platform.  Batch prediction may
be split across worker threads, but chunks are concatenated in row order
and every aggregation runs over the fully assembled vector, so thread
count changes no result of a row-stable predictor (one that rounds each
row the same in any batch), and stacking copies in one call moves none:
a callable is still called per copy, and the linear reference model takes a
product per copy.  That model's BLAS product is the known exception to the
thread rule: it can round the last rows of a chunk differently.
"""

from __future__ import annotations

import bisect
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .data import Dataset, FeatureMeta, _indices, _integer, _real, decode, encode
from .errors import InvalidArgumentError, ShapeError
from .trace import INTERVENTION, SAMPLING, STAGES, StageRecord, StageTrace, assemble_trace

DEFAULT_STEP_FRACTION = 1e-4
ROW_BUDGET = 1 << 14  # most rows the substitution kernel passes to one predictor call


def _seed_sequence(seed: int, *words: int) -> np.random.SeedSequence:
    """The one place a seed enters numpy.

    Seeds are non-negative integers under the integer rule
    (:func:`~boxprobe.data._integer`): Python or numpy integers, not bools
    or floats.  Extra ``words`` derive another stream from the same seed;
    without them ``PCG64`` draws the stream of ``PCG64(seed)``.
    """
    return np.random.SeedSequence([_integer(seed, "seed"), *words])


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide random generator: PCG64 under an explicit seed."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed)))


def spawn_seeds(seed: int, count: int) -> list[int]:
    """Derive ``count`` (an integer within numpy's index range) independent child seeds from one master seed."""
    count = _integer(count, "count", 0, np.iinfo(np.intp).max)
    state = _seed_sequence(seed).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


# ---------------------------------------------------------------------------
# Predictor boundary
# ---------------------------------------------------------------------------


class PredictorHandle:
    """Opaque deterministic batch predictor.

    Wraps a callable mapping an (m x p) feature matrix to a length-m vector
    of real predictions.  The callable must be deterministic and row-wise
    (each output depends only on its own input row); both properties are
    what make deduplicated, chunked and threaded evaluation transparent.
    Threads change no bit only for a row-stable callable (each row rounded
    the same in any batch); the linear reference model's BLAS product is not.

    The callable sees level strings, in an object matrix unless every
    feature is continuous.  Called with the schema ``meta`` of a code matrix
    (:func:`~boxprobe.data.encode`), one entry per feature, the handle decodes
    it once per call for the callable; reference models read the codes directly.
    A call may stack ``copies`` equal-length copies in its rows: the callable is
    still called once per copy, while a reference model takes them all at once.
    """

    def __init__(self, fn: Callable[[np.ndarray], Any], n_features: int, name: str = "predictor"):
        self._fn = fn
        self.n_features = _integer(n_features, "a predictor's n_features", 1)
        self.name = str(name)

    def _evaluate(self, matrix: np.ndarray, meta: Sequence[FeatureMeta] | None, copies: int) -> np.ndarray:
        parts = np.split(matrix if meta is None else decode(matrix, meta), copies)
        return np.concatenate([self._checked(self._fn(part), len(part)) for part in parts])

    def _checked(self, out: Any, rows: int) -> np.ndarray:
        """``out`` as a float vector of one prediction per row."""
        out = np.asarray(out, dtype=float).reshape(-1)
        if out.shape[0] != rows:
            raise ShapeError(f"predictor {self.name!r} returned {out.shape[0]} predictions for {rows} rows")
        return out

    def __call__(self, matrix: np.ndarray, meta: Sequence[FeatureMeta] | None = None, copies: int = 1) -> np.ndarray:
        matrix = np.asarray(matrix)
        copies = _integer(copies, "copies", 1)
        if matrix.ndim != 2:
            raise ShapeError(f"expected a 2-D feature matrix, got ndim={matrix.ndim}")
        if matrix.shape[1] != self.n_features:
            raise ShapeError(f"predictor {self.name!r} expects {self.n_features} features, got {matrix.shape[1]}")
        if meta is not None and len(meta) != self.n_features:
            raise ShapeError(f"predictor {self.name!r} expects {self.n_features} features, got {len(meta)} schema entries")
        if matrix.shape[0] % copies:
            raise ShapeError(f"{matrix.shape[0]} rows do not split into {copies} equal copies")
        out = self._checked(self._evaluate(matrix, meta, copies), matrix.shape[0])
        if not np.isfinite(out).all():
            raise InvalidArgumentError(f"predictor {self.name!r} returned non-finite predictions")
        return out


class PredictionCache:
    """Predicts the batches of one method run, counts them, and builds its trace.

    ``batches`` and ``rows`` count the logical batches and rows the method
    asked for.  :meth:`trace` builds the run's stage trace and writes them
    into its prediction record, so a result's counts come from the cache
    that predicted.  The substitution kernel :meth:`substitute` counts what
    the estimator is defined to predict, while the predictor sees each
    distinct patched copy of one call's data once.  Predictors are pure, so
    no result changes.
    """

    def __init__(self, threads: int = 1):
        self.threads = _integer(threads, "threads", 1)
        self.batches = 0
        self.rows = 0

    def predict(
        self, predictor: PredictorHandle, matrix: np.ndarray, meta: Sequence[FeatureMeta] | None = None
    ) -> np.ndarray:
        """Predict one batch, counted as one logical batch; with ``meta``, a code matrix."""
        matrix = np.asarray(matrix)
        self.batches += 1
        self.rows += matrix.shape[0]
        return _run_predictor(predictor, matrix, self.threads, meta)

    def substitute(
        self,
        predictor: PredictorHandle,
        data: Dataset,
        plan: Sequence[tuple[Sequence[int | str], Any]],
        rows: Sequence[int] | None = None,
        reduce: Callable[[np.ndarray], np.ndarray] = lambda b: b,
    ) -> np.ndarray:
        """The substitution kernel: predict each copy of ``data`` that the plan names.

        A plan is a sequence of groups ``(features, codes)``, each checked once by
        :meth:`~boxprobe.data.Dataset.check_codes`: q features, by index or name,
        and their codes in the data's code space (:func:`~boxprobe.data.encode`: a
        continuous value is itself, a level its index), of shape (G, q), set in
        every row of a copy, or (G, q, m), one per row of the copy, which holds
        only ``rows`` (integer row indices) if given.  Each of the G rows is one
        copy, one logical batch of m rows; (G, 0) is G unchanged copies.  Returns
        one row of m predictions per copy, in plan order.  Deduplication spans the
        call: copies are distinct by their sorted features and code bytes, so 0.0
        and -0.0 stay apart, and the predictor sees each distinct copy once.  Each
        block of k = max(1, ``ROW_BUDGET`` // m) distinct copies is written, one
        assignment per group, into a reused (k, m, p) stack and predicted in one call
        with ``copies=k`` (:class:`PredictorHandle`): a plain callable still gets one
        call per copy and the linear model one product per copy, so no bit moves even
        for a model whose bits depend on the batch.  A copy of more than
        ``ROW_BUDGET`` rows is split into calls a per-copy loop would not make, and
        such a model may then differ in the last bits.

        ``reduce`` aggregates inside the kernel: it maps a (k, m) block of copies'
        predictions, one copy per row, to k values or k rows, returned per copy in
        place of the predictions (the default keeps the rows).  Each block is
        predicted into a reused (k, m) buffer, with one reducer call per block, so a
        reducing method holds one row budget of predictions however many copies it
        predicts.  The output is copied out of the buffer, so it may be a view of its
        block; the reducer must also accept a block of no copies, which gives its shape.
        """
        if data.n_features != predictor.n_features:
            raise ShapeError(
                f"dataset has {data.n_features} features but predictor "
                f"{predictor.name!r} expects {predictor.n_features}"
            )
        rows = None if rows is None else _indices(rows, "rows", data.n_rows)
        m, p = data.n_rows if rows is None else len(rows), data.n_features
        groups = [data.check_codes(group, m) for group in plan]
        slot: dict[tuple, int] = {}  # features and code bytes -> its distinct copy, in order of first use
        inverse = [slot.setdefault((js, copy.tobytes()), len(slot)) for js, codes in groups for copy in codes]
        self.batches += len(inverse)
        self.rows += len(inverse) * m
        offsets = np.cumsum([0] + [len(codes) for _, codes in groups])  # each group's first copy in the plan
        first = np.unique(inverse, return_index=True)[1]  # each distinct copy's first copy in the plan
        starts = np.searchsorted(first, offsets).tolist()  # group g first uses distinct copies starts[g] to starts[g + 1]
        base = data.codes() if rows is None else data.codes()[rows]
        k = max(1, ROW_BUDGET // max(m, 1))  # copies per block
        stack = np.empty((min(k, len(first)), m, p))  # one block of copies, reused
        buffer = np.empty((len(stack), m))  # its predictions, reused
        out = np.empty((len(first), *np.shape(reduce(buffer[:0]))[1:]))
        for lo in range(0, len(first), k):
            hi = min(lo + k, len(first))
            block, preds = stack[: hi - lo], buffer[: hi - lo]
            block[:] = base
            for g in range(bisect.bisect_right(starts, lo) - 1, bisect.bisect_left(starts, hi)):
                (js, codes), a, b = groups[g], max(starts[g], lo), min(starts[g + 1], hi)
                if js and a < b:  # the group's distinct copies in this block, in one assignment
                    block[a - lo : b - lo, :, js] = codes[first[a:b] - offsets[g]]
            for start in range(0, m, ROW_BUDGET):  # one call per block unless m > ROW_BUDGET, and then k = 1
                flat = block[:, start : start + ROW_BUDGET].reshape(-1, p)
                preds[:, start : start + ROW_BUDGET] = _run_predictor(
                    predictor, flat, self.threads, data.meta, len(block)).reshape(len(block), -1)
            out[lo:hi] = reduce(preds)  # copied out, so a view is safe
        return out if len(out) == len(inverse) else out[inverse]

    def trace(
        self,
        predictor: PredictorHandle,
        data: Dataset,
        intervention: tuple[str, dict],
        aggregation: tuple[str, dict] | None = None,
        sampling: tuple[str, dict] | None = None,
    ) -> StageTrace:
        """The run's stage trace: ``data.provenance``, then each ``(description,
        parameters)`` step in stage order, the prediction step counted by this cache."""
        counts = {"predictor": predictor.name, "batches": self.batches, "rows": self.rows}
        prediction = ("batch predictions from the black-box model", counts)
        steps = zip(STAGES, (sampling, intervention, prediction, aggregation))
        records = [StageRecord(stage, *step) for stage, step in steps if step is not None]
        return assemble_trace(data.provenance, records)


def _worker_count(threads: int) -> int:
    """Pool size for one batch: at most one thread per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(threads, cpus)


def _run_predictor(
    predictor: PredictorHandle, matrix: np.ndarray, threads: int, meta: Sequence[FeatureMeta] | None, copies: int = 1
) -> np.ndarray:
    """Predict the ``copies`` stacked in ``matrix`` in one call, or each in ``threads`` chunks on a pool of its own."""
    m = matrix.shape[0] // copies
    if threads <= 1 or m < 2 * threads:
        return predictor(matrix, meta, copies)
    # Contiguous chunks, none empty as m >= 2 * threads, concatenated in order:
    # identical to one full call for row-wise predictors, regardless of thread count.
    bounds = np.linspace(0, m, threads + 1).astype(int)
    parts = []
    for copy in np.split(matrix, copies):
        chunks = [copy[a:b] for a, b in zip(bounds, bounds[1:])]
        with ThreadPoolExecutor(max_workers=_worker_count(threads)) as pool:
            parts += pool.map(predictor, chunks, [meta] * len(chunks))
    return np.concatenate(parts)


def predict_batch(predictor: PredictorHandle, data: Dataset) -> np.ndarray:
    """Predict on a dataset as it is: the substitution kernel's one unchanged copy."""
    (preds,) = PredictionCache().substitute(predictor, data, [((), np.empty((1, 0)))])
    return preds


# ---------------------------------------------------------------------------
# Loss functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossFunction:
    """Pointwise loss with a stable tag, applied elementwise.

    ``fn`` takes predictions and targets and returns one loss per
    prediction.  It must broadcast: the estimators pass a (k, m) block of
    predictions, k copies of the data, against the (m,) targets, and
    expect a (k, m) block of losses.
    """

    tag: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def check_targets(self, targets: np.ndarray) -> None:
        """Reject targets the loss is undefined on; this loss takes any real target."""

    def targets(self, data: Dataset, purpose: str) -> np.ndarray:
        """The dataset's numeric target, all of it checked once against this loss."""
        target = data.numeric_target(purpose)
        self.check_targets(target)
        return target

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        self.check_targets(targets)
        with np.errstate(over="ignore"):  # an overflowed loss is rejected by the result it reaches
            out = np.asarray(self.fn(np.asarray(predictions, dtype=float), targets), dtype=float)
        if np.any(out < 0):
            raise InvalidArgumentError(f"loss {self.tag!r} produced negative values")
        return out


class _ZeroOneLoss(LossFunction):
    def check_targets(self, targets: np.ndarray) -> None:
        y = np.asarray(targets, dtype=float)
        bad = y[(y != 0) & (y != 1)]
        if bad.size:
            raise InvalidArgumentError(f"zero_one loss needs 0/1 targets, got {float(bad[0])}")


def squared_loss() -> LossFunction:
    return LossFunction("squared", lambda p, y: (p - np.asarray(y, dtype=float)) ** 2)


def absolute_loss() -> LossFunction:
    return LossFunction("absolute", lambda p, y: np.abs(p - np.asarray(y, dtype=float)))


def zero_one_loss(threshold: float = 0.5) -> LossFunction:
    """Misclassification loss: predictions above ``threshold`` mean class 1.

    Targets must be 0 or 1; any other target raises
    :class:`InvalidArgumentError` when the loss is applied, and for the
    whole target when an estimator reads it with :meth:`LossFunction.targets`.
    """
    threshold = _real(threshold, "zero_one threshold")
    return _ZeroOneLoss(
        "zero_one", lambda p, y: ((p > threshold) != np.asarray(y, dtype=float)).astype(float)
    )


_LOSSES = {"squared": squared_loss, "absolute": absolute_loss, "zero_one": zero_one_loss}


def loss_by_name(name: str, threshold: float = 0.5) -> LossFunction:
    if name not in _LOSSES:
        raise InvalidArgumentError(f"unknown loss {name!r}; expected one of {sorted(_LOSSES)}")
    return zero_one_loss(threshold) if name == "zero_one" else _LOSSES[name]()


# ---------------------------------------------------------------------------
# Sampling stage
# ---------------------------------------------------------------------------


def sample_observations(data: Dataset, m: int, seed: int) -> Dataset:
    """Draw ``m`` observations, an integer of at least 1, uniformly without replacement."""
    m = _integer(m, "m", 1)
    n = data.n_rows
    if m > n:
        raise InvalidArgumentError(f"m exceeds n: requested {m} of {n} observations")
    idx = make_rng(seed).choice(n, size=m, replace=False)
    record = StageRecord(
        SAMPLING,
        "uniform subsample without replacement",
        {"m": m, "n": n, "seed": int(seed)},
    )
    return data.replace_columns(((), np.empty((1, 0))), record=record, row_subset=idx)


# ---------------------------------------------------------------------------
# Intervention stage
# ---------------------------------------------------------------------------


def intervene_replace(data: Dataset, values: Mapping[int | str, Any]) -> Dataset:
    """Set the given feature columns to constant values.

    ``values`` maps feature index or name to the replacement value.  An
    empty mapping is the identity and returns the dataset unchanged.
    """
    if not values:
        return data
    js = data.feature_indices(values)
    meta = [data.meta[j] for j in js]
    codes = encode([[v] for v in values.values()], meta)  # checked in the mapping's order
    order = np.argsort(js)
    record = StageRecord(
        INTERVENTION,
        "replace feature columns with fixed values",
        {"features": [meta[k].name for k in order], "values": decode(codes, meta)[0, order].tolist()},
    )
    return data.replace_columns((js, codes), record=record)


def intervene_permute(data: Dataset, feature: int | str, seed: int) -> Dataset:
    """Permute one feature column uniformly at random (other columns untouched)."""
    j = data.feature_index(feature)
    perm = make_rng(seed).permutation(data.n_rows)
    record = StageRecord(
        INTERVENTION,
        "permute feature column",
        {"feature": data.meta[j].name, "seed": int(seed)},
    )
    return data.replace_columns(((j,), data.codes()[perm, j][None, None]), record=record)


def intervene_shift(data: Dataset, feature: int | str, delta: float) -> Dataset:
    """Shift a continuous feature column by ``delta``.

    Shifted values may leave the observed range; that extrapolation is
    exactly what finite-difference methods require.
    """
    j = data.continuous_index(feature, "a shift")
    delta = _real(delta, "shift delta")
    record = StageRecord(
        INTERVENTION,
        "shift feature column",
        {"feature": data.meta[j].name, "delta": delta},
    )
    return data.replace_columns(((j,), _shifted_column(data, j, delta)[None, None]), record=record)


def _shifted_column(data: Dataset, j: int, delta: float) -> np.ndarray:
    """Continuous column ``j`` plus ``delta``; a shift past the float64 range raises."""
    with np.errstate(over="ignore"):
        shifted = data.column(j) + delta
    if not np.isfinite(shifted).all():
        raise InvalidArgumentError(
            f"shifting feature {data.meta[j].name!r} by {delta!r} overflows float64 "
            "to non-finite values"
        )
    return shifted


# ---------------------------------------------------------------------------
# Finite differences and the error estimate
# ---------------------------------------------------------------------------


def default_step(data: Dataset, feature: int | str) -> float:
    """Default finite-difference step: :data:`DEFAULT_STEP_FRACTION` of the observed range.

    Scale-invariant and far from float64 cancellation at tabular-data
    ranges.  A zero range (constant column) falls back to the larger of
    the column magnitude and 1.
    """
    j = data.continuous_index(feature, "finite differencing")
    lo, hi = data.meta[j].observed_range  # always present for continuous columns
    span = hi - lo
    scale = span if span > 0 else max(abs(hi), 1.0)
    return DEFAULT_STEP_FRACTION * scale


def finite_difference(
    predictor: PredictorHandle,
    x: Sequence[Any],
    feature: int,
    h: float,
    cache: PredictionCache | None = None,
) -> tuple[float, float]:
    """Symmetric finite difference of predictions at ``x`` along one feature.

    Returns ``(fd, quotient)`` where ``fd = f(x_j + h, rest) - f(x_j - h, rest)``
    and ``quotient = fd / (2 h)`` approximates the partial derivative.  A
    quotient past the float64 range raises :class:`InvalidArgumentError`.
    """
    h = _real(h, "step h", positive=True)
    x = list(x)
    if predictor.n_features != len(x):
        raise ShapeError(
            f"feature vector has {len(x)} entries, predictor expects {predictor.n_features}"
        )
    point = Dataset([x])  # infers x's schema: numbers are continuous, anything else a level
    j = point.continuous_index(feature, "finite differencing")
    matrix = np.repeat(point.codes(), 2, axis=0)
    matrix[:, j] += h, -h
    cache = cache if cache is not None else PredictionCache()
    preds = cache.predict(predictor, matrix, point.meta)
    fd = float(preds[0]) - float(preds[1])  # Python floats overflow to inf without a warning
    quotient = fd / (2.0 * h)
    if not np.isfinite(quotient):
        raise InvalidArgumentError(f"marginal effects must be finite, got {quotient}")
    return fd, quotient


def estimate_generalization_error(predictor: PredictorHandle, data: Dataset, loss: LossFunction) -> float:
    """Average loss of the predictor on the dataset's observed targets."""
    target = loss.targets(data, "the generalization error")
    value = float(np.mean(loss(predict_batch(predictor, data), target)))
    if not np.isfinite(value):
        raise InvalidArgumentError(f"the generalization error must be finite, got {value}")
    return value
