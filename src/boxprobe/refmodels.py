"""Deterministic reference predictors.

Small models with analytically predictable behavior, used as black boxes
in tests, examples, and the CLI: ordinary least squares, k-nearest
neighbours, and a single split stump.  No regularization and no stochastic
training anywhere; every tie breaks toward the lowest index so a fit is a
pure function of its data.  All models satisfy the batch-predictor
contract and can be saved to (and restored from) a self-describing text
format.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

import numpy as np

from .core import PredictorHandle
from .data import CONTINUOUS, Dataset, FeatureMeta, _integer, _real, _reals, decode, encode
from .dataio import write_text
from .errors import DataFormatError, InvalidArgumentError, NumericRangeError, SingularFitError

MODEL_FORMAT = "boxprobe-model"
MODEL_VERSION = 1
BUDGET = 1 << 18  # bytes of one knn distance buffer or linear design; sets their block sizes


class ReferenceModel(PredictorHandle):
    """Base for fitted reference predictors; adds a serializable schema.

    The schema holds each feature's name, kind and levels (no observed range).
    Constructors check every parameter, each real one by the data layer's
    real-number rule; fitting and loading both pass there.
    ``_predict(X, copies)`` reads a code matrix over the schema whose rows stack
    ``copies`` equal-length copies, in one call; knn and the stump are row-stable
    and ignore ``copies``.  A matrix of level
    strings, or codes over other levels, is decoded and encoded over the
    schema first, so each value passes the one value rule
    (:func:`~boxprobe.data.encode`).
    """

    kind = "reference"

    def __init__(self, schema: Sequence[FeatureMeta]):
        self.schema = tuple(FeatureMeta(m.name, m.kind, m.levels) for m in schema)
        super().__init__(self._predict, len(self.schema), name=self.kind)

    def _evaluate(self, matrix: np.ndarray, meta: Sequence[FeatureMeta] | None, copies: int) -> np.ndarray:
        if meta is not None and all(a.levels == b.levels for a, b in zip(meta, self.schema)):
            return self._predict(matrix, copies)
        rows = matrix if meta is None else decode(matrix, meta)
        return self._predict(encode(rows.T, self.schema), copies)

    def _predict(self, X: np.ndarray, copies: int = 1) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "kind": self.kind,
            "features": [
                {"name": m.name, "kind": m.kind, "levels": list(m.levels) if m.levels else None}
                for m in self.schema
            ],
            "parameters": self._parameters(),
        }

    def _parameters(self) -> dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Linear model
# ---------------------------------------------------------------------------


def _design_columns(schema: Sequence[FeatureMeta]) -> tuple[np.ndarray, ...] | None:
    """Each design column's feature, then the one-hot columns and the code each
    indicates; None when no feature is categorical, as the codes are then the design."""
    if all(m.kind == CONTINUOUS for m in schema):
        return None
    pairs = [(j, code) for j, m in enumerate(schema)
             for code in ([-1] if m.kind == CONTINUOUS else range(1, len(m.levels)))]
    features = np.array([j for j, _ in pairs], dtype=np.intp)
    codes = np.array([code for _, code in pairs], dtype=float)
    return features, np.flatnonzero(codes >= 0), codes[codes >= 0]


def _design_matrix(X: np.ndarray, columns: tuple[np.ndarray, ...] | None) -> np.ndarray:
    """The design of code matrix ``X``: ``X`` itself when ``columns`` is None,
    else continuous columns as they are and categoricals one-hot with the
    first level dropped, by one ``take`` and one code comparison.  It must be
    C-contiguous: ``X[:, features]`` is F-ordered, and numpy then sends
    ``design @ coefficients`` to another BLAS kernel, whose last bits differ."""
    if columns is None:
        return np.ascontiguousarray(X, dtype=float)  # no copy of a C-ordered float X
    features, onehot, codes = columns
    design = X.take(features, axis=1)
    design[:, onehot] = design[:, onehot] == codes
    return design


class LinearModel(ReferenceModel):
    kind = "linear"

    def __init__(
        self, schema: Sequence[FeatureMeta], intercept: float, coefficients: Sequence[float]
    ):
        super().__init__(schema)
        self.intercept = _real(intercept, "intercept")
        self.coefficients = _reals(coefficients, "coefficient vector")
        self._columns = _design_columns(self.schema)
        width = len(self.schema) if self._columns is None else len(self._columns[0])
        if self.coefficients.shape != (width,):
            raise InvalidArgumentError(
                f"the design has {width} columns, got {self.coefficients.size} coefficients"
            )

    def _predict(self, X: np.ndarray, copies: int = 1) -> np.ndarray:
        """One product per copy stacked in ``X`` (a stacked matmul calls BLAS once per copy), so a copy
        rounds as in a call of its own; a one-hot design is built for ``BUDGET`` bytes of copies at a time."""
        m, q = len(X) // copies, len(self.coefficients)
        step = copies if self._columns is None else max(1, BUDGET // max(8 * m * q, 1))
        out = np.empty((copies, m))
        for a in range(0, copies, step):
            b = min(a + step, copies)  # reshaped in full: (b - a, m, -1) is ambiguous for an empty design
            out[a:b] = _design_matrix(X[a * m : b * m], self._columns).reshape(b - a, m, q) @ self.coefficients
        return out.reshape(-1) + self.intercept

    def _parameters(self) -> dict[str, Any]:
        return {
            "intercept": self.intercept,
            "coefficients": [float(c) for c in self.coefficients],
        }


def fit_linear(data: Dataset) -> LinearModel:
    """Least squares with intercept, solved by SVD; exact on noiseless affine data."""
    y = data.numeric_target("fitting a reference model")
    n, p = data.n_rows, data.n_features
    if n <= p:
        raise SingularFitError(f"need more observations than features (n={n}, p={p})")
    design = np.column_stack(
        (np.ones(n), _design_matrix(data.codes(), _design_columns(data.meta)))
    )
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise SingularFitError("design matrix is rank deficient")
    return LinearModel(data.meta, coef[0], coef[1:])


# ---------------------------------------------------------------------------
# k-nearest neighbours
# ---------------------------------------------------------------------------


class KNNModel(ReferenceModel):
    """Mean target of the k nearest training rows.

    The distance is the squared Euclidean distance over continuous columns
    plus one per mismatched categorical column, summed in schema order.
    Queries are predicted in blocks of at most ``BUDGET`` bytes of distances
    per buffer, and each row's result is the same whatever the block size.
    """

    kind = "knn"

    def __init__(
        self, schema: Sequence[FeatureMeta], k: int, train: np.ndarray, target: Sequence[float]
    ):
        super().__init__(schema)
        self.target = _reals(target, "knn target vector")
        n = len(train)
        if self.target.shape != (n,):
            raise InvalidArgumentError(f"knn needs {n} targets, got {self.target.size}")
        self.k = _integer(k, "knn k", 1, n)
        # a row per feature, each checked by kind; a training row of another width raises
        columns = train.T if isinstance(train, np.ndarray) else zip(*train, strict=True)
        self.columns = np.ascontiguousarray(encode(columns, self.schema).T)
        self.train = decode(self.columns.T, self.schema)  # floats and level strings, as saved

    def _predict(self, X: np.ndarray, copies: int = 1) -> np.ndarray:
        n_rows, n_train = X.shape[0], len(self.target)
        block = max(1, min(BUDGET // (8 * n_train), n_rows))
        total = np.empty((block, n_train))
        scratch = np.empty((block, n_train))
        out = np.empty(n_rows)
        for start in range(0, n_rows, block):
            queries = X[start : start + block]
            m = len(queries)
            out[start : start + m] = self._predict_block(queries, total[:m], scratch[:m])
        return out

    def _kth(self, total: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Each row's k-th smallest distance, partitioned in ``scratch``."""
        np.copyto(scratch, total)
        scratch.partition(self.k - 1, axis=1)
        return scratch[:, self.k - 1]

    def _distances(self, queries: np.ndarray, total: np.ndarray, scratch: np.ndarray, check=False):
        """Sum each feature's distance into ``total``; with ``check``, raise at
        the first feature that leaves some row's k-th distance infinite."""
        total.fill(0.0)
        for j, (m, col) in enumerate(zip(self.schema, self.columns)):
            if m.kind == CONTINUOUS:
                np.subtract(col, queries[:, j, None], out=scratch)
                np.multiply(scratch, scratch, out=scratch)
                total += scratch
            else:
                total += col != queries[:, j, None]  # match/no-match distance
            if check and np.isinf(self._kth(total, scratch)).any():
                raise NumericRangeError(f"knn distances overflow float64 at feature {m.name!r}")

    def _predict_block(
        self, queries: np.ndarray, total: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        with np.errstate(over="ignore"):  # an infinite distance is fine beyond the k-th
            self._distances(queries, total, scratch)
            kth = self._kth(total, scratch)
            if np.isinf(kth).any():  # rare: sum again to name the feature
                self._distances(queries, total, scratch, check=True)
        # Every row at or below the k-th distance is a candidate.  With exactly
        # k candidates, a stable sort of them (in index order) by distance is
        # the head of the row's stable argsort; a tie at the k-th distance
        # (or a NaN query) takes the full stable argsort, so equal distances
        # still resolve to the lower training index.
        k = self.k
        candidates = total <= kth[:, None]
        count = candidates.sum(axis=1)
        neighbours = np.empty((len(total), k), dtype=np.intp)
        exact = np.flatnonzero(count == k)
        index = np.nonzero(candidates[exact])[1].reshape(-1, k)
        order = np.argsort(total[exact[:, None], index], axis=1, kind="stable")
        neighbours[exact] = np.take_along_axis(index, order, axis=1)
        tied = np.flatnonzero(count != k)
        if tied.size:
            neighbours[tied] = np.argsort(total[tied], axis=1, kind="stable")[:, :k]
        return self.target[neighbours].mean(axis=1)

    def _parameters(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "train": [list(row) for row in self.train.tolist()],
            "target": [float(v) for v in self.target],
        }


def fit_knn(data: Dataset, k: int) -> KNNModel:
    """Store the sample; predict the mean target of the k nearest rows."""
    y = data.numeric_target("fitting a reference model")
    return KNNModel(data.meta, k, data.matrix(), y)


# ---------------------------------------------------------------------------
# Decision stump
# ---------------------------------------------------------------------------


class StumpModel(ReferenceModel):
    kind = "stump"

    def __init__(
        self,
        schema: Sequence[FeatureMeta],
        feature: int | None,
        split_kind: str | None,
        threshold: Any,
        left_value: float,
        right_value: float,
    ):
        super().__init__(schema)
        if feature is not None:
            feature = _integer(feature, "stump feature", 0, len(self.schema) - 1)
            meta = self.schema[feature]
            kind = "le" if meta.kind == CONTINUOUS else "eq"
            if split_kind != kind:
                raise InvalidArgumentError(
                    f"a stump on {meta.kind} feature {meta.name!r} needs an {kind!r} split, got {split_kind!r}"
                )
            # x <= t, or x == the level's code; a threshold that is no level matches no row
            threshold = _real(threshold, "an 'le' split's threshold") if kind == "le" else threshold
            self._code = threshold if kind == "le" else meta.codes.get(threshold, np.nan)
        self.feature = feature
        self.split_kind = split_kind  # "le" (x <= t) or "eq" (x == level)
        self.threshold = threshold
        self.left_value = _real(left_value, "left value")
        self.right_value = _real(right_value, "right value")

    def _predict(self, X: np.ndarray, copies: int = 1) -> np.ndarray:
        if self.feature is None:
            return np.full(X.shape[0], self.left_value)
        col = X[:, self.feature]
        left = col <= self._code if self.split_kind == "le" else col == self._code
        return np.where(left, self.left_value, self.right_value)

    def _parameters(self) -> dict[str, Any]:
        return {
            "feature": self.feature,
            "split_kind": self.split_kind,
            "threshold": self.threshold,
            "left_value": self.left_value,
            "right_value": self.right_value,
        }


def _split_candidates(data: Dataset, j: int):
    """Each split of feature ``j``: its kind, its threshold and the rows it sends left."""
    meta, column = data.meta[j], data.codes()[:, j]
    if meta.kind == CONTINUOUS:
        unique = np.unique(column)
        for threshold in ((unique[:-1] + unique[1:]) / 2.0).tolist():
            yield "le", threshold, column <= threshold
    else:
        for level, code in meta.codes.items():
            yield "eq", level, column == code


def fit_stump(data: Dataset) -> StumpModel:
    """Single split minimizing squared error.

    Continuous features are scanned at midpoints of their sorted unique
    values, categorical features at each level (match vs no-match).  Ties
    break toward the lower feature index, then the lower threshold.  Equal
    targets (or no feature with two observed sides) give a constant stump.
    """
    y = data.numeric_target("fitting a reference model")
    constant = StumpModel(data.meta, None, None, None, float(np.mean(y)), float(np.mean(y)))
    if np.max(y) == np.min(y):
        return constant

    best = None  # (sse, feature, split_kind, threshold, left, right)
    for j in range(data.n_features):
        for split_kind, threshold, mask in _split_candidates(data, j):
            n_left = int(np.sum(mask))
            if n_left == 0 or n_left == data.n_rows:
                continue
            left, right = y[mask], y[~mask]
            sse = float(np.sum((left - left.mean()) ** 2) + np.sum((right - right.mean()) ** 2))
            if best is None or sse < best[0]:
                best = (sse, j, split_kind, threshold, float(left.mean()), float(right.mean()))
    if best is None:
        return constant
    _, j, split_kind, threshold, left, right = best
    return StumpModel(data.meta, j, split_kind, threshold, left, right)


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------


_MODELS = {cls.kind: cls for cls in (LinearModel, KNNModel, StumpModel)}


def save_model(model: ReferenceModel, path: str) -> None:
    """Write a model as self-describing JSON text (floats round-trip exactly)."""
    write_text(path, json.dumps(model.to_json_obj(), indent=2) + "\n")


def load_model(path: str) -> ReferenceModel:
    """Restore a model written by :func:`save_model`: its kind's constructor (``_MODELS``) called with
    the schema and the file's parameters, so a missing or an unknown parameter is a :class:`DataFormatError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise DataFormatError(f"model file {path!r} cannot be read as JSON: {exc}") from exc
    except OSError as exc:
        raise DataFormatError(f"cannot read model file {path!r}: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise DataFormatError(f"model file {path!r} is not a {MODEL_FORMAT} document")
    if obj.get("version") != MODEL_VERSION:
        raise DataFormatError(f"unsupported model version {obj.get('version')!r}")
    if obj.get("kind") not in list(_MODELS):  # a list: a kind may be any JSON value, unhashable too
        raise DataFormatError(f"unknown model kind {obj.get('kind')!r}")
    try:
        schema = [
            FeatureMeta(str(entry["name"]), str(entry["kind"]), entry.get("levels") or None)
            for entry in obj["features"]
        ]
        return _MODELS[obj["kind"]](schema, **obj["parameters"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"model file {path!r} is malformed: {exc}") from exc
