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
from .data import CONTINUOUS, Dataset, FeatureMeta, _is_number
from .dataio import write_text
from .errors import DataFormatError, InvalidArgumentError, SingularFitError

MODEL_FORMAT = "boxprobe-model"
MODEL_VERSION = 1
BUDGET = 1 << 18  # bytes of one knn distance buffer; sets the query block size


def _finite(values: Any, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError(f"{what} must be finite")
    return arr


class ReferenceModel(PredictorHandle):
    """Base for fitted reference predictors; adds a serializable schema.

    The schema holds each feature's name, kind and levels (no observed range).
    Constructors check every parameter; fitting and loading both pass there.
    """

    kind = "reference"

    def __init__(self, schema: Sequence[FeatureMeta]):
        self.schema = tuple(FeatureMeta(m.name, m.kind, m.levels) for m in schema)
        super().__init__(self._predict, len(self.schema), name=self.kind)

    def _predict(self, X: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
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


def _design_matrix(X: np.ndarray, schema: Sequence[FeatureMeta]) -> np.ndarray:
    """Continuous columns as-is; categoricals one-hot with the first level dropped."""
    cols = []
    for j, m in enumerate(schema):
        if m.kind == CONTINUOUS:
            cols.append(X[:, j].astype(float))
        else:
            raw = X[:, j]
            for level in m.levels[1:]:
                cols.append((raw == level).astype(float))
    if not cols:
        return np.zeros((X.shape[0], 0))
    return np.column_stack(cols)


class LinearModel(ReferenceModel):
    kind = "linear"

    def __init__(
        self, schema: Sequence[FeatureMeta], intercept: float, coefficients: Sequence[float]
    ):
        super().__init__(schema)
        self.intercept = float(_finite(intercept, "intercept"))
        self.coefficients = _finite(coefficients, "coefficients")
        width = sum(1 if m.kind == CONTINUOUS else len(m.levels) - 1 for m in self.schema)
        if self.coefficients.shape != (width,):
            raise InvalidArgumentError(
                f"the design has {width} columns, got {self.coefficients.size} coefficients"
            )

    def _predict(self, X: np.ndarray) -> np.ndarray:
        design = _design_matrix(np.asarray(X), self.schema)
        return design @ self.coefficients + self.intercept

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
        (np.ones(n), _design_matrix(data.matrix(), data.meta))
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
        self.k = int(k)
        schema = self.schema
        rows = [
            [float(v) if m.kind == CONTINUOUS else str(v) for m, v in zip(schema, r, strict=True)]
            for r in train
        ]
        numeric = all(m.kind == CONTINUOUS for m in schema)
        self.train = np.array(rows, dtype=(float if numeric else object))
        self.target = _finite(target, "knn targets")
        n = len(self.train)
        if self.target.shape != (n,):
            raise InvalidArgumentError(f"knn needs {n} targets, got {self.target.size}")
        if not 1 <= self.k <= n:
            raise InvalidArgumentError(f"k must be between 1 and n={n}, got {self.k}")
        self.columns = [
            self.train[:, j].astype(float if m.kind == CONTINUOUS else object)
            for j, m in enumerate(schema)
        ]
        for m, col in zip(schema, self.columns):
            if m.kind == CONTINUOUS:
                _finite(col, f"training values of {m.name!r}")

    def _predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
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

    def _predict_block(
        self, queries: np.ndarray, total: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        total.fill(0.0)
        for j, (m, col) in enumerate(zip(self.schema, self.columns)):
            if m.kind == CONTINUOUS:
                np.subtract(col, queries[:, j, None].astype(float), out=scratch)
                np.multiply(scratch, scratch, out=scratch)
                total += scratch
            else:
                total += col != queries[:, j, None]  # match/no-match distance
        # Every row at or below the k-th distance is a candidate.  With exactly
        # k candidates, a stable sort of them (in index order) by distance is
        # the head of the row's stable argsort; a tie at the k-th distance
        # (or a NaN query) takes the full stable argsort, so equal distances
        # still resolve to the lower training index.
        k = self.k
        np.copyto(scratch, total)
        scratch.partition(k - 1, axis=1)
        candidates = total <= scratch[:, k - 1, None]
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
            p = len(self.schema)
            if isinstance(feature, bool) or not isinstance(feature, int) or not 0 <= feature < p:
                raise InvalidArgumentError(f"stump feature {feature!r} is not an index below {p}")
            if split_kind not in ("le", "eq"):
                raise InvalidArgumentError(f"unknown stump split kind {split_kind!r}")
            if split_kind == "le" and not (_is_number(threshold) and np.isfinite(threshold)):
                raise InvalidArgumentError(
                    f"an 'le' split needs a finite numeric threshold, got {threshold!r}"
                )
        self.feature = feature
        self.split_kind = split_kind  # "le" (x <= t) or "eq" (x == level)
        self.threshold = threshold
        self.left_value = float(_finite(left_value, "left value"))
        self.right_value = float(_finite(right_value, "right value"))

    def _mask(self, X: np.ndarray) -> np.ndarray:
        col = X[:, self.feature]
        if self.split_kind == "le":
            return col.astype(float) <= float(self.threshold)
        return col == self.threshold

    def _predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if self.feature is None:
            return np.full(X.shape[0], self.left_value)
        return np.where(self._mask(X), self.left_value, self.right_value)

    def _parameters(self) -> dict[str, Any]:
        return {
            "feature": self.feature,
            "split_kind": self.split_kind,
            "threshold": self.threshold,
            "left_value": self.left_value,
            "right_value": self.right_value,
        }


def _split_candidates(data: Dataset, j: int):
    meta = data.meta[j]
    if meta.kind == CONTINUOUS:
        unique = np.unique(data.column(j))
        for a, b in zip(unique, unique[1:]):
            yield "le", float((a + b) / 2.0)
    else:
        for level in meta.levels:
            yield "eq", level


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
        column = data.column(j)
        for split_kind, threshold in _split_candidates(data, j):
            if split_kind == "le":
                mask = column.astype(float) <= threshold
            else:
                mask = column == threshold
            n_left = int(np.sum(mask))
            if n_left == 0 or n_left == len(column):
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


def save_model(model: ReferenceModel, path: str) -> None:
    """Write a model as self-describing JSON text (floats round-trip exactly)."""
    write_text(path, json.dumps(model.to_json_obj(), indent=2) + "\n")


def load_model(path: str) -> ReferenceModel:
    """Restore a model written by :func:`save_model`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"model file {path!r} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise DataFormatError(f"cannot read model file {path!r}: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != MODEL_FORMAT:
        raise DataFormatError(f"model file {path!r} is not a {MODEL_FORMAT} document")
    if obj.get("version") != MODEL_VERSION:
        raise DataFormatError(f"unsupported model version {obj.get('version')!r}")
    try:
        schema = [
            FeatureMeta(str(entry["name"]), str(entry["kind"]), entry.get("levels") or None)
            for entry in obj["features"]
        ]
        params = obj["parameters"]
        kind = obj["kind"]
        if kind == "linear":
            return LinearModel(schema, params["intercept"], params["coefficients"])
        if kind == "knn":
            return KNNModel(schema, params["k"], params["train"], params["target"])
        if kind == "stump":
            return StumpModel(
                schema,
                params["feature"],
                params["split_kind"],
                params["threshold"],
                params["left_value"],
                params["right_value"],
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"model file {path!r} is malformed: {exc}") from exc
    raise DataFormatError(f"unknown model kind {obj.get('kind')!r}")
