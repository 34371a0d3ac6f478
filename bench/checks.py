"""Output checks for benchmark operations.

Every document an operation writes is checked three ways:

* against closed-form oracles, computed here from the CSV and the model
  file without calling boxprobe.  With a linear model every method has one;
  with the knn model the oracle re-predicts with an independent vectorized
  nearest-neighbour search;
* against identities between operations of one pass (FIRM equals the PD
  importance bit-exactly, exhaustive PFI is the mean of the PI curve, the
  ``--threads 1`` and ``--threads 2`` documents are byte-identical);
* at the default seed only, against SHA-256 digests recorded from the seed
  commit (``digests.json``).

A check that fails raises :class:`CheckError`; the runner counts the
operation as failed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .workloads import Op

DOC_KEYS = {"schema_version", "method", "feature", "params", "seed", "stage_trace"}


class CheckError(Exception):
    """An operation's output is wrong."""


def digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# Inputs, read independently of boxprobe
# ---------------------------------------------------------------------------


@dataclass
class Table:
    names: list[str]
    columns: dict[str, np.ndarray]  # float64, or object arrays of level strings
    y: np.ndarray

    @property
    def n(self) -> int:
        return len(self.y)


def read_table(path: str, target: str = "y") -> Table:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        raw = [row[j] for row in body]
        try:
            columns[name] = np.array([float(v) for v in raw])
        except ValueError:
            columns[name] = np.array(raw, dtype=object)
    y = columns.pop(target)
    return Table(list(columns), columns, y)


def _grid(table: Table, name: str) -> list[Any]:
    """boxprobe's observed grid: sorted distinct values, or sorted levels."""
    col = table.columns[name]
    if col.dtype == object:
        return sorted(set(col))
    return [float(v) for v in np.unique(col)]


class LinearOracle:
    """Closed forms for a fitted linear model: prediction = intercept + sum of terms."""

    def __init__(self, table: Table, model: dict):
        params = model["parameters"]
        coefs = iter(params["coefficients"])
        self.intercept = float(params["intercept"])
        self.terms: dict[str, Any] = {}
        for feat in model["features"]:
            if feat["kind"] == "continuous":
                self.terms[feat["name"]] = float(next(coefs))
            else:
                levels = feat["levels"]
                self.terms[feat["name"]] = {levels[0]: 0.0, **{lv: float(next(coefs)) for lv in levels[1:]}}
        self.table = table
        self.G = {name: self.g(name, table.columns[name]) for name in table.names}
        self.f = self.intercept + sum(self.G.values())
        self.r = self.f - table.y

    def g(self, name: str, values: Any) -> np.ndarray:
        """Term of feature ``name`` at the given values."""
        term = self.terms[name]
        if isinstance(term, dict):
            return np.array([term[str(v)] for v in np.atleast_1d(values)])
        return term * np.atleast_1d(np.asarray(values, dtype=float))

    def ge(self, block: frozenset[str]) -> float:
        """Mean squared loss with ``block`` substituted from every donor row.

        The model is additive, so substituting donor l's block into receiver
        i changes the prediction by S_l - S_i; the n^2 double average then
        has the closed form below.
        """
        if not block:
            return float(np.mean(self.r**2))
        s = sum(self.G[t] for t in block)
        d = self.r - s
        return float(np.mean(d**2) + 2.0 * np.mean(d) * np.mean(s) + np.mean(s**2))


class KnnOracle:
    """Vectorized k-nearest-neighbour predictions, ties to the lowest index."""

    def __init__(self, table: Table, model: dict):
        params = model["parameters"]
        self.table = table
        self.train = np.array(params["train"], dtype=float)
        self.target = np.array(params["target"], dtype=float)
        self.k = int(params["k"])
        self.X = np.column_stack([table.columns[n] for n in table.names])
        self.f = self.predict(self.X)

    def predict(self, queries: np.ndarray, chunk: int = 250) -> np.ndarray:
        out = []
        for a in range(0, len(queries), chunk):
            q = queries[a : a + chunk]
            dist = np.zeros((len(q), len(self.train)))
            for j in range(self.train.shape[1]):
                dist += (self.train[None, :, j] - q[:, None, j]) ** 2
            nearest = np.argsort(dist, axis=1, kind="stable")[:, : self.k]
            out.append(self.target[nearest].mean(axis=1))
        return np.concatenate(out)


# ---------------------------------------------------------------------------
# Tolerances
# ---------------------------------------------------------------------------


def _close(what: str, got: Any, want: Any, scale: float, rel: float = 1e-11) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape}, expected {want.shape}")
    tol = rel * max(1.0, scale)
    err = np.abs(got - want)
    if not np.all(err <= tol):
        k = int(np.argmax(err))
        raise CheckError(
            f"{what}: {got.flat[k]!r} differs from {want.flat[k]!r} by {err.flat[k]:.3g} (tol {tol:.3g})"
        )


def _points(doc: dict) -> tuple[list[Any], np.ndarray]:
    xs = [p["x"] for p in doc["points"]]
    return xs, np.array([p["y"] for p in doc["points"]], dtype=float)


def _same_xs(what: str, xs: list[Any], want: list[Any]) -> None:
    if xs != want:
        raise CheckError(f"{what}: grid does not match the observed values")


def _pfi_seeds(seed: int, repeats: int) -> list[int]:
    """Child seeds as documented: SeedSequence children of the master seed."""
    state = np.random.SeedSequence(int(seed)).generate_state(repeats, dtype=np.uint32)
    return [int(s) for s in state]


def _perm(seed: int, n: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(seed)).permutation(n)


def _shapley_weight(size: int, p: int) -> float:
    return math.factorial(size) * math.factorial(p - size - 1) / math.factorial(p)


# ---------------------------------------------------------------------------
# Per-method oracles
# ---------------------------------------------------------------------------


def _check_linear(op: Op, doc: dict, lin: LinearOracle) -> None:
    t = lin.table
    method = op.method
    feature = op.flag("--feature")
    scale = float(np.max(np.abs(lin.f)))
    loss_scale = float(np.mean(lin.r**2) + np.max(np.abs(lin.f)) ** 2)

    if method == "pd":
        names = feature.split(",")
        k = op.flag("--grid-points")
        if k is None:
            grids = [_grid(t, name) for name in names]
        else:
            col = t.columns[names[0]]
            grids = [[float(v) for v in np.linspace(col.min(), col.max(), int(k))]]
        points = list(itertools.product(*grids))
        rest = lin.intercept + sum(float(np.mean(lin.G[n])) for n in t.names if n not in names)
        want = [rest + sum(float(lin.g(n, v)[0]) for n, v in zip(names, p)) for p in points]
        xs, ys = _points(doc)
        _same_xs("pd", xs, [p[0] for p in points] if len(names) == 1 else [list(p) for p in points])
        _close("pd values", ys, want, scale)
    elif method in ("pd-importance", "firm"):
        col = t.columns[feature]
        want = abs(lin.terms[feature]) * float(np.std(col, ddof=1))
        _close(method, doc["score"], want, scale)
    elif method == "ice":
        row = int(op.flag("--row"))
        grid = _grid(t, feature)
        xs, ys = _points(doc)
        _same_xs("ice", xs, grid)
        _close("ice values", ys, lin.f[row] - lin.G[feature][row] + lin.g(feature, grid), scale)
    elif method in ("pi", "ici"):
        values = np.sort(t.columns[feature], kind="stable")
        xs, ys = _points(doc)
        _same_xs(method, xs, [float(v) for v in values])
        gv = lin.g(feature, values)
        d = lin.r - lin.G[feature]
        if method == "pi":
            want = np.mean(d**2) + 2.0 * gv * np.mean(d) + gv**2 - np.mean(lin.r**2)
        else:
            i = int(op.flag("--row"))
            want = (d[i] + gv) ** 2 - lin.r[i] ** 2
        _close(f"{method} values", ys, want, loss_scale)
    elif method == "pfi" and op.flag("--mode") == "exhaustive":
        want = lin.ge(frozenset([feature])) - lin.ge(frozenset())
        _close("pfi exhaustive", doc["score"], want, loss_scale)
    elif method == "pfi":
        seeds = _pfi_seeds(doc["seed"], doc["params"]["repeats"])
        base = float(np.mean(lin.r**2))
        gj = lin.G[feature]
        diffs = [float(np.mean((lin.r - gj + gj[_perm(s, t.n)]) ** 2)) - base for s in seeds]
        _close("pfi permutation", doc["score"], float(np.mean(diffs)), loss_scale)
    elif method == "sfimp":
        names = t.names
        everything = frozenset(names)
        others = [n for n in names if n != feature]

        def payout(coalition: frozenset[str]) -> float:
            return lin.ge(everything - coalition) - lin.ge(everything) if coalition else 0.0

        want = sum(
            _shapley_weight(size, len(names))
            * (payout(frozenset(combo) | {feature}) - payout(frozenset(combo)))
            for size in range(len(names))
            for combo in itertools.combinations(others, size)
        )
        _close("sfimp", doc["score"], want, loss_scale)
    elif method == "shapley":
        row = int(op.flag("--row"))
        phi = float(lin.G[feature][row] - np.mean(lin.G[feature]))
        full = sum(float(lin.G[n][row] - np.mean(lin.G[n])) for n in t.names)
        _close("shapley full coalition payout", doc["params"]["full_coalition_payout"], full, scale)
        if op.flag("--samples") is None:
            _close("shapley exact", doc["score"], phi, scale)
        else:
            # Each Monte Carlo draw contributes coef * (x_j - z_j): unbiased for phi.
            bound = 6.0 * doc["params"]["standard_error"] + 1e-9 * max(1.0, scale)
            if abs(doc["score"] - phi) > bound:
                raise CheckError(f"shapley mc: {doc['score']!r} is more than 6 se from {phi!r}")
    elif method in ("me", "ame", "lime"):
        coef = lin.terms[feature]
        # The difference quotient of an affine function is exact up to rounding.
        _close(method, doc["score"], coef, abs(coef), rel=1e-9)
    else:
        raise CheckError(f"no oracle for {op.label}")


def _check_knn(op: Op, doc: dict, knn: KnnOracle) -> None:
    t, X, f = knn.table, knn.X, knn.f
    method = op.method
    j = t.names.index(op.flag("--feature"))
    scale = float(np.max(np.abs(knn.target)))

    if method == "pfi":
        seeds = _pfi_seeds(doc["seed"], doc["params"]["repeats"])
        base = float(np.mean((f - t.y) ** 2))
        diffs = []
        for s in seeds:
            permuted = X.copy()
            permuted[:, j] = X[_perm(s, t.n), j]
            diffs.append(float(np.mean((knn.predict(permuted) - t.y) ** 2)) - base)
        _close("pfi permutation", doc["score"], float(np.mean(diffs)), scale**2)
    elif method == "ame":
        h = float(doc["params"]["h"])
        up, down = X.copy(), X.copy()
        up[:, j] += h
        down[:, j] -= h
        want = float(np.mean((knn.predict(up) - knn.predict(down)) / (2.0 * h)))
        _close("ame", doc["score"], want, abs(want))
    elif method == "ale":
        xs, ys = _points(doc)
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise CheckError("ale: interval edges are not increasing")
        counts = next(r for r in doc["stage_trace"] if r["stage"] == "aggregation")["parameters"][
            "interval_counts"
        ]
        if sum(counts) != t.n or len(counts) != len(ys) - 1:
            raise CheckError("ale: interval counts do not cover the observations")
        # Centred by the data-weighted mean of the accumulated curve.
        _close("ale centring", float(np.dot(counts, ys[1:])) / t.n, 0.0, float(np.max(np.abs(ys))))
    elif method == "shapley":
        row = int(op.flag("--row"))
        full = float(f[row] - np.mean(f))
        _close("shapley full coalition payout", doc["params"]["full_coalition_payout"], full, scale)
    elif method != "lime":  # lime: structure only, there is no closed form on knn
        raise CheckError(f"no oracle for {op.label}")


def _check_fit(raw: bytes, t: Table, model_bytes: bytes) -> None:
    if raw != model_bytes:
        raise CheckError("fit: model file differs from the one fitted at set-up")
    model = json.loads(raw)
    design = np.column_stack([np.ones(t.n)] + [t.columns[n] for n in t.names])
    coef = np.linalg.lstsq(design, t.y, rcond=None)[0]
    got = [model["parameters"]["intercept"], *model["parameters"]["coefficients"]]
    _close("fit coefficients", got, coef, float(np.max(np.abs(coef))))


# ---------------------------------------------------------------------------
# Documents and identities
# ---------------------------------------------------------------------------


def parse_document(op: Op, raw: bytes) -> dict:
    """Parse an output document and check its structure."""
    try:
        doc = json.loads(raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckError(f"not a JSON document: {exc}") from None
    if op.method == "fit":
        return doc
    if (json.dumps(doc, indent=2, ensure_ascii=True) + "\n").encode() != raw:
        raise CheckError("document does not re-emit byte-identically")
    if not isinstance(doc, dict) or set(doc) - DOC_KEYS not in ({"points"}, {"score"}):
        raise CheckError("document keys do not match the schema")
    if doc["method"] != op.method:
        raise CheckError(f"method {doc['method']!r}, expected {op.method!r}")
    values = [doc["score"]] if "score" in doc else [p["y"] for p in doc["points"]]
    if not values or not all(isinstance(v, float) and math.isfinite(v) for v in values):
        raise CheckError("non-finite or missing values")
    if prediction_rows(doc) < 1:
        raise CheckError("stage trace records no predictions")
    return doc


def prediction_rows(doc: dict) -> int:
    """Logical prediction rows, summed over the document's prediction records."""
    return sum(
        int(r["parameters"]["rows"]) for r in doc.get("stage_trace", ()) if r["stage"] == "prediction"
    )


def check_identity(kind: str, raw_a: bytes, raw_b: bytes) -> None:
    if kind == "same_bytes":
        if raw_a != raw_b:
            raise CheckError("documents differ")
        return
    a, b = json.loads(raw_a), json.loads(raw_b)
    if kind == "same_score":
        if a["score"] != b["score"]:
            raise CheckError(f"scores differ: {a['score']!r} and {b['score']!r}")
    elif kind == "pfi_is_mean_pi":
        mean = float(np.mean(np.array([p["y"] for p in b["points"]], dtype=float)))
        if a["score"] != mean:
            raise CheckError(f"exhaustive pfi {a['score']!r} is not the pi mean {mean!r}")
    else:
        raise CheckError(f"unknown identity {kind!r}")


@dataclass
class Checker:
    """Checks one workload's documents; oracles are built once per table."""

    files: dict[str, tuple[str, str]]  # table -> (csv path, model path)
    digests: dict[str, str] | None  # label -> sha256, at the default seed only
    _oracles: dict[str, Any] = field(default_factory=dict)

    def _oracle(self, table: str) -> tuple[Any, Table, bytes]:
        if table not in self._oracles:
            csv_path, model_path = self.files[table]
            t = read_table(csv_path)
            with open(model_path, "rb") as fh:
                model_bytes = fh.read()
            model = json.loads(model_bytes)
            oracle = LinearOracle(t, model) if model["kind"] == "linear" else KnnOracle(t, model)
            self._oracles[table] = (oracle, t, model_bytes)
        return self._oracles[table]

    def check(self, op: Op, raw: bytes) -> dict:
        """Full check of one document; returns it parsed."""
        if self.digests is not None:
            want = self.digests.get(op.label)
            if want is None:
                raise CheckError("no recorded digest")
            if digest(raw) != want:
                raise CheckError("digest differs from the one recorded at the seed commit")
        doc = parse_document(op, raw)
        oracle, t, model_bytes = self._oracle(op.table)
        if op.method == "fit":
            _check_fit(raw, t, model_bytes)
        elif isinstance(oracle, LinearOracle):
            _check_linear(op, doc, oracle)
        else:
            _check_knn(op, doc, oracle)
        return doc
