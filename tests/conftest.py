"""Shared builders for tests: datasets, predictors, and reference oracles."""

from __future__ import annotations

import numpy as np
import pytest

from boxprobe import Dataset, PredictionCache, PredictorHandle, fit_knn, fit_linear, fit_stump


def handle(fn, p, name="f"):
    return PredictorHandle(fn, p, name=name)


def constant_predictor(c, p):
    return handle(lambda X, c=c: np.full(np.asarray(X).shape[0], float(c)), p, name="const")


def linear_predictor(coefs, intercept=0.0):
    coefs = np.asarray(coefs, dtype=float)

    def fn(X, coefs=coefs, intercept=intercept):
        return np.asarray(X, dtype=float) @ coefs + intercept

    return handle(fn, len(coefs), name="linear")


def kernel_calls(monkeypatch):
    """The names of the ``PredictionCache`` prediction methods called from now
    on, in call order: ``substitute`` (the kernel) and ``predict``."""
    calls = []

    def counted(name):
        method = getattr(PredictionCache, name)
        return lambda self, *args, **kwargs: calls.append(name) or method(self, *args, **kwargs)

    for name in ("substitute", "predict"):
        monkeypatch.setattr(PredictionCache, name, counted(name))
    return calls


def columns_dataset(**named):
    target = named.pop("target", None)
    return Dataset.from_columns(named, target=target)


def random_dataset(rng, n, p, with_target=True):
    cols = {f"x{j + 1}": rng.normal(size=n) * rng.uniform(0.5, 3.0) for j in range(p)}
    data = np.column_stack(list(cols.values()))
    target = None
    if with_target:
        coefs = rng.normal(size=p)
        target = data @ coefs + 0.1 * rng.normal(size=n)
    return Dataset.from_columns(cols, target=target)


def random_refmodel(rng, data):
    kind = rng.choice(["linear", "knn", "stump"])
    if kind == "linear":
        return fit_linear(data)
    if kind == "knn":
        return fit_knn(data, int(rng.integers(1, data.n_rows + 1)))
    return fit_stump(data)


@pytest.fixture
def two_feature_data():
    """Rows over (x1, x2) with x2 column (0, 2, 4) and target x1 + x2."""
    return columns_dataset(
        x1=[0.0, 1.0, 2.0], x2=[0.0, 2.0, 4.0], target=[0.0, 3.0, 6.0]
    )


@pytest.fixture
def sum_predictor():
    return linear_predictor([1.0, 1.0])
