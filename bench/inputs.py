"""Seeded input generator for the benchmark workloads.

Every input is a CSV file in boxprobe's fixed dialect, made from the
workload seed alone: the same seed writes byte-identical files.  The
program under test sees only these files (and the models fitted on them).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

LEVELS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class TableSpec:
    """Shape of one generated CSV: n rows, continuous and categorical columns."""

    name: str
    n: int
    continuous: int
    categorical: int = 0
    # Draw continuous values from this many one-decimal values instead of a
    # normal distribution: duplicates, with a grid size that no seed changes.
    distinct: int | None = None

    @property
    def p(self) -> int:
        return self.continuous + self.categorical


def _table(spec: TableSpec, rng: np.random.Generator) -> tuple[list[str], list[list[str]]]:
    n = spec.n
    if spec.distinct is None:
        scales = rng.uniform(0.5, 3.0, size=spec.continuous)
        cont = rng.standard_normal((n, spec.continuous)) * scales
    else:
        k = rng.integers(0, spec.distinct, size=(n, spec.continuous))
        for j in range(spec.continuous):  # every value occurs at least once
            k[: spec.distinct, j] = rng.permutation(spec.distinct)
        cont = (k - spec.distinct // 2) / 10.0
    cats = rng.integers(0, len(LEVELS), size=(n, spec.categorical))
    coefs = rng.normal(size=spec.continuous)
    level_effects = rng.normal(size=(spec.categorical, len(LEVELS)))
    y = 1.5 + cont @ coefs + 0.5 * rng.standard_normal(n)
    for c in range(spec.categorical):
        y += level_effects[c, cats[:, c]]
    header = [f"x{j + 1}" for j in range(spec.continuous)]
    header += [f"c{j + 1}" for j in range(spec.categorical)]
    rows = []
    for i in range(n):
        cells = [repr(float(v)) for v in cont[i]]
        cells += [LEVELS[k] for k in cats[i]]
        cells.append(repr(float(y[i])))
        rows.append(cells)
    return header + ["y"], rows


def write_table(spec: TableSpec, seed: int, directory: str) -> dict:
    """Write ``spec`` as ``<directory>/<name>.csv``; returns its description.

    The description records n, p, the column kinds, the share of feature
    cells that repeat a value already seen in their column, and the file
    size in bytes.
    """
    # One child stream per table name keeps tables independent of each other.
    entropy = [int(seed)] + [ord(ch) for ch in spec.name]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    header, rows = _table(spec, rng)
    path = os.path.join(directory, f"{spec.name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    distinct = sum(len({row[j] for row in rows}) for j in range(spec.p))
    return {
        "file": os.path.basename(path),
        "n": spec.n,
        "p": spec.p,
        "kinds": {"continuous": spec.continuous, "categorical": spec.categorical},
        "duplicate_share": 1.0 - distinct / (spec.n * spec.p),
        "bytes": os.path.getsize(path),
    }
