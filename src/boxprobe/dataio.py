"""CSV ingestion and deterministic document emission.

One fixed CSV dialect: comma separator, one header row, ``.`` decimal
point, numbers in ASCII with no ``_`` digit separators.  Parse errors name
the offending line (1-based, header is line 1) and column.  Emission is
byte-deterministic: floats are written in shortest round-trip form, a CSV
cell is quoted only when it holds a comma, a quote or a line break, and
JSON documents re-emit unchanged after parsing.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Mapping, Sequence

import numpy as np

from .data import CATEGORICAL, CONTINUOUS, Dataset
from .errors import DataFormatError


def _floats(cells: Sequence[str]) -> np.ndarray | None:
    """The cells as one float64 array if each is a finite number in the dialect, else None."""
    text = "".join(cells)  # float() also reads "1_0" and non-ASCII digits; the dialect does not
    if not text.isascii() or "_" in text:
        return None
    try:
        col = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None
    return col if np.isfinite(col).all() else None


def load_csv(
    path: str,
    target: str | None = None,
    kinds: Mapping[str, str] | None = None,
) -> Dataset:
    """Read a CSV file into a dataset.

    The reader only parses: a column of finite numbers reaches the dataset
    as one float64 array, any other as its text, and the dataset's own rule
    decides each kind, ``kinds`` overrides included.  ``target`` names the
    column split out as the target vector.  Missing cells, ragged rows,
    duplicate headers, and unparseable overridden columns are errors.
    """
    kinds = dict(kinds or {})
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            table = [[cell.strip() for cell in row] for row in csv.reader(fh)]
    except OSError as exc:
        raise DataFormatError(f"cannot read {path!r}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataFormatError(f"cannot parse {path!r}: {exc}") from exc

    if not table:
        raise DataFormatError(f"{path!r} is empty")
    header = table[0]
    if any(not h for h in header):
        raise DataFormatError("header row contains an empty column name (line 1)")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DataFormatError(f"duplicate header names {dupes} (line 1)")
    body = table[1:]
    if not body:
        raise DataFormatError(f"{path!r} has a header but no data rows")

    for line, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DataFormatError(
                f"ragged row: line {line} has {len(row)} cells, expected {len(header)}"
            )
        if "" in row:
            raise DataFormatError(
                f"missing value at line {line}, column {header[row.index('')]!r}"
            )

    if target is not None and target not in header:
        raise DataFormatError(
            f"unknown target column {target!r}; file has {header}"
        )
    for name, kind in kinds.items():
        if name not in header:
            raise DataFormatError(f"kind override for unknown column {name!r}")
        if name == target:
            raise DataFormatError("kind override names the target column")
        if kind not in (CONTINUOUS, CATEGORICAL):
            raise DataFormatError(f"unknown kind {kind!r} for column {name!r}")

    columns: dict[str, Sequence[Any]] = {}
    for name, raw in zip(header, zip(*body)):
        col = None if kinds.get(name) == CATEGORICAL else _floats(raw)
        if col is None and kinds.get(name) == CONTINUOUS:
            bad = next(i for i, cell in enumerate(raw) if _floats([cell]) is None)
            raise DataFormatError(
                f"column {name!r} is declared continuous but line {bad + 2} "
                f"holds {raw[bad]!r}"
            )
        columns[name] = raw if col is None else col
    target_values = None if target is None else columns.pop(target)
    if not columns:
        raise DataFormatError("no feature columns remain after splitting the target")
    return Dataset.from_columns(columns, target=target_values, kinds=kinds)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def emit_json(document: Mapping[str, Any]) -> str:
    """Serialize an output document; parsing and re-emitting is byte-identical."""
    return json.dumps(document, indent=2, ensure_ascii=True) + "\n"


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, line ends untranslated."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataFormatError(f"cannot write {path!r}: {exc}") from exc


def format_value(value: Any) -> str:
    """One CSV cell: shortest round-trip form for numbers, raw text for levels."""
    return repr(float(value)) if isinstance(value, (float, int)) else str(value)


def _csv(rows: Sequence[Sequence[str]]) -> str:
    """CSV text of ``rows``, each cell quoted only when it needs it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def emit_points_csv(
    xs: Sequence[Any], ys: Sequence[float], x_names: Sequence[str]
) -> str:
    rows = [[*x_names, "y"]]
    for x, y in zip(xs, ys):
        cells = list(x) if isinstance(x, (tuple, list)) else [x]
        rows.append([format_value(c) for c in [*cells, float(y)]])
    return _csv(rows)


def emit_score_csv(method: str, feature: str, score: float) -> str:
    return _csv([["method", "feature", "score"], [method, feature, format_value(float(score))]])
