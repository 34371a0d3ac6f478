"""Immutable tabular data with per-feature metadata.

A :class:`Dataset` holds an n x p feature matrix (continuous columns as
float64, categorical columns as float64 level codes), optional targets, and the
provenance records of the operations that produced it.  Datasets are never
mutated; sampling and interventions return new instances.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidLevelError,
    MissingTargetError,
    UnsupportedKindError,
)
from .trace import StageRecord

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class FeatureMeta:
    """Schema for one feature column.

    ``levels`` is the ordered list of admissible values for a categorical
    feature; ``observed_range`` is the (min, max) seen at construction time
    for a continuous one.  Interventions may move continuous values outside
    the observed range (deliberately: finite-difference methods extrapolate),
    so the range describes the original observations, not a constraint.
    """

    name: str
    kind: str
    levels: tuple[str, ...] | None = None
    observed_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise InvalidArgumentError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if not self.levels:
                raise InvalidArgumentError(
                    f"categorical feature {self.name!r} needs a non-empty level list"
                )
            levels = tuple(str(v) for v in self.levels)
            if len(set(levels)) != len(levels):
                raise InvalidArgumentError(f"duplicate levels for feature {self.name!r}")
            object.__setattr__(self, "levels", levels)
            if self.observed_range is not None:
                raise InvalidArgumentError(
                    f"categorical feature {self.name!r} cannot carry an observed range"
                )
        else:
            if self.levels is not None:
                raise InvalidArgumentError(
                    f"continuous feature {self.name!r} cannot carry levels"
                )
            if self.observed_range is not None:
                what = f"observed range of {self.name!r}"
                pair = _reals(self.observed_range, what) if np.iterable(self.observed_range) else None
                if pair is None or pair.shape != (2,):
                    raise InvalidArgumentError(f"{what} must be a (min, max) pair, got {self.observed_range!r}")
                lo, hi = pair.tolist()
                if lo > hi:
                    raise InvalidArgumentError(f"{what} has min > max")
                object.__setattr__(self, "observed_range", (lo, hi))

    @functools.cached_property
    def codes(self) -> dict[str, float]:
        """Each level's code: its index in ``levels``, as a float."""
        return {level: float(i) for i, level in enumerate(self.levels or ())}


def _is_number(value: Any) -> bool:
    # concrete types first: the abstract Real check is the slow one
    return isinstance(value, (float, int, np.floating, np.integer, Real)) and not isinstance(
        value, (bool, np.bool_)
    )


def _all_numbers(values: Any) -> bool:
    """Whether each of ``values`` is a number (:func:`_is_number`); an integer or float array is, unscanned."""
    return (isinstance(values, np.ndarray) and values.dtype.kind in "iuf") or all(_is_number(v) for v in values)


def _shown(value: Any) -> str:
    """``repr(value)``, with an integer past Python's 4300-digit print limit, alone or in a
    sequence, shown as its sign and bit length."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        return f"[{', '.join(map(_shown, value))}]"


def _real(value: Any, what: str, positive: bool = False) -> float:
    """The real-number rule for one argument: ``value`` as a Python float if it is a Python or numpy
    real, not a bool or a string, finite and, with ``positive``, above 0, else :class:`InvalidArgumentError`."""
    if _is_number(value) and -np.inf < value < np.inf and (value > 0 or not positive):
        with contextlib.suppress(OverflowError):  # an integer past the float64 range
            return float(value)
    need = "positive, finite and real" if positive else "finite and real"
    raise InvalidArgumentError(f"{what} must be {need}, got {_shown(value)}")


def _reals(values: Any, what: str) -> np.ndarray:
    """The real-number rule for a 1-D sequence, vectorized: the values as a new float64 array if each
    passes :func:`_real`'s rule.  A float or integer array, or a list of Python floats and ints, needs
    no per-value check; a value that is no number raises :class:`UnsupportedKindError`."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        col = np.array(values, dtype=float)
    else:
        if not set(map(type, values)) <= {float, int, np.float64}:  # np.float64 is a float
            for v in values:
                if not _is_number(v):
                    raise UnsupportedKindError(f"{what} is continuous; got non-numeric {v!r}")
        try:
            col = np.fromiter(values, float, len(values))  # each value a scalar: twice np.array's speed
        except OverflowError:
            raise InvalidArgumentError(f"{what} holds an integer past the float64 range") from None
    if col.ndim != 1:
        raise InvalidArgumentError(f"{what} is not one-dimensional")
    finite = np.isfinite(col)
    if not finite.all():
        raise InvalidArgumentError(
            f"{what} got the non-finite value {float(col[~finite][0])!r}; its values must be finite"
        )
    return col


def _integer(value: Any, what: str, low: int = 0, high: int | None = None) -> int:
    """The one integer rule, for every feature index, row, count and seed: ``value``
    as an ``int`` if it is a Python or numpy integer, not a bool or a float, from
    ``low`` to ``high`` (no upper bound if None), else :class:`InvalidArgumentError`."""
    if isinstance(value, Integral) and not isinstance(value, bool) and low <= value:
        if high is None or value <= high:
            return int(value)
    if high is not None:
        raise InvalidArgumentError(f"{what} out of range: {_shown(value)} is not an integer from {low} to {high}")
    need = "a non-negative integer" if low == 0 else f"an integer of at least {low}"
    raise InvalidArgumentError(f"{what} must be {need}, got {_shown(value)}")


def _indices(values: Any, what: str, n: int) -> np.ndarray:
    """The integer rule for a 1-D array of indices, vectorized: an integer dtype,
    not bool, every entry from 0 to n - 1, else :class:`InvalidArgumentError`."""
    indices = np.asarray(values)
    kind = indices.dtype.kind if indices.size else "i"  # numpy reads [] as float64
    if indices.ndim == 1 and kind in "iu" and ((0 <= indices) & (indices < n)).all():
        return indices.astype(np.intp, copy=False)
    raise InvalidArgumentError(f"{what} must be integers from 0 to {n - 1}, got {_shown(indices)}")


def _level_codes(values: Sequence[Any], meta: FeatureMeta) -> np.ndarray:
    codes = []
    for v in values:
        try:
            codes.append(meta.codes[str(v)])
        except (KeyError, ValueError):  # str raises ValueError for an integer past the 4300-digit limit
            shown = _shown(v) if isinstance(v, int) else repr(str(v))
            raise InvalidLevelError(
                f"value {shown} is not a registered level of feature {meta.name!r} (levels: {list(meta.levels)})"
            ) from None
    return np.array(codes, dtype=float)


def _codes(values: Sequence[Any], meta: FeatureMeta) -> np.ndarray:
    """The one rule for user values of a feature, as a new array of its codes: the real-number
    rule (:func:`_reals`) for a continuous feature, a registered level for a categorical one."""
    return _level_codes(values, meta) if meta.kind == CATEGORICAL else _reals(values, f"feature {meta.name!r}")


def _levels(codes: np.ndarray, meta: FeatureMeta) -> np.ndarray:
    return np.array(meta.levels, dtype=object)[codes.astype(np.intp)]


def encode(columns: Sequence[Sequence[Any]], meta: Sequence[FeatureMeta]) -> np.ndarray:
    """The C-contiguous float64 code matrix of ``columns``, one per feature of
    ``meta`` (``matrix.T`` for a matrix), each checked by :func:`_codes`."""
    return np.column_stack([_codes(col, m) for col, m in zip(columns, meta, strict=True)])


def decode(codes: np.ndarray, meta: Sequence[FeatureMeta]) -> np.ndarray:
    """The matrix users see for a code matrix: the codes themselves if every
    feature is continuous, else an object matrix of floats and level strings."""
    if all(m.kind == CONTINUOUS for m in meta):
        return codes
    out = np.empty(codes.shape, dtype=object)
    for j, m in enumerate(meta):
        out[:, j] = codes[:, j] if m.kind == CONTINUOUS else _levels(codes[:, j], m)
    return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Dataset:
    """Immutable sample of n observations over p features, plus optional target.

    Parameters
    ----------
    features : sequence of rows (each of length p) or 2-D array
        Continuous entries must be real numbers; categorical entries are
        level identifiers (anything string-convertible).
    meta : sequence of FeatureMeta, optional
        Column schemas.  Inferred when omitted: a column whose entries are
        all numeric becomes continuous, anything else categorical with
        sorted unique levels.  Missing observed ranges are filled in from
        the data.
    target : sequence of length n, optional

    A new dataset has no provenance; derived ones record theirs through
    :meth:`replace_columns`, and result traces carry it.

    The one store is a frozen, C-contiguous n x p float64 code matrix, a
    categorical value as the index of its level in ``levels``.  :meth:`column`,
    :meth:`row` and :meth:`matrix` decode the codes to level strings; the
    kernel and the reference models read :meth:`codes`.
    """

    __slots__ = ("_codes", "_meta", "_target", "_provenance", "_matrix", "_name_index")

    def __init__(
        self,
        features: Sequence[Sequence[Any]] | np.ndarray,
        meta: Sequence[FeatureMeta] | None = None,
        target: Sequence[Any] | None = None,
    ) -> None:
        rows = list(features)
        if not rows:
            raise InvalidArgumentError("a dataset needs at least one observation")
        p = len(rows[0])
        for i, r in enumerate(rows):
            if len(r) != p:
                raise InvalidArgumentError(f"row {i} has {len(r)} entries, expected {p}")
        raw_columns = list(zip(*rows))
        if meta is None:
            meta = [_infer_meta(f"x{j + 1}", col) for j, col in enumerate(raw_columns)]
        self._build(raw_columns, meta, target)

    def _build(
        self,
        raw_columns: Sequence[Sequence[Any]],
        meta: Sequence[FeatureMeta],
        target: Sequence[Any] | None,
    ) -> None:
        """Check raw columns against ``meta`` and set them as typed, frozen arrays."""
        if not raw_columns:
            raise InvalidArgumentError("a dataset needs at least one feature")
        if len(meta) != len(raw_columns):
            raise InvalidArgumentError(
                f"got {len(meta)} feature metadata entries for {len(raw_columns)} columns"
            )
        if len({m.name for m in meta}) != len(meta):
            raise InvalidArgumentError("feature names must be unique")
        n = max(len(raw) for raw in raw_columns)
        if n == 0:
            raise InvalidArgumentError("a dataset needs at least one observation")
        columns: list[np.ndarray] = []
        fixed_meta: list[FeatureMeta] = []
        for raw, m in zip(raw_columns, meta):
            if len(raw) != n:
                raise InvalidArgumentError(f"column {m.name!r} has {len(raw)} values, expected {n}")
            col = _codes(raw, m)
            if m.kind == CONTINUOUS and m.observed_range is None:
                m = FeatureMeta(m.name, CONTINUOUS, observed_range=(col.min(), col.max()))
            columns.append(col)
            fixed_meta.append(m)
        name_index = {m.name: j for j, m in enumerate(fixed_meta)}
        self._set(_codes=_freeze(np.column_stack(columns)), _meta=tuple(fixed_meta), _provenance=(),
                  _matrix=None, _target=_build_target(target, n), _name_index=name_index)

    def _set(self, **state: Any) -> None:
        """Write instance state: the only writer, reached through the checks of
        :meth:`_build` or :meth:`replace_columns`, or by a memo."""
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Dataset is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        columns: Mapping[str, Sequence[Any]],
        target: Sequence[Any] | None = None,
        kinds: Mapping[str, str] | None = None,
    ) -> "Dataset":
        """Build a dataset from named columns of equal length, inferring kinds unless given."""
        kinds = dict(kinds or {})
        meta = [_infer_meta(name, values, kinds.pop(name, None)) for name, values in columns.items()]
        if kinds:
            raise InvalidArgumentError(f"kind overrides for unknown columns: {sorted(kinds)}")
        out = cls.__new__(cls)
        out._build(list(columns.values()), meta, target)
        return out

    # -- basic accessors -------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._codes.shape[0]

    @property
    def n_features(self) -> int:
        return self._codes.shape[1]

    @property
    def meta(self) -> tuple[FeatureMeta, ...]:
        return self._meta

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self._meta)

    @property
    def target(self) -> np.ndarray | None:
        return self._target

    @property
    def provenance(self) -> tuple[StageRecord, ...]:
        return self._provenance

    def feature_index(self, feature: int | str) -> int:
        """Resolve a feature, by name or by an index under :func:`_integer`, to a column index."""
        if isinstance(feature, str):
            try:
                return self._name_index[feature]
            except KeyError:
                raise InvalidArgumentError(
                    f"unknown feature {feature!r}; have {list(self.feature_names)}"
                ) from None
        return _integer(feature, "feature index", 0, self.n_features - 1)

    def feature_indices(self, features: Iterable[int | str]) -> tuple[int, ...]:
        """Resolve each of ``features`` (:meth:`feature_index`); naming one twice raises."""
        features = list(features)
        js = tuple(map(self.feature_index, features))
        if len(set(js)) != len(js):
            raise InvalidArgumentError(f"the feature list {features} names a feature twice")
        return js

    def continuous_index(self, feature: int | str, purpose: str) -> int:
        """Column index of a continuous feature; ``purpose`` names what needs one."""
        j = self.feature_index(feature)
        if self._meta[j].kind != CONTINUOUS:
            raise UnsupportedKindError(
                f"feature {self._meta[j].name!r} is categorical, but {purpose} needs a continuous one"
            )
        return j

    def numeric_target(self, purpose: str) -> np.ndarray:
        """The target as float64; ``purpose`` names what needs it."""
        if self._target is None:
            raise MissingTargetError(f"{purpose} needs a dataset with targets")
        if self._target.dtype == object:
            raise InvalidArgumentError(f"{purpose} needs a numeric target")
        return self._target

    def column(self, feature: int | str) -> np.ndarray:
        """One feature's values: a read-only float64 view, or level strings for a categorical."""
        j = self.feature_index(feature)
        col, m = self._codes[:, j], self._meta[j]
        return col if m.kind == CONTINUOUS else _freeze(_levels(col, m))

    def row(self, i: int) -> tuple[Any, ...]:
        """Feature values of observation ``i``, an index under :func:`_integer`, as Python scalars."""
        i = _integer(i, "observation index", 0, self.n_rows - 1)
        return tuple(decode(self.codes()[i : i + 1], self._meta)[0].tolist())

    def matrix(self) -> np.ndarray:
        """The n x p feature matrix (float64 if all columns are continuous)."""
        if self._matrix is None:
            self._set(_matrix=_freeze(decode(self.codes(), self._meta)))
        return self._matrix

    def codes(self) -> np.ndarray:
        """The n x p code matrix (:func:`encode`), frozen and C-contiguous: the dataset's one store."""
        return self._codes

    # -- derivation ------------------------------------------------------------

    def replace_columns(
        self,
        group: Any,
        record: StageRecord | None = None,
        row_subset: np.ndarray | None = None,
    ) -> "Dataset":
        """Internal constructor for derived datasets (interventions, sampling): the data with one copy
        of a plan group (:meth:`check_codes`), of shape (1, q) or (1, q, n), written as the kernel writes
        a copy, then only the rows ``row_subset``.  The metadata, observed ranges included, is unchanged."""
        js, copy = self.check_codes(group, self.n_rows)
        if len(copy) != 1:
            raise InvalidArgumentError(f"a derived dataset takes one copy of a plan group, got {len(copy)}")
        codes = self._codes
        if js:
            codes = codes.copy()
            codes[:, js] = copy[0]
        target = self._target
        if row_subset is not None:
            codes = codes[row_subset]
            target = None if target is None else _freeze(target[row_subset])
        provenance = self._provenance + ((record,) if record is not None else ())
        out = object.__new__(Dataset)
        out._set(_codes=_freeze(codes), _meta=self._meta, _provenance=provenance, _matrix=None,
                 _target=target, _name_index=self._name_index)
        return out

    def check_value(self, j: int, value: Any) -> Any:
        """Validate one prospective value for column ``j`` (:func:`_codes`' rule);
        returns it as a float or a level string."""
        m = self._meta[j]
        code = float(_codes([value], m)[0])
        return code if m.kind == CONTINUOUS else m.levels[int(code)]

    def check_codes(self, group: Any, m: int) -> tuple[tuple[int, ...], np.ndarray]:
        """Validate one group ``(features, codes)`` of a substitution plan: q ``features``
        (:meth:`feature_indices`) and their codes, of shape (G, q), one per feature in every row of a copy,
        or (G, q, m), one per row.  Returns the sorted column indices ``js`` and the float64 codes as rows,
        (G, 1, q) or (G, m, q), for ``copies[..., js] = codes`` to write into a (G, m, p) stack.  A continuous
        code is its value, checked by :func:`_codes` as one flat array; a categorical code is a level
        index, an integral real number from 0 to L - 1.  A list's values are checked as given, unpromoted."""
        try:  # a mapping, a lone value or a ragged array is no group
            features, codes = () if isinstance(group, Mapping) else group
            np.asarray(codes)  # raises for a ragged list; a list's values are then kept as objects
            codes = codes if isinstance(codes, np.ndarray) else np.array(codes, dtype=object)
        except (TypeError, ValueError):
            raise InvalidArgumentError(f"a plan group is (features, codes); got {group!r}") from None
        js = self.feature_indices(features)
        if codes.ndim not in (2, 3) or codes.shape[1] != len(js):
            raise InvalidArgumentError(f"codes of shape {codes.shape} for {len(js)} features")
        if codes.ndim == 3 and codes.shape[2] != m:
            raise InvalidArgumentError(f"a copy of {codes.shape[2]} values for {m} rows")
        out = np.empty((len(codes), m if codes.ndim == 3 else 1, len(js)))
        for k, j in enumerate(sorted(js)):
            shown, meta = codes[:, js.index(j)].reshape(-1), self._meta[j]
            if meta.kind == CONTINUOUS:
                col = _codes(shown, meta)
            else:  # each object's own dtype, not the one numpy would promote to, must be real
                col = shown if shown.dtype != object else np.array(
                    [v if np.asarray(v).dtype.kind in "iuf" else np.nan for v in shown], dtype=float)
                valid = np.isin(col, range(len(meta.levels))) if col.dtype.kind in "iuf" else np.zeros(col.shape, bool)
                if not valid.all():
                    raise InvalidArgumentError(f"feature {meta.name!r} takes level codes, integers from 0 to "
                                               f"{len(meta.levels) - 1}; got {_shown(shown[~valid].tolist()[0])}")
            out[..., k] = col.reshape(out.shape[:2])
        return tuple(sorted(js)), out

    def check_vector(self, x: Sequence[Any]) -> tuple[Any, ...]:
        """Validate a full feature vector against this dataset's schema."""
        x = list(x)
        if len(x) != self.n_features:
            raise InvalidArgumentError(
                f"feature vector has {len(x)} entries, expected {self.n_features}"
            )
        return tuple(self.check_value(j, v) for j, v in enumerate(x))


def _infer_meta(name: str, values: Sequence[Any], kind: str | None = None) -> FeatureMeta:
    """Schema for one column of the given kind, inferred when ``kind`` is None."""
    if kind is None:
        kind = CONTINUOUS if _all_numbers(values) else CATEGORICAL
    levels = tuple(sorted({str(v) for v in values})) if kind == CATEGORICAL else None
    return FeatureMeta(name, kind, levels=levels)


def _build_target(target: Sequence[Any] | None, n: int) -> np.ndarray | None:
    if target is None:
        return None
    values = target if isinstance(target, np.ndarray) else list(target)
    if len(values) != n:
        raise InvalidArgumentError(f"target has {len(values)} entries for {n} observations")
    if not _all_numbers(values):
        return _freeze(np.array([str(v) for v in values], dtype=object))
    return _freeze(_reals(values, "target"))
