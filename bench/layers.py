"""Outside-in layer tracing for boxprobe.

The tracer wraps the public functions and methods of each ``boxprobe``
module from outside the package, records a span for every call, and adds
up per-layer self time (a span's duration minus the part of it that its
child spans cover) and per-layer counts.  Nothing inside the package is
edited: :meth:`Tracer.install` swaps attributes on the package's modules
and classes, and :meth:`Tracer.uninstall` puts every original back.

Prediction may fan out to a thread pool.  Worker-thread spans are parented
to the span that submitted them; when several run at once, their summed
time is scaled down to the wall time they cover, so a layer's seconds never
exceed the wall time of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

# (span name, module, class whose method is wrapped or None, attributes).
# A span name may appear more than once; its calls add up.
SPANS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("cli.main", "boxprobe.cli", None, ("main",)),
    ("dataio.load_csv", "boxprobe.dataio", None, ("load_csv",)),
    ("dataio.emit", "boxprobe.dataio", None, ("emit_json", "emit_points_csv", "emit_score_csv")),
    ("refmodels.load_model", "boxprobe.refmodels", None, ("load_model",)),
    ("refmodels.predict", "boxprobe.refmodels", "LinearModel", ("_predict",)),
    ("refmodels.predict", "boxprobe.refmodels", "KNNModel", ("_predict",)),
    ("refmodels.predict", "boxprobe.refmodels", "StumpModel", ("_predict",)),
    ("core.intervene", "boxprobe.core", None, ("intervene_replace", "intervene_permute", "intervene_shift")),
    ("core.cache", "boxprobe.core", "PredictionCache", ("predict",)),
    ("core.handle", "boxprobe.core", "PredictorHandle", ("__call__",)),
    ("data.replace_columns", "boxprobe.data", "Dataset", ("replace_columns",)),
    ("data.matrix", "boxprobe.data", "Dataset", ("matrix",)),
    (
        "effects",
        "boxprobe.effects",
        None,
        (
            "ice_curves",
            "pd_curve",
            "ale_first_order",
            "marginal_effect",
            "average_marginal_effect",
            "lime_explain",
        ),
    ),
    (
        "importance",
        "boxprobe.importance",
        None,
        (
            "pd_importance",
            "ces_curve",
            "firm",
            "ici_curve",
            "pi_curve",
            "pfi_exhaustive",
            "pfi_permutation",
            "pfi_payout",
            "sfimp",
        ),
    ),
    ("shapley", "boxprobe.shapley", None, ("shapley_exact", "shapley_mc", "pd_payout")),
)


class _Span:
    __slots__ = (
        "name", "parent", "thread", "start", "child_time", "children",
        "foreign", "foreign_totals", "sink",
    )

    def __init__(self, name: str, parent: "_Span | None", thread: int, sink: dict):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child_time = 0.0  # same-thread children run one after another
        self.children = 0
        self.foreign: list[tuple[float, float]] = []  # worker-thread child intervals
        self.foreign_totals: dict[str, float] = defaultdict(float)
        self.sink = sink
        self.start = 0.0


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


class Tracer:
    """Per-layer self time and counts for one or more boxprobe runs."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.capture: list[np.ndarray] | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> _Span | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def _enter(self, name: str) -> _Span:
        stack = self._stack()
        parent = self.current()
        thread = threading.get_ident()
        if parent is None:
            sink = self.self_s
        elif parent.thread == thread:
            sink = parent.sink
        else:
            sink = defaultdict(float)  # worker root: merged into the parent on exit
        span = _Span(name, parent, thread, sink)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: _Span) -> None:
        end = time.perf_counter()
        self._stack().pop()
        duration = end - span.start
        covered = span.child_time
        with self._lock:
            if span.foreign:
                wall = _union_length(span.foreign)
                summed = sum(b - a for a, b in span.foreign)
                scale = wall / summed if summed > 0 else 0.0
                for name, seconds in span.foreign_totals.items():
                    span.sink[name] += seconds * scale
                covered += wall
            span.sink[span.name] += duration - covered
            if span.parent is None:
                self.inclusive_s[span.name] += duration
            parent = span.parent
            if parent is not None:
                parent.children += 1
                if parent.thread == span.thread:
                    parent.child_time += duration
                else:
                    parent.foreign.append((span.start, end))
                    for name, seconds in span.sink.items():
                        parent.foreign_totals[name] += seconds

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += int(amount)

    def adopt(self, parent: _Span | None, fn: Callable, *args, **kwargs):
        """Run ``fn`` in a worker thread with ``parent`` as its causing span."""
        self._local.inherited = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.inherited = None

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            tracer.count(name + ".calls")
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def _requested(self, matrix: Any) -> None:
        rows = int(np.shape(matrix)[0])
        self.count("core.rows_requested", rows)
        if self.capture is not None:
            self.capture.append(np.asarray(matrix))

    def _after_cache(self, span: _Span, args: tuple, result: Any) -> None:
        self._requested(args[2])
        if span.children == 0:
            self.count("core.cache_hits")

    def _after_handle(self, span: _Span, args: tuple, result: Any) -> None:
        # Rows asked of the predictor directly, not through a prediction cache.
        if span.parent is None or span.parent.name != "core.cache":
            self._requested(args[1])

    def _after_predict(self, span: _Span, args: tuple, result: Any) -> None:
        self.count("refmodels.rows_evaluated", int(np.shape(args[1])[0]))

    def _matrix_wrapper(self, fn: Callable) -> Callable:
        wrapped = self._span_wrapper("data.matrix", fn)
        tracer = self

        @functools.wraps(fn)
        def matrix(dataset):
            fresh = object.__getattribute__(dataset, "_matrix") is None
            result = wrapped(dataset)
            if fresh:
                tracer.count("data.matrix_bytes", result.nbytes)
            return result

        return matrix

    def _counting_init(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def __init__(dataset, *args, **kwargs):
            tracer.count("data.datasets_built")
            return fn(dataset, *args, **kwargs)

        return __init__

    def _pool_class(self, base: type) -> type:
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.count("core.thread_pools_started")
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

        return CountingPool

    # -- install / uninstall ---------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, original: Callable, replacement: Callable) -> None:
        """Swap ``original`` wherever a boxprobe module binds it by name."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "boxprobe" or mod_name.startswith("boxprobe.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self) -> None:
        """Wrap every layer boundary listed in :data:`SPANS`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        after = {
            "core.cache": self._after_cache,
            "core.handle": self._after_handle,
            "refmodels.predict": self._after_predict,
        }
        for name, mod_name, owner_name, attrs in SPANS:
            module = importlib.import_module(mod_name)
            for attr in attrs:
                if owner_name is None:
                    original = getattr(module, attr)
                    self._replace_function(original, self._span_wrapper(name, original, after.get(name)))
                    continue
                cls = getattr(module, owner_name)
                original = cls.__dict__[attr]
                if name == "data.matrix":
                    wrapper = self._matrix_wrapper(original)
                else:
                    wrapper = self._span_wrapper(name, original, after.get(name))
                self._set(cls, attr, wrapper)
        data = importlib.import_module("boxprobe.data")
        self._set(data.Dataset, "__init__", self._counting_init(data.Dataset.__dict__["__init__"]))
        core = importlib.import_module("boxprobe.core")
        self._set(core, "ThreadPoolExecutor", self._pool_class(core.ThreadPoolExecutor))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Plain-dict totals, mergeable across processes with :func:`merge`."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "inclusive_s": dict(self.inclusive_s),
                "counts": dict(self.counts),
            }


def merge(summaries: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {"self_s": {}, "inclusive_s": {}, "counts": {}}
    for summary in summaries:
        for section, values in summary.items():
            for key, value in values.items():
                out[section][key] = out[section].get(key, 0) + value
    return out
