"""Run one boxprobe benchmark workload and print its metrics.

    python3 bench/run.py --workload grid_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The inputs are generated from ``--seed``
under ``.bench_work/`` and removed afterwards.  Set-up (input generation,
model fits, warm-up) runs three times and reports its median.  The timed
phase then repeats whole passes over the workload's operations for about
``--seconds`` seconds, and every output is checked.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one checked pass is followed by
traced and untraced passes in turn, and the object carries the per-layer
metrics instead.  A report with the environment, the inputs and every
failure goes to standard error.  ``--record-digests`` rewrites
``bench/digests.json`` from one oracle-checked pass of every workload at
the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

import numpy as np  # noqa: E402

from bench.checks import CheckError, Checker, check_identity, digest, prediction_rows  # noqa: E402
from bench.inputs import write_table  # noqa: E402
from bench.layers import Tracer, merge  # noqa: E402
from bench.workloads import WORKLOADS, Op  # noqa: E402

DIGESTS = os.path.join(ROOT, "bench", "digests.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
OP_LIMIT_S = 30.0  # an operation running longer is stopped and counted as failed
RUN_LIMIT_S = 120.0  # no operation starts later than this into the run


class OpTimeout(Exception):
    """An operation ran past its time limit."""


class SetupError(Exception):
    """Set-up could not produce the inputs."""


def call_with_limit(fn, limit_s: float):
    """Call ``fn()`` in this (main) thread; raise :class:`OpTimeout` after ``limit_s``."""

    def on_alarm(signum, frame):
        raise OpTimeout(f"stopped after {limit_s:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@dataclass
class OpResult:
    label: str
    wall: float
    raw: bytes | None = None
    rows: int = 0
    error: str | None = None
    summary: dict | None = None  # layer totals of a traced subprocess


class Runner:
    """Set-up, passes and checks for one workload in one work directory."""

    def __init__(self, workload, seed: int, work: str):
        self.w = workload
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.files: dict[str, tuple[str, str]] = {}
        self.inputs: list[dict] = []
        self.verified: dict[str, tuple[bytes, int]] = {}  # label -> (checked bytes, rows)
        self.traced = False
        self.checker: Checker | None = None

    # -- invoking boxprobe -------------------------------------------------------

    def invoke(self, argv: list[str], summary_path: str | None = None) -> tuple[int, float]:
        """Run one CLI command; returns (exit code, wall seconds)."""
        if self.w.subprocess:
            if self.traced:
                cmd = [sys.executable, os.path.join(ROOT, "bench", "traced_cli.py"), summary_path, *argv]
            else:
                cmd = [sys.executable, "-m", "boxprobe", *argv]
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                    stderr=subprocess.PIPE, timeout=OP_LIMIT_S,
                )
            except subprocess.TimeoutExpired:
                raise OpTimeout(f"stopped after {OP_LIMIT_S:g} s") from None
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
            return proc.returncode, wall
        import boxprobe.cli as cli

        start = time.perf_counter()
        code = call_with_limit(lambda: cli.main(argv), OP_LIMIT_S)
        return code, time.perf_counter() - start

    def op_argv(self, op, out: str) -> list[str]:
        csv_path, model_path = self.files[op.table]
        if op.method == "fit":
            return [*op.args, "--data", csv_path, "--target", "y", "--out", out]
        return [*op.args, "--data", csv_path, "--model", model_path, "--target", "y", "--out", out]

    # -- set-up ------------------------------------------------------------------

    def set_up_once(self, directory: str) -> float:
        """Generate inputs, fit models and warm up; returns the wall seconds."""
        start = time.perf_counter()
        os.makedirs(directory)
        self.inputs = [write_table(spec, self.seed, directory) for spec in self.w.tables]
        if not self.w.subprocess:
            # The timed phase imports boxprobe once per process; pay it here.
            subprocess.run(
                [sys.executable, "-c", "import boxprobe.cli"], env=self.env, check=True, timeout=OP_LIMIT_S
            )
        files = {}
        for table, flags in self.w.models.items():
            csv_path = os.path.join(directory, f"{table}.csv")
            model_path = os.path.join(directory, f"{table}.model.json")
            argv = ["fit", "--data", csv_path, "--target", "y", *flags, "--out", model_path]
            code, _ = self.invoke(argv)
            if code != 0:
                raise SetupError(f"fitting {table} exited with {code}")
            files[table] = (csv_path, model_path)
        self.files = files
        warm = Op("warm-up", self.w.tables[0].name, ("me", "--feature", "x1", "--row", "0"))
        code, _ = self.invoke(self.op_argv(warm, os.path.join(directory, "warm.json")))
        if code != 0:
            raise SetupError(f"warm-up exited with {code}")
        return time.perf_counter() - start

    def set_up(self) -> list[float]:
        """Set up :data:`SETUP_REPEATS` times; the last inputs are the ones measured."""
        times = [self.set_up_once(os.path.join(self.work, f"setup{r}")) for r in range(SETUP_REPEATS)]
        digests = None
        if self.seed == DEFAULT_SEED:
            with open(DIGESTS, encoding="utf-8") as fh:
                digests = json.load(fh).get(self.w.name, {})
        self.checker = Checker(self.files, digests)
        return times

    # -- passes ------------------------------------------------------------------

    def run_op(self, index: int, op) -> OpResult:
        out = os.path.join(self.work, f"op{index}.out")
        summary_path = os.path.join(self.work, f"op{index}.trace.json")
        for stale in (out, summary_path):
            if os.path.exists(stale):
                os.remove(stale)
        result = OpResult(op.label, 0.0)
        start = time.perf_counter()
        try:
            code, result.wall = self.invoke(self.op_argv(op, out), summary_path)
            if code != 0:
                result.error = f"exit code {code}"
                return result
            with open(out, "rb") as fh:
                result.raw = fh.read()
            result.rows = self.verify(op, result.raw)
            if self.traced and self.w.subprocess:
                with open(summary_path, encoding="utf-8") as fh:
                    result.summary = json.load(fh)
        except Exception as exc:  # one failed operation must not end the run
            result.wall = result.wall or time.perf_counter() - start
            result.error = f"{type(exc).__name__}: {exc}"
            if not isinstance(exc, (OpTimeout, OSError, CheckError)):
                traceback.print_exc(file=sys.stderr)
        return result

    def verify(self, op, raw: bytes) -> int:
        """Check one output; returns its logical prediction rows.

        Only the bytes are kept, not the parsed document, so the checks add
        no objects for the garbage collector to traverse during later passes.
        """
        known = self.verified.get(op.label)
        if known is not None:
            if known[0] != raw:
                raise CheckError("document differs from the same operation's earlier output")
            return known[1]
        doc = self.checker.check(op, raw)
        rows = 0 if op.method == "fit" else prediction_rows(doc)
        self.verified[op.label] = (raw, rows)
        return rows

    def run_pass(self) -> list[OpResult]:
        results = []
        for index, op in enumerate(self.w.ops):
            if time.monotonic() > self.deadline:
                break
            results.append(self.run_op(index, op))
        by_label = {r.label: r for r in results}
        for kind, a, b in self.w.identities:
            ra, rb = by_label.get(a), by_label.get(b)
            if ra is None or rb is None or ra.error or rb.error:
                continue
            try:
                check_identity(kind, ra.raw, rb.raw)
            except CheckError as exc:
                rb.error = f"identity {kind} with {a}: {exc}"
        for r in results:
            if r.error:
                print(f"FAILED {self.w.name} {r.label}: {r.error}", file=sys.stderr)
            r.raw = None
        return results

    def run_passes(self, seconds: float, min_passes: int, started: float) -> list[list[OpResult]]:
        """Whole passes until the next one would end past ``seconds`` (at least ``min_passes``)."""
        passes: list[list[OpResult]] = []
        lengths: list[float] = []
        while time.monotonic() < self.deadline:
            begin = time.monotonic()
            passes.append(self.run_pass())
            lengths.append(time.monotonic() - begin)
            if len(passes) >= min_passes and (
                time.monotonic() - started + statistics.median(lengths) > seconds
            ):
                break
        return passes

    # -- floor -------------------------------------------------------------------

    def floor_seconds(self) -> float:
        """Predict the floor operation's requested rows in one model call."""
        import boxprobe.cli as cli
        from boxprobe.refmodels import load_model

        op = next(o for o in self.w.ops if o.label == self.w.floor_op)
        tracer = Tracer()
        tracer.capture = []
        with tracer:
            code = call_with_limit(
                lambda: cli.main(self.op_argv(op, os.path.join(self.work, "floor.json"))), OP_LIMIT_S
            )
        if code != 0:
            raise SetupError(f"floor operation exited with {code}")
        matrix = np.concatenate(tracer.capture)
        tracer.capture = None
        model = load_model(self.files[op.table][1])
        times: list[float] = []
        while len(times) < 3 and sum(times) < 2.0:
            start = time.perf_counter()
            model._predict(matrix)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def _peak_rss_mb(subprocess_mode: bool) -> float:
    who = resource.RUSAGE_CHILDREN if subprocess_mode else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _interpreter_start_s(env: dict[str, str]) -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=OP_LIMIT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _environment(env: dict[str, str]) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "python_c_pass_s": _interpreter_start_s(env),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, setup_times: list[float], passes: list[list[OpResult]]) -> tuple[dict, dict]:
    ops = [r for p in passes for r in p]
    walls = [r.wall for r in ops]
    q = runner.w.tail_quantile
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "wall_s": _metric(statistics.median(sum(r.wall for r in p) for p in passes), "s"),
        "rows_per_s": _metric(sum(r.rows for r in ops) / sum(walls), "1/s"),
        "op_p50_ms": _metric(_quantile(walls, 0.5) * 1000.0, "ms"),
        "op_tail_ms": _metric(_quantile(walls, q) * 1000.0, "ms"),
        "peak_rss_mb": _metric(_peak_rss_mb(runner.w.subprocess), "MB"),
    }
    per_op = {op.label: statistics.median(r.wall for r in ops if r.label == op.label) for op in runner.w.ops}
    notes = {
        "tail_percentile": round(100 * q, 1),
        "operations": len(ops),
        "pass_walls_s": [sum(r.wall for r in p) for p in passes],
        "op_median_s": per_op,
    }
    return metrics, notes


def run_traced(runner: Runner, seconds: float, started: float):
    """A first pass (warm-up and checks), then traced and untraced passes in turn."""
    first = runner.run_pass()
    tracer = Tracer()
    traced: list[list[OpResult]] = []
    untraced: list[list[OpResult]] = []
    lengths: list[float] = []
    while time.monotonic() < runner.deadline:
        begin = time.monotonic()
        runner.traced = True
        if not runner.w.subprocess:
            tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
            runner.traced = False
        untraced.append(runner.run_pass())
        lengths.append(time.monotonic() - begin)
        if time.monotonic() - started + statistics.median(lengths) > seconds:
            break
    return first, traced, untraced, tracer.summary()


def per_layer(runner: Runner, traced: list[list[OpResult]], untraced: list[list[OpResult]], summary: dict) -> dict:
    if runner.w.subprocess:
        summary = merge([r.summary for p in traced for r in p if r.summary])
    n = len(traced)
    self_s, counts = summary["self_s"], summary["counts"]
    wall = sum(r.wall for p in traced for r in p)
    requested = counts.get("core.rows_requested", 0)
    evaluated = counts.get("refmodels.rows_evaluated", 0)
    predict = self_s.get("refmodels.predict", 0.0)

    def s(name):
        return _metric(self_s.get(name, 0.0) / n, "s")

    def c(name, unit="count"):
        return _metric(counts.get(name, 0) / n, unit)

    return {
        "cli.start_s": _metric((wall - summary["inclusive_s"].get("cli.main", 0.0)) / n, "s"),
        "cli.main_s": s("cli.main"),
        "dataio.load_csv_s": s("dataio.load_csv"),
        "dataio.emit_s": s("dataio.emit"),
        "refmodels.load_model_s": s("refmodels.load_model"),
        "refmodels.predict_s": s("refmodels.predict"),
        "refmodels.predict_calls": c("refmodels.predict.calls"),
        "refmodels.rows_evaluated": c("refmodels.rows_evaluated"),
        "refmodels.floor_s": _metric(runner.floor_seconds(), "s"),
        "core.cache_self_s": s("core.cache"),
        "core.handle_check_s": s("core.handle"),
        "core.intervene_s": s("core.intervene"),
        "core.intervene_calls": c("core.intervene.calls"),
        "core.rows_requested": c("core.rows_requested"),
        "core.cache_hits": c("core.cache_hits"),
        "core.dedup_ratio": _metric(evaluated / requested if requested else 1.0, "ratio"),
        "core.thread_pools_started": c("core.thread_pools_started"),
        "data.datasets_built": _metric(
            (counts.get("data.datasets_built", 0) + counts.get("data.replace_columns.calls", 0)) / n,
            "count",
        ),
        "data.replace_columns_s": s("data.replace_columns"),
        "data.matrix_s": s("data.matrix"),
        "data.matrix_bytes": c("data.matrix_bytes", "bytes-computed"),
        "effects.self_s": s("effects"),
        "importance.self_s": s("importance"),
        "shapley.self_s": s("shapley"),
        "predictor_share": _metric(predict / wall, "ratio"),
        "overhead_us_per_row": _metric(
            (wall - predict) / requested * 1e6 if requested else 0.0, "us/row"
        ),
        "trace.overhead_ratio": _metric(
            statistics.median(sum(r.wall for r in p) for p in traced)
            / statistics.median(sum(r.wall for r in p) for p in untraced),
            "ratio",
        ),
        "trace.pass_wall_s": _metric(wall / n, "s"),
    }


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh directory under ``.bench_work/``, removed with its contents afterwards."""
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=base)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(base)


def run_workload(workload, seed: int, seconds: float, trace: bool) -> int:
    with work_dir(workload.name) as work:
        runner = Runner(workload, seed, work)
        try:
            setup_times = runner.set_up()
        except (SetupError, subprocess.SubprocessError, OSError) as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        started = time.monotonic()
        report = {"workload": workload.name, "seed": seed, "inputs": runner.inputs}
        if trace:
            first, traced, untraced, summary = run_traced(runner, seconds, started)
            metrics = per_layer(runner, traced, untraced, summary)
            ops = first + [r for p in traced + untraced for r in p]
        else:
            passes = runner.run_passes(seconds, workload.min_passes, started)
            metrics, notes = end_to_end(runner, setup_times, passes)
            report.update(notes)
            ops = [r for p in passes for r in p]
        failed = sum(1 for r in ops if r.error)
        report["fail_ratio"] = failed / len(ops) if ops else 1.0
        report["setup_s"] = setup_times
        report["environment"] = _environment(runner.env)
        print(json.dumps(report, indent=1), file=sys.stderr)
        print(json.dumps({"correct": failed == 0 and bool(ops), "attempted": len(ops), "failed": failed, "metrics": metrics}))
        return 0


def record_digests() -> int:
    """Rewrite digests.json from one oracle-checked pass of every workload."""
    recorded = {}
    for workload in WORKLOADS.values():
        with work_dir(workload.name) as work:
            runner = Runner(workload, DEFAULT_SEED, work)
            runner.set_up_once(os.path.join(work, "setup"))
            runner.checker = Checker(runner.files, None)
            digests = {}
            for index, op in enumerate(workload.ops):
                out = os.path.join(work, f"op{index}.out")
                code, _ = runner.invoke(runner.op_argv(op, out))
                if code != 0:
                    raise SetupError(f"{workload.name} {op.label} exited with {code}")
                with open(out, "rb") as fh:
                    raw = fh.read()
                runner.checker.check(op, raw)
                digests[op.label] = digest(raw)
            recorded[workload.name] = digests
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "boxprobe", "__init__.py")):
        print(f"error: no boxprobe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    if args.record_digests:
        return record_digests()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
