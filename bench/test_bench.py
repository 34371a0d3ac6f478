"""Tests for the benchmark's own machinery.

    python3 -m pytest bench
"""

import inspect
import json
import sys
import time

import pytest

import boxprobe.cli
from bench.checks import Checker, CheckError, check_identity, digest
from bench.inputs import TableSpec, write_table
from bench.layers import Tracer
from bench.run import OpTimeout, Runner, call_with_limit
from bench.workloads import GRID_SWEEP, Op


def _boxprobe_bindings():
    """Every attribute of every boxprobe module and class, by identity."""
    out = {}
    for name, module in sys.modules.items():
        if name != "boxprobe" and not name.startswith("boxprobe."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith("boxprobe"):
                for member, item in vars(value).items():
                    out[(name, attr, member)] = item
    return out


@pytest.fixture
def workspace(tmp_path):
    spec = TableSpec("lin", n=40, continuous=3)
    write_table(spec, 5, str(tmp_path))
    csv_path, model_path = str(tmp_path / "lin.csv"), str(tmp_path / "lin.model.json")
    code = boxprobe.cli.main(["fit", "--data", csv_path, "--target", "y", "--out", model_path])
    assert code == 0
    return {"files": {"lin": (csv_path, model_path)}, "dir": tmp_path}


def _run(workspace, op):
    csv_path, model_path = workspace["files"][op.table]
    out = workspace["dir"] / "out.json"
    argv = [*op.args, "--data", csv_path, "--model", model_path, "--target", "y", "--out", str(out)]
    assert boxprobe.cli.main(argv) == 0
    return out.read_bytes()


def test_tracer_restores_every_original(workspace):
    before = _boxprobe_bindings()
    tracer = Tracer()
    with tracer:
        assert boxprobe.cli.main is not before[("boxprobe.cli", "main")]
        _run(workspace, Op("pd", "lin", ("pd", "--feature", "x1")))
    after = _boxprobe_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    # The traced run really went through the wrappers.
    assert tracer.counts["cli.main.calls"] == 1
    assert tracer.counts["core.rows_requested"] == 40 * 40


def test_tracer_restores_after_a_failing_run(workspace):
    before = _boxprobe_bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            raise ZeroDivisionError
    assert all(_boxprobe_bindings()[key] is value for key, value in before.items())


def _corrupt_digit(raw: bytes, after: bytes, last: bool) -> bytes:
    """Change the first or last digit of the first number that follows ``after``."""
    start = raw.index(after) + len(after)
    digits = [k for k in range(start, raw.index(b"\n", start)) if raw[k : k + 1].isdigit()]
    k = digits[-1] if last else digits[0]
    return raw[:k] + (b"3" if raw[k : k + 1] != b"3" else b"4") + raw[k + 1 :]


def test_one_corrupted_byte_fails_the_oracle(workspace):
    op = Op("pd:x1", "lin", ("pd", "--feature", "x1"))
    raw = _run(workspace, op)
    checker = Checker(workspace["files"], None)
    checker.check(op, raw)
    corrupted = _corrupt_digit(raw, b'"y": ', last=False)
    assert len(corrupted) == len(raw) and corrupted != raw
    with pytest.raises(CheckError, match="pd values"):
        checker.check(op, corrupted)


def test_one_corrupted_byte_fails_the_digest(workspace):
    op = Op("pd:x1", "lin", ("pd", "--feature", "x1"))
    raw = _run(workspace, op)
    checker = Checker(workspace["files"], {op.label: digest(raw)})
    checker.check(op, raw)
    # Changes below the oracles' tolerance, or in text they do not read.
    k = raw.index(b'"description": "') + len(b'"description": "')
    for corrupted in (
        _corrupt_digit(raw, b'"y": ', last=True),
        raw[:k] + raw[k : k + 1].swapcase() + raw[k + 1 :],
    ):
        assert len(corrupted) == len(raw) and corrupted != raw
        with pytest.raises(CheckError, match="digest"):
            checker.check(op, corrupted)


def test_identities_catch_a_changed_score(workspace):
    a = _run(workspace, Op("pdi", "lin", ("pd-importance", "--feature", "x2")))
    b = _run(workspace, Op("firm", "lin", ("firm", "--feature", "x2")))
    check_identity("same_score", a, b)
    doc = json.loads(b)
    doc["score"] = doc["score"] * (1 + 1e-15) + 1e-300
    with pytest.raises(CheckError):
        check_identity("same_score", a, json.dumps(doc).encode())


def test_generator_is_deterministic(tmp_path):
    spec = TableSpec("mixed", n=60, continuous=3, categorical=2, distinct=40)
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = write_table(spec, 11, str(dirs[0]))
    second = write_table(spec, 11, str(dirs[1]))
    other = write_table(spec, 12, str(dirs[2]))
    read = [(d / "mixed.csv").read_bytes() for d in dirs]
    assert first == second and read[0] == read[1]
    assert read[0] != read[2]
    assert first["n"] == 60 and first["p"] == 5 and 0 < first["duplicate_share"] < 1
    assert other["bytes"] == len(read[2])


def test_operation_time_limit_stops_a_stalled_call():
    start = time.perf_counter()
    with pytest.raises(OpTimeout):
        call_with_limit(lambda: time.sleep(5), 0.2)
    assert time.perf_counter() - start < 2.0
    assert call_with_limit(lambda: 7, 1.0) == 7


def test_runner_fails_a_repeat_that_differs_by_one_byte(workspace, tmp_path):
    op = Op("pd:x1", "lin", ("pd", "--feature", "x1"))
    raw = _run(workspace, op)
    runner = Runner(GRID_SWEEP, 5, str(tmp_path))
    runner.checker = Checker(workspace["files"], None)
    runner.verify(op, raw)
    runner.verify(op, raw)
    with pytest.raises(CheckError, match="earlier output"):
        runner.verify(op, _corrupt_digit(raw, b'"y": ', last=True))


def test_worker_thread_time_is_not_double_counted(tmp_path):
    write_table(TableSpec("knn", n=200, continuous=3), 5, str(tmp_path))
    csv_path, model_path = str(tmp_path / "knn.csv"), str(tmp_path / "knn.model.json")
    fit = ["fit", "--data", csv_path, "--target", "y", "--kind", "knn", "--k", "3", "--out", model_path]
    assert boxprobe.cli.main(fit) == 0
    argv = ["pfi", "--feature", "x1", "--repeats", "3", "--threads", "4"]
    argv += ["--data", csv_path, "--model", model_path, "--target", "y", "--out", str(tmp_path / "o.json")]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer() as tracer:
            assert boxprobe.cli.main(argv) == 0
    finally:
        sys.setswitchinterval(interval)
    summary = tracer.summary()
    wall = summary["inclusive_s"]["cli.main"]
    # Self times partition the run even though four threads predicted at once.
    assert sum(summary["self_s"].values()) == pytest.approx(wall, rel=1e-6)
    assert summary["self_s"]["refmodels.predict"] < wall
    counts = summary["counts"]
    assert counts["core.thread_pools_started"] == 4  # the intact data, then one per repeat
    assert counts["refmodels.rows_evaluated"] == counts["core.rows_requested"] == 4 * 200
    assert counts["refmodels.predict.calls"] == 4 * 4
