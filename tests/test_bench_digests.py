"""Every benchmark operation still writes the bytes ``bench/digests.json`` records,
and makes the predictor calls ``tests/bench_counts.json`` records.

Each workload's operations run once, in this process, at the benchmark's
default seed: the inputs come from ``bench.inputs.write_table``, the models
from ``boxprobe fit``, and each argv from the benchmark runner's ``op_argv``.
The SHA-256 of each output must equal the recorded digest, so a byte drift
fails here before a benchmark run sees it.  Each operation's count of
``PredictorHandle.__call__`` calls and of the rows they pass must equal the
recorded pair, so a change that silently breaks deduplication, stacking or
the kernel's block size fails here too; a change that moves a count on
purpose records the new pair.  Nothing under ``bench/`` is written.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.checks import digest  # noqa: E402
from bench.inputs import write_table  # noqa: E402
from bench.run import DEFAULT_SEED, DIGESTS, Runner  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

from boxprobe import PredictorHandle  # noqa: E402
from boxprobe.cli import main  # noqa: E402

RECORDED = json.loads(Path(DIGESTS).read_text(encoding="utf-8"))
COUNTS = json.loads((Path(__file__).with_name("bench_counts.json")).read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def run(request, tmp_path_factory):
    """One run of a workload's operations: its name, then each operation's
    digest and its ``[predictor calls, rows]``, by label."""
    name = request.param
    workload, tmp_path = WORKLOADS[name], tmp_path_factory.mktemp(name)
    runner = Runner(workload, DEFAULT_SEED, str(tmp_path))
    for spec in workload.tables:
        write_table(spec, DEFAULT_SEED, str(tmp_path))
    for table, flags in workload.models.items():
        csv_path, model_path = str(tmp_path / f"{table}.csv"), str(tmp_path / f"{table}.model.json")
        assert main(["fit", "--data", csv_path, "--target", "y", *flags, "--out", model_path]) == 0
        runner.files[table] = (csv_path, model_path)
    rows = []
    call = PredictorHandle.__call__
    digests, counts = {}, {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PredictorHandle, "__call__", lambda self, matrix, *args, **kwargs: rows.append(len(matrix))
                      or call(self, matrix, *args, **kwargs))
        for index, op in enumerate(workload.ops):
            out = tmp_path / f"op{index}.out"
            rows.clear()
            assert main(runner.op_argv(op, str(out))) == 0, op.label
            digests[op.label] = digest(out.read_bytes())
            counts[op.label] = [len(rows), sum(rows)]
    return name, digests, counts


def test_each_operation_writes_its_recorded_bytes(run):
    name, digests, _ = run
    assert digests == RECORDED[name]


def test_each_operation_makes_its_recorded_predictor_calls(run):
    name, _, counts = run
    assert counts == COUNTS[name]
