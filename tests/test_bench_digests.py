"""Every benchmark operation still writes the bytes ``bench/digests.json`` records.

Each workload's operations run once, in this process, at the benchmark's
default seed: the inputs come from ``bench.inputs.write_table``, the models
from ``boxprobe fit``, and each argv from the benchmark runner's ``op_argv``.
The SHA-256 of each output must equal the recorded digest, so a byte drift
fails here before a benchmark run sees it.  Nothing under ``bench/`` is
written.
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

from boxprobe.cli import main  # noqa: E402

RECORDED = json.loads(Path(DIGESTS).read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_operation_writes_its_recorded_bytes(tmp_path, name):
    workload = WORKLOADS[name]
    runner = Runner(workload, DEFAULT_SEED, str(tmp_path))
    for spec in workload.tables:
        write_table(spec, DEFAULT_SEED, str(tmp_path))
    for table, flags in workload.models.items():
        csv_path, model_path = str(tmp_path / f"{table}.csv"), str(tmp_path / f"{table}.model.json")
        assert main(["fit", "--data", csv_path, "--target", "y", *flags, "--out", model_path]) == 0
        runner.files[table] = (csv_path, model_path)
    got = {}
    for index, op in enumerate(workload.ops):
        out = tmp_path / f"op{index}.out"
        assert main(runner.op_argv(op, str(out))) == 0, op.label
        got[op.label] = digest(out.read_bytes())
    assert got == RECORDED[name]
