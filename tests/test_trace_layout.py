"""Tooling guard: every result's stage trace is laid out in ``core.py``.

``PredictionCache.trace`` places provenance, the method's steps and the
prediction record counted by the cache.  No other module may assemble a
trace or write a prediction record, whose counts would then not come from
the code that predicted.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "boxprobe"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "core.py")


def _calls(path, name):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee == name:
                yield node


def _is_prediction(stage):
    if isinstance(stage, ast.Constant):
        return stage.value == "prediction"
    return getattr(stage, "id", getattr(stage, "attr", None)) == "PREDICTION"


def test_modules_are_found():
    assert "effects.py" in {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_core_assembles_traces(path):
    assert [call.lineno for call in _calls(path, "assemble_trace")] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_core_builds_prediction_records(path):
    offenders = []
    for call in _calls(path, "StageRecord"):
        stages = call.args[:1] + [k.value for k in call.keywords if k.arg == "stage"]
        if any(_is_prediction(stage) for stage in stages):
            offenders.append(call.lineno)
    assert offenders == []
