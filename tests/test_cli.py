"""CLI behavior: schema, determinism, exit codes, library equivalence."""

import json
import subprocess
import sys

import click
import numpy as np
import pytest

import boxprobe.cli
from boxprobe import PredictorHandle, load_csv, load_model, pd_curve, pfi_permutation, squared_loss
from boxprobe import errors
from boxprobe.cli import cli, main
from boxprobe.dataio import emit_json
from boxprobe.errors import InvalidArgumentError

CSV_TEXT = "x1,x2,y\n0,1,1\n1,2,4\n2,0,2\n3,5,13\n4,3,11\n"


@pytest.fixture
def workspace(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text(CSV_TEXT, encoding="utf-8")
    model = tmp_path / "model.json"
    code = main(
        ["fit", "--data", str(data), "--target", "y", "--kind", "linear", "--out", str(model)]
    )
    assert code == 0
    return {"data": str(data), "model": str(model), "dir": tmp_path}


def run_to_file(workspace, name, *args):
    out = workspace["dir"] / name
    code = main(
        [
            *args,
            "--data",
            workspace["data"],
            "--model",
            workspace["model"],
            "--target",
            "y",
            "--out",
            str(out),
        ]
    )
    return code, out


def load_doc(path):
    return json.loads(path.read_text(encoding="utf-8"))


SCHEMA_KEYS = {"schema_version", "method", "feature", "params", "seed", "stage_trace"}


def assert_schema(doc, method):
    extra = set(doc) - SCHEMA_KEYS
    assert extra in ({"points"}, {"score"})
    assert doc["schema_version"] == 1
    assert doc["method"] == method
    order = {"sampling": 0, "intervention": 1, "prediction": 2, "aggregation": 3}
    ranks = [order[r["stage"]] for r in doc["stage_trace"]]
    assert ranks == sorted(ranks)
    for record in doc["stage_trace"]:
        assert set(record) == {"stage", "description", "parameters"}


CURVE_COMMANDS = [
    (["ice", "--feature", "x1", "--row", "0"], "ice"),
    (["pd", "--feature", "x1"], "pd"),
    (["ale", "--feature", "x1", "--intervals", "3"], "ale"),
    (["ici", "--feature", "x1", "--row", "1"], "ici"),
    (["pi", "--feature", "x1"], "pi"),
]

SCORE_COMMANDS = [
    (["me", "--feature", "x1", "--row", "0"], "me"),
    (["ame", "--feature", "x1"], "ame"),
    (["shapley", "--feature", "x1", "--row", "1"], "shapley"),
    (["shapley", "--feature", "x1", "--row", "1", "--samples", "100"], "shapley"),
    (["lime", "--feature", "x1", "--row", "0", "--samples", "30"], "lime"),
    (["pd-importance", "--feature", "x1"], "pd-importance"),
    (["firm", "--feature", "x2"], "firm"),
    (["pfi", "--feature", "x1", "--repeats", "3"], "pfi"),
    (["pfi", "--feature", "x1", "--mode", "exhaustive"], "pfi"),
    (["sfimp", "--feature", "x1"], "sfimp"),
]


@pytest.mark.parametrize("args,method", CURVE_COMMANDS + SCORE_COMMANDS)
def test_subcommands_emit_valid_documents(workspace, args, method):
    code, out = run_to_file(workspace, "out.json", *args)
    assert code == 0
    doc = load_doc(out)
    assert_schema(doc, method)
    if "points" in doc:
        assert all(set(p) == {"x", "y"} for p in doc["points"])


def test_document_round_trips_byte_identical(workspace):
    code, out = run_to_file(workspace, "pd.json", "pd", "--feature", "x1")
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert emit_json(json.loads(text)) == text


def test_cli_pd_matches_library_bit_exact(workspace):
    code, out = run_to_file(workspace, "pd.json", "pd", "--feature", "x1")
    assert code == 0
    doc = load_doc(out)
    data = load_csv(workspace["data"], target="y")
    model = load_model(workspace["model"])
    curve = pd_curve(model, data, 0)
    assert [p["x"] for p in doc["points"]] == list(curve.xs)
    assert [p["y"] for p in doc["points"]] == list(curve.ys)


def test_cli_pfi_matches_library_bit_exact(workspace):
    code, out = run_to_file(
        workspace, "pfi.json", "pfi", "--feature", "x2", "--seed", "5", "--repeats", "4"
    )
    assert code == 0
    doc = load_doc(out)
    data = load_csv(workspace["data"], target="y")
    model = load_model(workspace["model"])
    expected = pfi_permutation(model, data, 1, squared_loss(), repeats=4, seed=5)
    assert doc["score"] == expected.value
    assert doc["seed"] == 5


def test_repeat_runs_are_byte_identical(workspace):
    args = ["shapley", "--feature", "x1", "--row", "1", "--samples", "200", "--seed", "9"]
    _, first = run_to_file(workspace, "a.json", *args)
    _, second = run_to_file(workspace, "b.json", *args)
    assert first.read_bytes() == second.read_bytes()


def test_thread_count_does_not_change_bytes(workspace):
    base = ["pd", "--feature", "x1"]
    _, one = run_to_file(workspace, "t1.json", *base, "--threads", "1")
    _, eight = run_to_file(workspace, "t8.json", *base, "--threads", "8")
    assert one.read_bytes() == eight.read_bytes()
    base = ["shapley", "--feature", "x2", "--row", "0", "--samples", "64", "--seed", "3"]
    _, one = run_to_file(workspace, "s1.json", *base, "--threads", "1")
    _, eight = run_to_file(workspace, "s8.json", *base, "--threads", "8")
    assert one.read_bytes() == eight.read_bytes()


def test_csv_output_format(workspace):
    code, out = run_to_file(workspace, "pd.csv", "pd", "--feature", "x1", "--format", "csv")
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x1,y"
    assert len(lines) == 6  # five observed values
    code, out = run_to_file(workspace, "s.csv", "sfimp", "--feature", "x1", "--format", "csv")
    assert code == 0
    assert out.read_text(encoding="utf-8").startswith("method,feature,score\nsfimp,x1,")


def test_multi_feature_pd(workspace):
    code, out = run_to_file(workspace, "pd2.json", "pd", "--feature", "x1,x2")
    assert code == 0
    doc = load_doc(out)
    assert doc["feature"] == ["x1", "x2"]
    assert all(isinstance(p["x"], list) and len(p["x"]) == 2 for p in doc["points"])


def test_stdout_output(workspace, capsys):
    code = main(
        [
            "pd",
            "--feature",
            "x1",
            "--data",
            workspace["data"],
            "--model",
            workspace["model"],
            "--target",
            "y",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "pd"


def test_usage_errors_exit_1(workspace):
    assert main(["pd"]) == 1  # missing required options
    assert main(["not-a-method"]) == 1
    assert (
        main(
            [
                "pd",
                "--feature",
                "x1",
                "--data",
                workspace["data"],
                "--model",
                workspace["model"],
                "--bogus-flag",
            ]
        )
        == 1
    )
    code, _ = run_to_file(workspace, "x.json", "shapley", "--feature", "x1", "--row", "0", "--samples", "0")
    assert code == 1
    code, _ = run_to_file(workspace, "x.json", "ale", "--feature", "x1", "--intervals", "0")
    assert code == 1
    code, _ = run_to_file(workspace, "x.json", "pd", "--feature", "zz")
    assert code == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["pd", "--feature", "x1,x2", "--grid-points", "3"], "--grid-points applies to single-feature runs"),
        (["pd", "--feature", "x1", "--kind", "x1"], "--kind expects NAME=KIND, got 'x1'"),
    ],
    ids=["grid-points-on-a-set", "kind-without-equals"],
)
def test_a_flag_the_run_cannot_use_exits_1(workspace, capsys, args, message):
    code, out = run_to_file(workspace, "x.json", *args)
    assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["pfi", "--feature", "x1"],
        ["shapley", "--feature", "x1", "--row", "0", "--samples", "10"],
        ["lime", "--feature", "x1", "--row", "0"],
        ["sfimp", "--feature", "x1", "--mode", "permutation"],
    ],
    ids=["pfi", "shapley_mc", "lime", "sfimp_permutation"],
)
def test_negative_seed_exits_1(workspace, capsys, args):
    code, out = run_to_file(workspace, "x.json", *args, "--seed", "-1")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_non_finite_threshold_exits_1(workspace, capsys, threshold):
    args = ["pfi", "--feature", "x1", "--loss", "zero_one", "--threshold", threshold]
    code, out = run_to_file(workspace, "x.json", *args)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: zero_one threshold must be finite")
    assert not out.exists()


def test_data_errors_exit_2(workspace, tmp_path):
    missing = str(tmp_path / "missing.csv")
    assert (
        main(["pd", "--feature", "x1", "--data", missing, "--model", workspace["model"]]) == 2
    )
    # loss-based method without a target column
    assert (
        main(
            [
                "pfi",
                "--feature",
                "x1",
                "--data",
                workspace["data"],
                "--model",
                workspace["model"],
            ]
        )
        == 2
    )
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1\n", encoding="utf-8")
    assert (
        main(["pd", "--feature", "a", "--data", str(ragged), "--model", workspace["model"]]) == 2
    )


@pytest.mark.parametrize(
    "content",
    [b"x1,x2,y\n0,1,\xff\n", b"x1,x2,y\n0,1," + b"7" * 200_000 + b"\n"],
    ids=["not_utf8", "field_over_csv_limit"],
)
def test_undecodable_csv_exits_2(workspace, tmp_path, capsys, content):
    data = tmp_path / "bad.csv"
    data.write_bytes(content)
    args = ["pd", "--feature", "x1", "--data", str(data), "--model", workspace["model"]]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(data) in err


def test_capacity_error_exits_3(tmp_path):
    p = 13
    header = ",".join([f"x{j}" for j in range(p)] + ["y"])
    rows = ["," .join(str(float(i + j)) for j in range(p + 1)) for i in range(3)]
    data = tmp_path / "wide.csv"
    data.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    model = tmp_path / "m.json"
    # knn fit works at any width
    assert main(["fit", "--data", str(data), "--target", "y", "--kind", "knn", "--out", str(model)]) == 0
    code = main(
        [
            "shapley",
            "--feature",
            "x0",
            "--row",
            "0",
            "--data",
            str(data),
            "--model",
            model.as_posix(),
        ]
    )
    assert code == 3


def test_numeric_error_exits_3(workspace, tmp_path):
    flat = tmp_path / "flat.csv"
    flat.write_text("x1,x2,y\n1,0,0\n1,1,1\n", encoding="utf-8")
    model = tmp_path / "m.json"
    assert main(
        ["fit", "--data", str(flat), "--target", "y", "--kind", "knn", "--k", "2", "--out", str(model)]
    ) == 0
    code = main(
        ["ale", "--feature", "x1", "--data", str(flat), "--model", str(model)]
    )
    assert code == 3


def test_help_exits_0():
    assert main(["--help"]) == 0
    assert main(["pd", "--help"]) == 0


# A run's configuration is its flags: click parses and checks them, and
# ``run`` adds the --threads check.  Each bad configuration exits 1 with an
# ``error:`` line before any file is read, so paths that do not exist (which
# would exit 2) must not be reached.
NO_FILES = ("--data", "no/such/data.csv", "--model", "no/such/model.json")


def exits_before_reading(capsys, *argv):
    code = main([*argv, *NO_FILES])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error: ")
    return err


def test_runconfig_rejects_unknown_method_and_params(capsys):
    assert "mystery" in exits_before_reading(capsys, "mystery", "--feature", "x1")
    assert "--wat" in exits_before_reading(capsys, "pd", "--feature", "x1", "--wat", "1")
    for argv in (("pd", "--feature", "x1"), ("me", "--feature", "x1", "--row", "0")):
        err = exits_before_reading(capsys, *argv, "--threads", "0")
        assert err == "error: threads must be at least 1\n"
    assert "yaml" in exits_before_reading(capsys, "pd", "--feature", "x1", "--format", "yaml")


@pytest.mark.parametrize("method", sorted(set(cli.commands) - {"fit"}))
def test_runconfig_rejects_missing_feature(capsys, method):
    assert "--feature" in exits_before_reading(capsys, method)


def test_runconfig_fills_and_checks_params_from_flags(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(boxprobe.cli, "run", lambda method, flags: seen.append((method, flags)))
    assert main(["pfi", *NO_FILES, "--feature", "x1", "--repeats", "3"]) == 0
    assert main(["fit", "--data", "x.csv", "--target", "y", "--out", "m.json"]) == 0
    assert seen == [
        ("pfi", {"data_path": NO_FILES[1], "model_path": NO_FILES[3], "target": None, "seed": 0,
                 "out_path": None, "fmt": "json", "threads": 1, "kind_spec": (), "feature": "x1",
                 "loss": "squared", "threshold": 0.5, "mode": "permutation", "repeats": 3}),
        ("fit", {"data_path": "x.csv", "target": "y", "model_kind": "linear", "k": 3,
                 "out_path": "m.json"}),
    ]
    monkeypatch.undo()
    assert "bogus" in exits_before_reading(capsys, "pfi", "--feature", "x1", "--mode", "bogus")
    assert "--row" in exits_before_reading(capsys, "ice", "--feature", "x1")


def test_ice_checks_row_before_predicting(workspace, monkeypatch):
    model = load_model(workspace["model"])
    calls = []

    def counting(X):
        calls.append(len(X))
        return model(X)

    predictor = PredictorHandle(counting, model.n_features, name="counting")
    monkeypatch.setattr(boxprobe.cli, "load_model", lambda path: predictor)
    code, _ = run_to_file(workspace, "x.json", "ice", "--feature", "x1", "--row", "5")
    assert code == 1
    assert calls == []


@pytest.mark.parametrize("args", [("me", "--row", "2"), ("ame",)])
def test_fd_prediction_record_counts_what_the_predictor_received(workspace, monkeypatch, args):
    model = load_model(workspace["model"])
    calls = []

    def counting(X):
        calls.append(len(X))
        return model(X)

    predictor = PredictorHandle(counting, model.n_features, name="counting")
    monkeypatch.setattr(boxprobe.cli, "load_model", lambda path: predictor)
    code, out = run_to_file(workspace, "fd.json", *args, "--feature", "x1")
    assert code == 0
    record = next(r for r in load_doc(out)["stage_trace"] if r["stage"] == "prediction")
    assert record["parameters"] == {"predictor": "counting", "batches": len(calls), "rows": sum(calls)}


@pytest.mark.parametrize("header", ["a,b,y", "x2,x1,y"])
def test_columns_not_matching_the_model_exit_2(workspace, capsys, header):
    data = workspace["dir"] / "renamed.csv"
    data.write_text(CSV_TEXT.replace("x1,x2,y", header), encoding="utf-8")
    args = ["pd", "--feature", "0", "--data", str(data), "--target", "y"]
    assert main([*args, "--model", workspace["model"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "['x1', 'x2']" in err


def test_module_entry_point(workspace):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "boxprobe",
            "pd",
            "--feature",
            "x1",
            "--data",
            workspace["data"],
            "--model",
            workspace["model"],
            "--target",
            "y",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["method"] == "pd"


def test_a_shift_past_the_float_range_names_the_feature_and_step(tmp_path):
    data, model = tmp_path / "huge.csv", tmp_path / "model.json"
    data.write_text("x1,x2,y\n1e308,1,2\n0,2,3\n1,0,1\n", encoding="utf-8")
    fit = ["fit", "--data", str(data), "--target", "y", "--kind", "knn", "--k", "1"]
    assert main([*fit, "--out", str(model)]) == 0
    ame = ["ame", "--feature", "x1", "--h", "1e308", "--data", str(data), "--target", "y"]
    result = subprocess.run(
        [sys.executable, "-m", "boxprobe", *ame, "--model", str(model)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stderr == (
        "error: shifting feature 'x1' by 1e+308 overflows float64 to non-finite values\n"
    )


_HUGE_LINEAR = ("x1,x2,y\n0,1,1e200\n1,-1,-2e200\n3,2,3e200\n4,0.5,5e199\n", ())
_HUGE_KNN = ("x1,y\n0,-1.7e308\n2,-1.7e308\n4,1.7e308\n", ("--kind", "knn", "--k", "1"))


@pytest.mark.parametrize(
    "method", [["pi"], ["pfi"], ["pfi", "--mode", "exhaustive"], ["sfimp"]], ids=["pi", "pfi", "pfi-exhaustive", "sfimp"]
)
def test_a_loss_past_the_float_range_exits_1(tmp_path, capsys, method):
    data, model, out = tmp_path / "huge.csv", tmp_path / "model.json", tmp_path / "out.json"
    data.write_text(_HUGE_LINEAR[0], encoding="utf-8")
    assert main(["fit", "--data", str(data), "--target", "y", "--out", str(model)]) == 0
    args = ["--feature", "x1", "--data", str(data), "--model", str(model), "--target", "y", "--out", str(out)]
    assert main([method[0], *args, *method[1:]]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "table, fit, method",
    [
        (*_HUGE_LINEAR, ("pi",)),
        (*_HUGE_LINEAR, ("pfi",)),
        (*_HUGE_LINEAR, ("pfi", "--mode", "exhaustive")),
        (*_HUGE_KNN, ("me", "--row", "1", "--h", "1.5")),
    ],
    ids=["pi", "pfi", "pfi-exhaustive", "me"],
)
def test_a_result_past_the_float_range_prints_only_the_error_line(tmp_path, table, fit, method):
    data, model = tmp_path / "huge.csv", tmp_path / "model.json"
    data.write_text(table, encoding="utf-8")
    assert main(["fit", "--data", str(data), "--target", "y", *fit, "--out", str(model)]) == 0
    args = [*method, "--feature", "x1", "--data", str(data), "--model", str(model), "--target", "y"]
    result = subprocess.run([sys.executable, "-m", "boxprobe", *args], capture_output=True, text=True)
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")
    assert "must be finite" in result.stderr


PAST_THE_INDEX_RANGE = "1000000000000000000000000000000"


@pytest.mark.parametrize(
    "method, count, low",
    [
        (["pfi", "--repeats"], "repeats", 1),
        (["ale", "--intervals"], "num_intervals", 1),
        (["pd", "--grid-points"], "an equidistant grid's k", 2),
        (["shapley", "--row", "0", "--samples"], "iterations", 1),
        (["lime", "--row", "0", "--samples"], "num_samples", 3),
    ],
    ids=["pfi", "ale", "pd", "shapley", "lime"],
)
def test_a_count_past_the_index_range_prints_only_the_error_line(workspace, method, count, low):
    """numpy refuses such a count before it allocates; the integer rule names it first."""
    args = ["--feature", "x1", "--data", workspace["data"], "--model", workspace["model"], "--target", "y"]
    result = subprocess.run(
        [sys.executable, "-m", "boxprobe", *method, PAST_THE_INDEX_RANGE, *args], capture_output=True, text=True
    )
    assert result.returncode == 1 and result.stdout == "" and "Traceback" not in result.stderr
    assert result.stderr == (
        f"error: {count} out of range: {PAST_THE_INDEX_RANGE} is not an integer from {low} to {np.iinfo(np.intp).max}\n"
    )


def test_knn_predicts_beside_a_training_value_1e308_away(tmp_path):
    data, model = tmp_path / "huge.csv", tmp_path / "model.json"
    data.write_text("x1,x2,y\n1e308,1,2\n0,2,3\n1,0,1\n", encoding="utf-8")
    fit = ["fit", "--data", str(data), "--target", "y", "--kind", "knn", "--k", "1"]
    assert main([*fit, "--out", str(model)]) == 0
    pd = ["pd", "--feature", "x2", "--data", str(data), "--target", "y"]
    result = subprocess.run(
        [sys.executable, "-m", "boxprobe", *pd, "--model", str(model)],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["method"] == "pd"


def test_knn_distances_past_the_float_range_name_the_feature(tmp_path):
    data, model = tmp_path / "huge.csv", tmp_path / "model.json"
    data.write_text("x1,x2,y\n1e308,1,2\n0,2,3\n1,0,1\n", encoding="utf-8")
    fit = ["fit", "--data", str(data), "--target", "y", "--kind", "knn", "--k", "1"]
    assert main([*fit, "--out", str(model)]) == 0
    ame = ["ame", "--feature", "x1", "--h", "1e300", "--data", str(data), "--target", "y"]
    result = subprocess.run(
        [sys.executable, "-m", "boxprobe", *ame, "--model", str(model)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == errors.NumericRangeError.exit_code == 3
    assert result.stderr == "error: knn distances overflow float64 at feature 'x1'\n"


# Each error type's exit status, written out so a new type needs a decision here.
EXIT_STATUS = {
    errors.InvalidArgumentError: 1,
    errors.UnsupportedKindError: 1,
    errors.InvalidLevelError: 1,
    errors.DataFormatError: 2,
    errors.MissingTargetError: 2,
    errors.ShapeError: 2,
    errors.BoxprobeError: 3,
    errors.CapacityError: 3,
    errors.DegenerateBinningError: 3,
    errors.SingularFitError: 3,
    errors.NumericRangeError: 3,
    errors.UndefinedVarianceError: 3,
}


def test_every_error_type_has_a_pinned_status():
    declared = {
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.BoxprobeError)
    }
    assert declared == set(EXIT_STATUS)


@pytest.mark.parametrize(
    "error,status", [pytest.param(e, s, id=e.__name__) for e, s in EXIT_STATUS.items()]
)
@pytest.mark.parametrize("method", ["pd", "fit"])
def test_each_error_type_exits_with_its_status(
    workspace, monkeypatch, capsys, error, status, method
):
    def failing_load(*args, **kwargs):
        raise error(f"{error.__name__} while loading")

    monkeypatch.setattr(boxprobe.cli, "load_csv", failing_load)
    args = ["--data", workspace["data"], "--target", "y", "--out", str(workspace["dir"] / "o")]
    if method == "pd":
        args += ["--feature", "x1", "--model", workspace["model"]]
    assert main([method, *args]) == status
    assert capsys.readouterr().err == f"error: {error.__name__} while loading\n"


def test_a_click_error_that_is_no_usage_error_exits_1(workspace, monkeypatch, capsys):
    def failing_load(*args, **kwargs):
        raise click.FileError("data.csv", hint="locked")

    monkeypatch.setattr(boxprobe.cli, "load_csv", failing_load)
    args = ["fit", "--data", workspace["data"], "--target", "y", "--out", str(workspace["dir"] / "o")]
    assert main(args) == 1
    assert capsys.readouterr().err == "Error: Could not open file 'data.csv': locked\n"


@pytest.mark.parametrize("method", ["pd", "fit"])
def test_unwritable_output_exits_2(workspace, capsys, method):
    out = workspace["dir"] / "missing" / "out.json"
    args = [method, "--data", workspace["data"], "--target", "y", "--out", str(out)]
    if method == "pd":
        args += ["--feature", "x1", "--model", workspace["model"]]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.parent.exists()


CAT_CSV = "x1,c,y\n0,a,1\n1,b,4\n2,a,2\n3,b,6\n4,a,5\n5,b,9\n"


@pytest.mark.parametrize("kind", ["linear", "knn", "stump"])
@pytest.mark.parametrize(
    "column,needle",
    [("1,2,1,2,1,2", "'c'"), ("a,b,z,b,a,b", "'z'")],
    ids=["numeric_for_categorical", "unseen_level"],
)
def test_columns_must_match_the_model_kinds_and_levels(tmp_path, capsys, kind, column, needle):
    train, model = tmp_path / "train.csv", tmp_path / "model.json"
    train.write_text(CAT_CSV, encoding="utf-8")
    fit = ["fit", "--data", str(train), "--target", "y", "--kind", kind, "--out", str(model)]
    assert main(fit) == 0
    rows = [line.split(",") for line in CAT_CSV.splitlines()[1:]]
    data = tmp_path / "data.csv"
    data.write_text(
        "x1,c,y\n" + "".join(f"{x},{c},{y}\n" for (x, _, y), c in zip(rows, column.split(","))),
        encoding="utf-8",
    )
    out = tmp_path / "pd.json"
    args = ["pd", "--feature", "x1", "--data", str(data), "--target", "y", "--out", str(out)]
    assert main([*args, "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and "'c'" in err
    assert not out.exists()


def test_data_levels_may_be_a_subset_of_the_models(tmp_path):
    train, model = tmp_path / "train.csv", tmp_path / "model.json"
    train.write_text(CAT_CSV, encoding="utf-8")
    assert main(["fit", "--data", str(train), "--target", "y", "--out", str(model)]) == 0
    only_b = tmp_path / "b.csv"
    only_b.write_text("x1,c,y\n0,b,1\n1,b,4\n", encoding="utf-8")
    args = ["pd", "--feature", "x1", "--data", str(only_b), "--target", "y"]
    assert main([*args, "--model", str(model), "--out", str(tmp_path / "pd.json")]) == 0


# Row 1's target is 4; row 0's is 1, so ICI there must check the whole target.
ZERO_ONE_RUNS = {"pfi": [], "ici": ["--row", "1"], "ici-row-0": ["--row", "0"]}


@pytest.mark.parametrize("method", ZERO_ONE_RUNS)
def test_zero_one_loss_on_a_continuous_target_exits_1(workspace, capsys, method):
    args = [method.split("-")[0], "--feature", "x1", "--loss", "zero_one", *ZERO_ONE_RUNS[method]]
    code, out = run_to_file(workspace, "x.json", *args)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: zero_one loss needs 0/1 targets, got 4.0")
    assert not out.exists()


def test_feature_index_out_of_range_falls_back_to_a_column_name(tmp_path, capsys):
    data = tmp_path / "numbered.csv"
    data.write_text("x1,5,y\n0,1,1\n1,2,4\n2,0,2\n3,5,13\n4,3,11\n", encoding="utf-8")
    model = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--target", "y", "--out", str(model)]) == 0
    args = ["pd", "--data", str(data), "--model", str(model), "--target", "y"]
    by_name, by_index = tmp_path / "name.json", tmp_path / "index.json"
    assert main([*args, "--feature", "5", "--out", str(by_name)]) == 0
    assert main([*args, "--feature", "1", "--out", str(by_index)]) == 0
    assert by_name.read_bytes() == by_index.read_bytes()
    assert main([*args, "--feature", "7"]) == 1
    assert capsys.readouterr().err == "error: unknown feature '7'; have ['x1', '5']\n"
