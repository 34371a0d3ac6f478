"""Byte-level goldens for the CLI surface.

``tests/golden/`` holds model files, output documents and a snapshot of
every subcommand's click parameters, captured from the implementation
before the CLI became one method table.  Each test reruns one case and
compares bytes, so any change to a document, a model file, a flag, a
default or a help text shows up here.
"""

import json
from pathlib import Path

import click
import pytest

from boxprobe.cli import cli, main

GOLDEN = Path(__file__).parent / "golden"

NUM_CSV = "x1,x2,y\n0,1,1\n1,2,4\n2,0,2\n3,5,13\n4,3,11\n"
# One categorical column and a 0/1 target, so zero_one loss is meaningful.
CAT_CSV = (
    "x1,c,y\n0.5,a,0\n1.5,b,1\n2.0,c,1\n0.2,a,0\n"
    "3.1,b,1\n1.1,c,0\n2.7,a,1\n0.9,b,0\n"
)
DATASETS = {"num": NUM_CSV, "cat": CAT_CSV}

FIT_CASES = [
    ("model_num_linear.json", "num", ["--kind", "linear"]),
    ("model_num_knn.json", "num", ["--kind", "knn", "--k", "2"]),
    ("model_num_default.json", "num", []),
    ("model_cat_stump.json", "cat", ["--kind", "stump"]),
    ("model_cat_linear.json", "cat", ["--kind", "linear"]),
]

RUN_CASES = [
    # the subcommand cases of test_cli.py
    ("ice.json", "num", ["ice", "--feature", "x1", "--row", "0"]),
    ("pd.json", "num", ["pd", "--feature", "x1"]),
    ("ale.json", "num", ["ale", "--feature", "x1", "--intervals", "3"]),
    ("ici.json", "num", ["ici", "--feature", "x1", "--row", "1"]),
    ("pi.json", "num", ["pi", "--feature", "x1"]),
    ("me.json", "num", ["me", "--feature", "x1", "--row", "0"]),
    ("ame.json", "num", ["ame", "--feature", "x1"]),
    ("shapley_exact.json", "num", ["shapley", "--feature", "x1", "--row", "1"]),
    ("shapley_mc.json", "num", ["shapley", "--feature", "x1", "--row", "1", "--samples", "100"]),
    ("lime.json", "num", ["lime", "--feature", "x1", "--row", "0", "--samples", "30"]),
    ("pd_importance.json", "num", ["pd-importance", "--feature", "x1"]),
    ("firm.json", "num", ["firm", "--feature", "x2"]),
    ("pfi.json", "num", ["pfi", "--feature", "x1", "--repeats", "3"]),
    ("pfi_exhaustive.json", "num", ["pfi", "--feature", "x1", "--mode", "exhaustive"]),
    ("sfimp.json", "num", ["sfimp", "--feature", "x1"]),
    # categorical features, feature sets, non-default flags
    ("pd_cat.json", "cat", ["pd", "--feature", "c"]),
    ("firm_cat.json", "cat", ["firm", "--feature", "c"]),
    ("pd_importance_cat.json", "cat", ["pd-importance", "--feature", "c"]),
    ("pd_kind_override.json", "cat", ["pd", "--feature", "1", "--kind", "c=categorical"]),
    ("pd_two.json", "num", ["pd", "--feature", "x1,x2"]),
    ("pd_cat_two.json", "cat", ["pd", "--feature", "x1, c"]),
    ("pd_grid.json", "num", ["pd", "--feature", "x2", "--grid-points", "3"]),
    ("ice_grid.json", "num", ["ice", "--feature", "x2", "--row", "2", "--grid-points", "4"]),
    ("ale_default.json", "num", ["ale", "--feature", "x2"]),
    ("me_h.json", "num", ["me", "--feature", "x2", "--row", "3", "--h", "0.5"]),
    ("ame_h.json", "num", ["ame", "--feature", "x2", "--h", "0.25"]),
    ("lime_width.json", "num",
     ["lime", "--feature", "x2", "--row", "1", "--kernel-width", "1.5", "--seed", "2"]),
    ("pfi_seed.json", "num", ["pfi", "--feature", "x2", "--seed", "5", "--threads", "2"]),
    ("ici_absolute.json", "num", ["ici", "--feature", "x2", "--row", "4", "--loss", "absolute"]),
    ("sfimp_permutation.json", "num",
     ["sfimp", "--feature", "x2", "--mode", "permutation", "--seed", "4", "--loss", "absolute"]),
    ("pfi_zero_one.json", "cat",
     ["pfi", "--feature", "c", "--loss", "zero_one", "--mode", "exhaustive"]),
    ("pi_zero_one.json", "cat",
     ["pi", "--feature", "x1", "--loss", "zero_one", "--threshold", "0.4"]),
    ("sfimp_zero_one.json", "cat", ["sfimp", "--feature", "x1", "--loss", "zero_one"]),
    # --format csv
    ("pd.csv", "num", ["pd", "--feature", "x1", "--format", "csv"]),
    ("pd_two.csv", "num", ["pd", "--feature", "x1,x2", "--format", "csv"]),
    ("pd_cat.csv", "cat", ["pd", "--feature", "c", "--format", "csv"]),
    ("ice.csv", "num", ["ice", "--feature", "x1", "--row", "2", "--format", "csv"]),
    ("sfimp.csv", "num", ["sfimp", "--feature", "x1", "--format", "csv"]),
    ("firm_cat.csv", "cat", ["firm", "--feature", "c", "--format", "csv"]),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_inputs")
    paths = {}
    for name, text in DATASETS.items():
        data = root / f"{name}.csv"
        data.write_text(text, encoding="utf-8")
        model = root / f"{name}.model.json"
        fit = ["fit", "--data", str(data), "--target", "y", "--kind", "linear", "--out", str(model)]
        assert main(fit) == 0
        paths[name] = (str(data), str(model))
    return paths


def run_case(inputs, tmp_path, dataset, args):
    data, model = inputs[dataset]
    out = tmp_path / "out"
    argv = [*args, "--data", data, "--model", model, "--target", "y", "--out", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


def fit_case(inputs, tmp_path, dataset, args):
    out = tmp_path / "model.json"
    argv = ["fit", "--data", inputs[dataset][0], "--target", "y", *args, "--out", str(out)]
    assert main(argv) == 0
    return out.read_bytes()


def click_snapshot():
    """Every subcommand's click parameters and help, as stable JSON text."""
    info = cli.to_info_dict(click.Context(cli))
    for name, command in cli.commands.items():
        for param, entry in zip(command.params, info["commands"][name]["params"]):
            entry["metavar"] = param.metavar
            entry["show_default"] = param.show_default
    return json.dumps(info, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("golden,dataset,args", FIT_CASES, ids=[c[0] for c in FIT_CASES])
def test_model_file_matches_golden(inputs, tmp_path, golden, dataset, args):
    assert fit_case(inputs, tmp_path, dataset, args) == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("golden,dataset,args", RUN_CASES, ids=[c[0] for c in RUN_CASES])
def test_document_matches_golden(inputs, tmp_path, golden, dataset, args):
    assert run_case(inputs, tmp_path, dataset, args) == (GOLDEN / golden).read_bytes()


def test_click_parameters_match_golden():
    assert click_snapshot() == (GOLDEN / "click_params.json").read_text(encoding="utf-8")
