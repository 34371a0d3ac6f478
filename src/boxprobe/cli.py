"""Command-line surface.

Loads a CSV dataset and a fitted model file, runs one analysis method, and
writes a single output document (JSON with the full stage trace, or bare
CSV data).  Runs are deterministic: the same configuration and seed yield
byte-identical output, whatever ``--threads`` says.

Each subcommand is one entry of ``_METHODS``: its help text, its flag
declarations (the only place a default, type, choice or required flag is
stated) and a runner.  The click commands are generated from that table,
so click alone parses and checks the flags; :func:`run` takes the parsed
flag dict as it is and adds the one check a flag declaration cannot
express, ``--threads`` of at least 1.

Exit codes: 0 success, else the ``exit_code`` of the error type raised (1
usage, 2 data, 3 numeric or capacity), applied in :func:`main` alone, where
click's own usage errors exit like ``InvalidArgumentError``.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, NamedTuple

import click

from .core import PredictionCache, default_step, loss_by_name
from .data import Dataset
from .dataio import emit_json, emit_points_csv, emit_score_csv, load_csv, write_text
from .effects import (
    EffectCurve,
    _ice_row,
    ale_first_order,
    average_marginal_effect,
    equidistant_grid,
    lime_explain,
    marginal_effect,
    observed_grid,
    pd_curve,
)
from .errors import BoxprobeError, DataFormatError, InvalidArgumentError
from .importance import (
    firm,
    ici_curve,
    pd_importance,
    pfi_exhaustive,
    pfi_permutation,
    pi_curve,
    sfimp,
)
from .refmodels import ReferenceModel, fit_knn, fit_linear, fit_stump, load_model, save_model
from .shapley import shapley_exact, shapley_mc

SCHEMA_VERSION = 1

EXIT_OK = 0


def _resolve_feature(data: Dataset, spec: str) -> int:
    spec = spec.strip()
    try:
        j = int(spec)
    except ValueError:
        return data.feature_index(spec)
    # an index out of range may still be a column's name
    return j if 0 <= j < data.n_features else data.feature_index(spec)


# ---------------------------------------------------------------------------
# Runners: (flags, data, predictor, feature index) -> (document params,
# result, seed used).  ``flags`` maps each flag's name to the value click
# parsed, or to its declared default.  A result is an EffectCurve or a
# (score, trace) pair.
# Runners call estimators through this module's global names, looked up at
# call time, so tooling that swaps those names sees every call.
# ---------------------------------------------------------------------------


def _grid(data: Dataset, j: int, points: int | None):
    return observed_grid(data, j) if points is None else equidistant_grid(data, j, points)


def _loss(params: dict[str, Any]):
    return loss_by_name(params["loss"], params["threshold"])


def _ice(flags, data, predictor, j):
    row, points = flags["row"], flags["grid_points"]
    grid = _grid(data, j, points)
    curve = _ice_row(predictor, data, j, grid, flags["threads"], row)
    return {"row": row, "grid": grid.source, "grid_points": len(grid)}, curve, None


def _pd(flags, data, predictor, j):
    features = [_resolve_feature(data, s) for s in flags["feature"].split(",") if s.strip()]
    points = flags["grid_points"]
    if len(features) == 1:
        grid = _grid(data, features[0], points)
        curve = pd_curve(predictor, data, features[0], grid=grid, threads=flags["threads"])
        return {"grid": grid.source, "grid_points": len(grid)}, curve, None
    if points is not None:
        raise InvalidArgumentError("--grid-points applies to single-feature runs")
    curve = pd_curve(predictor, data, features, threads=flags["threads"])
    return {"grid": "observed_values", "grid_points": len(curve.xs)}, curve, None


def _ale(flags, data, predictor, j):
    intervals = flags["intervals"]
    curve = ale_first_order(predictor, data, j, intervals, threads=flags["threads"])
    return {"intervals": intervals}, curve, None


def _me(flags, data, predictor, j):
    row, h = flags["row"], flags["h"]
    x = data.row(row)
    h = h if h is not None else default_step(data, j)
    cache = PredictionCache()
    value = marginal_effect(predictor, x, j, h, cache=cache)
    shift = ("shift the feature by plus and minus h", {"feature": data.meta[j].name, "h": h})
    trace = cache.trace(predictor, data, shift, ("symmetric difference quotient", {"h": h}))
    return {"row": row, "h": h}, (value, trace), None


def _ame(flags, data, predictor, j):
    result = average_marginal_effect(predictor, data, j, h=flags["h"], threads=flags["threads"])
    return {"h": result.h}, (result.value, result.trace), None


def _shapley(flags, data, predictor, j):
    row, samples = flags["row"], flags["samples"]
    x = data.row(row)
    if samples is None:
        result, seed = shapley_exact(predictor, data, x, j, threads=flags["threads"]), None
    else:
        seed = flags["seed"]
        result = shapley_mc(predictor, data, x, j, samples, seed, threads=flags["threads"])
    doc_params = {
        "row": row,
        "mode": result.mode,
        "iterations": result.iterations,
        "full_coalition_payout": result.full_coalition_payout,
        "standard_error": result.standard_error,
    }
    return doc_params, (result.value, result.trace), seed


def _lime(flags, data, predictor, j):
    row = flags["row"]
    result = lime_explain(
        predictor,
        data,
        data.row(row),
        j,
        num_samples=flags["samples"],
        kernel_width=flags["kernel_width"],
        seed=flags["seed"],
        threads=flags["threads"],
    )
    doc_params = {
        "row": row,
        "num_samples": result.num_samples,
        "kernel_width": result.kernel_width,
        "perturbation_sd": result.perturbation_sd,
        "intercept": result.intercept,
    }
    return doc_params, (result.slope, result.trace), flags["seed"]


def _pd_importance(flags, data, predictor, j):
    score = pd_importance(predictor, data, j, threads=flags["threads"])
    return {}, (score.value, score.trace), None


def _firm(flags, data, predictor, j):
    score = firm(predictor, data, j, threads=flags["threads"])
    return {}, (score.value, score.trace), None


def _pfi(flags, data, predictor, j):
    loss, repeats = _loss(flags), flags["repeats"]
    if flags["mode"] == "exhaustive":
        score = pfi_exhaustive(predictor, data, j, loss, threads=flags["threads"])
        doc_params = {"loss": loss.tag, "mode": "exhaustive", "repeats": None}
        return doc_params, (score.value, score.trace), None
    score = pfi_permutation(
        predictor, data, j, loss, repeats=repeats, seed=flags["seed"], threads=flags["threads"]
    )
    doc_params = {"loss": loss.tag, "mode": "permutation", "repeats": repeats}
    return doc_params, (score.value, score.trace), flags["seed"]


def _ici(flags, data, predictor, j):
    row, loss = flags["row"], _loss(flags)
    curve = ici_curve(predictor, data, row, j, loss, threads=flags["threads"])
    return {"row": row, "loss": loss.tag}, curve, None


def _pi(flags, data, predictor, j):
    loss = _loss(flags)
    return {"loss": loss.tag}, pi_curve(predictor, data, j, loss, threads=flags["threads"]), None


def _sfimp(flags, data, predictor, j):
    loss, mode = _loss(flags), flags["mode"]
    seed = flags["seed"] if mode == "permutation" else None
    score = sfimp(predictor, data, j, loss, mode=mode, seed=seed, threads=flags["threads"])
    return {"loss": loss.tag, "mode": mode}, (score.value, score.trace), seed


def _fit(data: Dataset, params: dict[str, Any]):
    if params["model_kind"] == "knn":
        return fit_knn(data, params["k"])
    if params["model_kind"] == "stump":
        return fit_stump(data)
    return fit_linear(data)


# ---------------------------------------------------------------------------
# The method table
# ---------------------------------------------------------------------------


class _Method(NamedTuple):
    help: str
    flags: tuple[click.Option, ...]
    runner: Callable | None  # None for fit, which writes a model, not a document


def _opt(decls: str, **attrs: Any) -> click.Option:
    return click.Option(decls.split(), **attrs)


def _mode(*choices: str) -> click.Option:
    return _opt("--mode", type=click.Choice(choices), default=choices[0], show_default=True)


_COMMON = (
    _opt("--data data_path", required=True, metavar="CSV", help="Input data file."),
    _opt("--model model_path", required=True, metavar="FILE",
         help="Model file from `boxprobe fit`."),
    _opt("--target", default=None, help="Name of the target column."),
    _opt("--seed", type=int, default=0, show_default=True, help="Seed for randomized stages."),
    _opt("--out out_path", default=None, metavar="FILE", help="Output file (default: stdout)."),
    _opt("--format fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True),
    _opt("--threads", type=int, default=1, show_default=True,
         help="Prediction worker threads; never changes results."),
    _opt("--kind kind_spec", multiple=True, metavar="NAME=KIND",
         help="Feature kind override (continuous|categorical)."),
    _opt("--feature", required=True, help="Feature name or zero-based index."),
)
_ROW = _opt("--row", type=int, required=True, help="Zero-based observation index.")
_GRID = _opt("--grid-points grid_points", type=int, default=None,
             help="Equidistant grid size (default: observed values).")
_H = _opt("--h", type=float, default=None, help="Step size (default: 1e-4 of the observed range).")
_LOSS = (
    _opt("--loss", type=click.Choice(["squared", "absolute", "zero_one"]), default="squared",
         show_default=True),
    _opt("--threshold", type=float, default=0.5, show_default=True,
         help="Classification threshold for zero_one loss."),
)


def _method(help_text: str, runner: Callable, *flags: click.Option) -> _Method:
    return _Method(help_text, (*_COMMON, *flags), runner)


_METHODS: dict[str, _Method] = {
    "fit": _Method("Fit a reference model on a CSV file and save it.", (
        _opt("--data data_path", required=True, metavar="CSV"),
        _opt("--target", required=True, help="Name of the target column."),
        _opt("--kind model_kind", type=click.Choice(["linear", "knn", "stump"]),
             default="linear", show_default=True),
        _opt("--k", type=int, default=3, show_default=True, help="Neighbour count for knn."),
        _opt("--out out_path", required=True, metavar="FILE",
             help="Where to write the model file."),
    ), None),
    "ice": _method("Individual conditional expectation curve for one observation.", _ice,
                   _ROW, _GRID),
    "pd": _method("Partial dependence curve (comma-separate features for a set).", _pd, _GRID),
    "ale": _method("First-order accumulated local effects curve.", _ale,
                   _opt("--intervals", type=int, default=10, show_default=True)),
    "me": _method("Marginal effect (difference quotient) at one observation.", _me, _ROW, _H),
    "ame": _method("Average marginal effect over all observations.", _ame, _H),
    "shapley": _method("Shapley value of one feature (exact, or Monte Carlo with --samples).",
                       _shapley, _ROW,
                       _opt("--samples", type=int, default=None,
                            help="Monte Carlo iterations (default: exact enumeration).")),
    "lime": _method("Local surrogate line around one observation.", _lime, _ROW,
                    _opt("--samples", type=int, default=100, show_default=True),
                    _opt("--kernel-width kernel_width", type=float, default=None,
                         help="Proximity kernel width (default: 0.75 sd).")),
    "pd-importance": _method("Spread of the partial dependence (sd, or range/4 for levels).",
                             _pd_importance),
    "firm": _method("Importance as the spread of the conditional expected score.", _firm),
    "pfi": _method("Permutation feature importance.", _pfi, *_LOSS,
                   _mode("permutation", "exhaustive"),
                   _opt("--repeats", type=int, default=5, show_default=True)),
    "ici": _method("Individual conditional importance curve for one observation.", _ici,
                   _ROW, *_LOSS),
    "pi": _method("Partial importance curve (mean of all ICI curves).", _pi, *_LOSS),
    "sfimp": _method("Shapley feature importance with a loss-based payout.", _sfimp, *_LOSS,
                     _mode("exhaustive", "permutation")),
}

# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _execute(method: str, flags: dict[str, Any], data: Dataset, predictor) -> dict[str, Any]:
    """Run one method and return the output document."""
    # pd accepts a comma-separated feature set and resolves it in its runner
    j = None if method == "pd" else _resolve_feature(data, flags["feature"])
    doc_params, result, seed = _METHODS[method].runner(flags, data, predictor, j)
    if flags.get("loss") == "zero_one":
        doc_params["threshold"] = flags["threshold"]
    if isinstance(result, EffectCurve):
        feature, trace = result.feature, result.trace
        body = {
            "points": [
                {"x": list(x) if isinstance(x, tuple) else x, "y": y}
                for x, y in zip(result.xs, result.ys)
            ]
        }
    else:
        feature, (score, trace) = j, result
        body = {"score": score}
    return {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "feature": (
            [data.meta[f].name for f in feature]
            if isinstance(feature, tuple)
            else data.meta[feature].name
        ),
        "params": doc_params,
        "seed": seed,
        "stage_trace": trace.to_json_obj(),
        **body,
    }


def _render(doc: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return emit_json(doc)
    feature_label = doc["feature"]
    if "points" in doc:
        names = feature_label if isinstance(feature_label, list) else [feature_label or "x"]
        xs = [p["x"] for p in doc["points"]]
        ys = [p["y"] for p in doc["points"]]
        return emit_points_csv(xs, ys, names)
    return emit_score_csv(doc["method"], str(feature_label), doc["score"])


def _match_columns(data: Dataset, model: ReferenceModel) -> None:
    """Reject feature columns whose names, kinds or levels differ from the model's."""
    names, expected = data.feature_names, tuple(m.name for m in model.schema)
    if len(names) != len(expected):
        return  # the estimators report a width mismatch in their own terms
    if names != expected:
        raise DataFormatError(
            f"data columns {list(names)} do not match the model's features {list(expected)}"
        )
    for have, want in zip(data.meta, model.schema):
        if have.kind != want.kind:
            raise DataFormatError(
                f"column {have.name!r} is {have.kind} in the data but {want.kind} in the model"
            )
        unseen = sorted(set(have.levels or ()) - set(want.levels or ()))
        if unseen:
            raise DataFormatError(
                f"column {have.name!r} has levels {unseen} the model never saw "
                f"(model levels: {list(want.levels)})"
            )


def run(method: str, flags: dict[str, Any]) -> None:
    """Execute one run of ``method`` with its parsed ``flags``, writing its
    document or model file.

    Raises the :class:`BoxprobeError` of the first failure; :func:`main`
    turns it into an ``error:`` line and the type's ``exit_code``.
    """
    if flags.get("threads", 1) < 1:  # before any file is read
        raise InvalidArgumentError("threads must be at least 1")
    kinds = _overrides(flags.get("kind_spec", ()))
    data = load_csv(flags["data_path"], target=flags["target"], kinds=kinds)
    if method == "fit":
        save_model(_fit(data, flags), flags["out_path"])
        return
    predictor = load_model(flags["model_path"])
    if isinstance(predictor, ReferenceModel):
        _match_columns(data, predictor)
    text = _render(_execute(method, flags, data, predictor), flags["fmt"])
    if flags["out_path"] is None:
        sys.stdout.write(text)
    else:
        write_text(flags["out_path"], text)


def _overrides(kind_spec) -> dict[str, str]:
    out = {}
    for item in kind_spec:
        name, sep, kind = item.partition("=")
        if not sep or not name or not kind:
            raise InvalidArgumentError(f"--kind expects NAME=KIND, got {item!r}")
        out[name] = kind
    return out


# ---------------------------------------------------------------------------
# Click wiring
# ---------------------------------------------------------------------------


def _command(method: str, entry: _Method) -> click.Command:
    return click.Command(method, callback=lambda **flags: run(method, flags),
                         params=list(entry.flags), help=entry.help)


@click.group(commands=[_command(name, entry) for name, entry in _METHODS.items()])
def cli() -> None:
    """Model-agnostic effect and importance analysis for black-box models."""


def main(argv=None) -> int:
    """Entry point: parse arguments and run; the one place a failure becomes an exit code."""
    try:
        rv = cli.main(args=argv, prog_name="boxprobe", standalone_mode=False)
        return int(rv) if isinstance(rv, int) else EXIT_OK
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return InvalidArgumentError.exit_code
    except click.ClickException as exc:
        exc.show()
        return InvalidArgumentError.exit_code
    except BoxprobeError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
