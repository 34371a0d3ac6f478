"""Benchmark two versions of boxprobe in alternating pairs and record the result.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json \\
        [--workload grid_sweep ...] [--seed 1] [--traced]

PARENT and CHANGE are git revisions of this repository (exported with
``git archive``, so only committed files are measured) or checkout
directories.  The workloads, the run length and the end-to-end metrics
are the ones ``BENCHMARK.json`` declares.  Each of the ten pairs per
workload runs the version's own, unchanged
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` once on
each side, T being ``run_seconds``, one process at a time; even pairs run the
parent first, odd pairs the change.  With ``--traced`` one ``--trace 1`` run
per side follows the pairs, for the per-layer metrics.

The output file holds, per workload, every run, each side's median and
quartiles of every end-to-end metric, how many pairs the change won on each
metric (ties count for neither side; a pair with a failed run counts for
neither), and the environment the runs shared.  Per metric it also holds the
exact two-sided sign-test p of those wins and losses, and the median of the
per-pair change/parent ratios with a distribution-free 95 % interval from
binomial order statistics.  A summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10  # the fewest pairs a gain can be claimed on


def git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def checkout(ref: str, workdir: str, name: str) -> tuple[str, str | None]:
    """A directory holding version ``ref``, and its commit if it is a revision."""
    if os.path.isdir(ref):
        return os.path.abspath(ref), None
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    target = os.path.join(workdir, name)
    os.makedirs(target)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", target], input=archive, check=True)
    return target, commit


def run_bench(directory: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run; its JSON line, or the error it ended with."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=directory, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": proc.stderr.strip().splitlines()[-5:], "returncode": proc.returncode}
    result["returncode"] = proc.returncode
    return result


def ok(run: dict) -> bool:
    return run.get("correct") is True and run.get("returncode") == 0


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "runs": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def sign_test(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p of ``wins`` against ``losses``, ties dropped:
    the chance of a split at least this uneven if each pair were a fair coin."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def median_interval(values: list[float]) -> dict:
    """The median of ``values`` and a distribution-free interval for it.

    The interval runs from the d-th smallest to the d-th largest value, d the
    largest whose coverage 1 - 2 P(Binomial(n, 1/2) <= d - 1) is at least
    95 %; ``coverage`` is that exact figure.  Fewer than six values
    admit no 95 % interval, so ``low`` and ``high`` are then None.
    """
    x, n = sorted(values), len(values)
    d, tail = 0, 0.0  # tail: P(B <= d - 1)
    while 1 - 2 * (tail + math.comb(n, d) / 2**n) >= 0.95:
        tail += math.comb(n, d) / 2**n
        d += 1
    return {"median": statistics.median(x) if x else None, "low": x[d - 1] if d else None,
            "high": x[n - d] if d else None, "coverage": 1 - 2 * tail if d else None}


def summarize(pairs: list[dict], directions: dict[str, str]) -> dict:
    """Per end-to-end metric: each side's spread, the change's wins and their
    sign-test p, and the median change/parent ratio with its interval."""
    out = {}
    for metric, better in directions.items():
        sides = {side: [p[side]["metrics"][metric]["value"] for p in pairs if ok(p[side])]
                 for side in ("parent", "change")}
        wins = losses = 0
        ratios = []
        for p in pairs:
            if ok(p["parent"]) and ok(p["change"]):
                a, b = p["parent"]["metrics"][metric]["value"], p["change"]["metrics"][metric]["value"]
                wins += (b < a) if better == "lower" else (b > a)
                losses += (b > a) if better == "lower" else (b < a)
                ratios += [b / a] if a else []
        out[metric] = {"better": better, "parent": spread(sides["parent"]),
                       "change": spread(sides["change"]), "change_wins": wins, "change_losses": losses,
                       "pairs_compared": sum(ok(p["parent"]) and ok(p["change"]) for p in pairs),
                       "sign_test_p": sign_test(wins, losses), "ratio": median_interval(ratios)}
    return out


def environment() -> dict:
    import numpy  # the interpreter the benchmark runs under

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "machine": platform.machine(), "cpus": cpus}


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append", choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as workdir:
        dirs, commits = {}, {}
        for side in ("parent", "change"):
            dirs[side], commits[side] = checkout(getattr(args, side), workdir, side)
        report = {
            "parent": {"ref": args.parent, "commit": commits["parent"]},
            "change": {"ref": args.change, "commit": commits["change"]},
            "settings": {"pairs": PAIRS, "seed": args.seed, "seconds": seconds,
                         "order": "even pairs run the parent first, odd pairs the change"},
            "environment": environment(),
            "workloads": {},
        }
        for workload in args.workload or workloads:
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {side: run_bench(dirs[side], workload, args.seed, seconds, 0) for side in order}
                pairs.append({"first": order[0], **pair})
                print(f"{workload} pair {i + 1}/{PAIRS}: " + ", ".join(
                    f"{side} wall_s {pair[side]['metrics']['wall_s']['value']:.3f}" if ok(pair[side])
                    else f"{side} FAILED" for side in ("parent", "change")), file=sys.stderr)
            entry = {"summary": summarize(pairs, directions), "pairs": pairs}
            if args.traced:
                entry["traced"] = {side: run_bench(dirs[side], workload, args.seed, seconds, 1)
                                   for side in ("parent", "change")}
            report["workloads"][workload] = entry
            with open(args.out, "w") as fh:  # rewritten after each workload, so a cut run keeps its pairs
                json.dump(report, fh, indent=1)
                fh.write("\n")
    for workload, entry in report["workloads"].items():
        wall = entry["summary"]["wall_s"]
        print(f"{workload}: wall_s median {wall['parent']['median']} -> {wall['change']['median']}, "
              f"change won {wall['change_wins']} of {wall['pairs_compared']} (sign test p "
              f"{wall['sign_test_p']:.4g}), ratio {wall['ratio']['median']} in "
              f"[{wall['ratio']['low']}, {wall['ratio']['high']}]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
