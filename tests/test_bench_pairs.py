"""The statistics ``tools/bench_pairs.py`` records for each metric.

The sign test is exact and two-sided with ties dropped, so 10, 9 and 8 wins
of 10 pairs read 2/1024, 22/1024 and 112/1024.  The median ratio's interval
comes from binomial order statistics: it always holds the median, and its
stated coverage is the exact chance that it holds the true median.
"""

import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_tool()


@pytest.mark.parametrize("wins, p", [(10, 0.001953125), (9, 0.021484375), (8, 0.109375), (5, 1.0), (0, 0.001953125)])
def test_the_sign_test_of_ten_pairs(wins, p):
    assert bench_pairs.sign_test(wins, 10 - wins) == p


def test_the_sign_test_drops_ties():
    # 9 wins, 1 loss and any number of ties: the ties are not pairs of the test
    assert bench_pairs.sign_test(9, 1) == 0.021484375
    assert bench_pairs.sign_test(9, 0) == 2 / 2**9
    assert bench_pairs.sign_test(0, 0) == 1.0


def test_summaries_count_ties_for_neither_side():
    def run(value):
        return {"correct": True, "returncode": 0, "metrics": {"wall_s": {"value": value}}}

    parent = [1.0] * 10
    change = [0.5] * 9 + [1.0]  # nine wins and one tie
    pairs = [{"parent": run(a), "change": run(b)} for a, b in zip(parent, change)]
    wall = bench_pairs.summarize(pairs, {"wall_s": "lower"})["wall_s"]
    assert (wall["change_wins"], wall["change_losses"], wall["pairs_compared"]) == (9, 0, 10)
    assert wall["sign_test_p"] == 2 / 2**9
    ratio = wall["ratio"]  # nine of the ten ratios are 0.5, so the interval drops the one 1.0
    assert (ratio["low"], ratio["median"], ratio["high"]) == (0.5, 0.5, 0.5)


@pytest.mark.parametrize("n", range(6, 31))
def test_the_ratio_interval_holds_the_median_with_its_stated_coverage(n):
    values = [((31 * i) % n) / n + 0.5 for i in range(n)]  # n distinct values (31 is prime), unsorted
    got = bench_pairs.median_interval(values)
    x = sorted(values)
    assert got["low"] <= got["median"] <= got["high"]
    d = x.index(got["low"]) + 1  # the interval runs from the d-th smallest to the d-th largest
    assert got["high"] == x[n - d]
    coverage = 1 - 2 * sum(math.comb(n, i) for i in range(d)) / 2**n
    assert got["coverage"] == pytest.approx(coverage) and coverage >= 0.95
    wider = 1 - 2 * sum(math.comb(n, i) for i in range(d + 1)) / 2**n
    assert wider < 0.95  # one step further in would fall short


def test_ten_ratios_give_the_second_smallest_to_the_second_largest():
    got = bench_pairs.median_interval([1.0, 0.9, 1.2, 0.8, 1.1, 0.95, 1.05, 0.85, 1.15, 1.3])
    assert (got["low"], got["median"], got["high"]) == (0.85, 1.025, 1.2)
    assert got["coverage"] == 1 - 2 * 11 / 1024


def test_too_few_ratios_give_no_interval():
    got = bench_pairs.median_interval([1.0, 2.0, 3.0, 4.0, 5.0])
    assert got == {"median": 3.0, "low": None, "high": None, "coverage": None}
