"""The claim arithmetic of tools/bench_pairs.py, on synthetic runs: no
benchmark is started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = {"name": "t", "better": "lower", "bound": 0.25}
HIGHER = {"name": "t", "better": "higher", "bound": 0.25}
# ten parent runs: median 10.45, quartiles 10.225 and 10.675, IQR 0.45
PARENT = [10.0 + i / 10 for i in range(10)]


def _runs(parent, change, name="t"):
    """The records bench_pairs keeps of pairs i = 1, 2, ...: parent[i - 1]
    against change[i - 1]."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change), start=1):
        runs.append({"pair": i, "side": "parent", "metrics": {name: p}})
        runs.append({"pair": i, "side": "change", "metrics": {name: c}})
    return runs


def _claim(parent, change, metric=LOWER):
    summary = bench_pairs.summarize(_runs(parent, change), metric)
    record = {"workloads": {"w": {"summary": {metric["name"]: summary}}}}
    return summary, bench_pairs.claim(record, "w", metric["name"], metric["better"])


def test_nine_wins_of_ten_beyond_the_parent_iqr_hold():
    change = [p - 1.0 for p in PARENT[:9]] + [PARENT[9] + 0.5]
    summary, c = _claim(PARENT, change)
    assert (summary["change_wins"], summary["change_losses"], summary["pairs"]) == (9, 1, 10)
    assert summary["parent_iqr"] == pytest.approx(0.45)
    assert c["parent_median"] - c["change_median"] > c["parent_iqr"]
    assert c["holds"]


def test_eight_wins_of_ten_do_not_hold():
    change = [p - 1.0 for p in PARENT[:8]] + [p + 0.5 for p in PARENT[8:]]
    summary, c = _claim(PARENT, change)
    assert (summary["change_wins"], summary["change_losses"]) == (8, 2)
    assert c["parent_median"] - c["change_median"] > c["parent_iqr"]
    assert not c["holds"]


def test_nine_wins_within_the_parent_iqr_do_not_hold():
    change = [p - 0.01 for p in PARENT[:9]] + [PARENT[9] + 0.5]
    summary, c = _claim(PARENT, change)
    assert summary["change_wins"] == 9
    assert 0 < c["parent_median"] - c["change_median"] < c["parent_iqr"]
    assert not c["holds"]


def test_ties_count_for_neither_side():
    change = [p - 1.0 for p in PARENT[:7]] + PARENT[7:9] + [PARENT[9] + 1.0]
    summary, c = _claim(PARENT, change)
    assert (summary["change_wins"], summary["change_losses"], summary["pairs"]) == (7, 1, 10)
    assert not c["holds"]
    # every pair a tie: no wins, no losses, no change
    summary, c = _claim(PARENT, PARENT)
    assert (summary["change_wins"], summary["change_losses"]) == (0, 0)
    assert summary["median_change_pct"] == 0.0
    assert not c["holds"]


def test_a_higher_is_better_metric_flips_the_sign():
    change = [p + 1.0 for p in PARENT[:9]] + [PARENT[9] - 0.5]
    summary, c = _claim(PARENT, change, HIGHER)
    assert (summary["change_wins"], summary["change_losses"]) == (9, 1)
    assert summary["median_change_pct"] > 0
    assert c["holds"]
    # the same runs read against a lower-is-better metric are a loss
    summary, c = _claim(PARENT, change, LOWER)
    assert (summary["change_wins"], summary["change_losses"]) == (1, 9)
    assert not c["holds"]
    # a higher metric that reads lower by more than its bound is worse
    summary, _ = _claim(PARENT, [p * 0.5 for p in PARENT], HIGHER)
    assert summary["verdict"] == "worse than the bound"


@pytest.mark.parametrize("parent, change, verdict", [
    # 1 % slower, runs spread 9 % of the median
    (PARENT, [p * 1.01 for p in PARENT], "within bound"),
    # the parent's runs spread wider than the bound, every change run below them
    ([10.0, 20.0], [5.0, 6.0], "better in every run"),
    # the same spread, the change's runs among the parent's
    ([10.0, 20.0], [11.0, 19.0], "unresolved: runs spread wider than the bound"),
    # 50 % slower, runs spread 9 % of the median
    (PARENT, [p * 1.5 for p in PARENT], "worse than the bound"),
])
def test_each_verdict(parent, change, verdict):
    summary, _ = _claim(parent, change)
    assert summary["verdict"] == verdict


def test_quartiles_of_a_single_pair():
    assert bench_pairs.quartiles([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5}
    summary, c = _claim([4.0], [3.0])
    assert summary["parent"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert summary["change"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    assert (summary["pairs"], summary["change_wins"], summary["parent_iqr"]) == (1, 1, 0.0)
    assert summary["median_change_pct"] == pytest.approx(-25.0)
    # one win of one is nine tenths of the pairs, and any gain beats an IQR of 0
    assert c["holds"]


def test_quartiles_interpolate_as_numpy_percentile():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_unpaired_runs_are_left_out():
    runs = _runs(PARENT[:3], [p - 1.0 for p in PARENT[:3]])
    runs.append({"pair": 4, "side": "parent", "metrics": {"t": 99.0}})
    summary = bench_pairs.summarize(runs, LOWER)
    assert summary["pairs"] == 3
    assert summary["parent"]["median"] == PARENT[1]
    assert bench_pairs.summarize(runs[-1:], LOWER) == {}
