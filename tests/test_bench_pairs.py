"""The claim arithmetic of tools/bench_pairs.py, on synthetic runs, and its
export of a commit, from a one-commit repository: no benchmark is started."""

import importlib.util
import json
import os
import subprocess
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


def _fake_tree(root: Path, body: str) -> Path:
    """A tree whose benchmarks/run.py is body, a script of the standard library."""
    (root / "benchmarks").mkdir(parents=True)
    (root / "benchmarks" / "run.py").write_text(body)
    return root


def _result_script(fail_on_even_seeds=False) -> str:
    """A run.py that prints one result line in run.py's shape, every declared
    end-to-end metric at 1.0; exits 3 on an even --seed if asked."""
    names = [m["name"] for m in json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
             ["end_to_end"]]
    result = {"correct": True, "attempted": 5, "failed": 0,
              "metrics": {n: {"value": 1.0} for n in names}}
    return (
        "import json, sys\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        f"if {fail_on_even_seeds} and seed % 2 == 0:\n"
        "    sys.exit(3)\n"
        f"print('progress')\nprint(json.dumps({result!r}))\n"
    )


def test_run_once_records_a_run_that_exits_non_zero(tmp_path):
    tree = _fake_tree(tmp_path, "import sys\n"
                                "for i in range(25):\n    print('line', i, file=sys.stderr)\n"
                                "print('{}')\nsys.exit(3)\n")
    out = bench_pairs.run_once(tree, "zoo", 1, 1.0, 0)
    assert (out["how_it_ended"], out["exit_code"]) == ("failed", 3)
    assert out["stderr_tail"] == [f"line {i}" for i in range(5, 25)]
    assert "result" not in out and out["wall_s"] > 0


def test_run_once_records_a_last_line_that_is_not_json(tmp_path):
    for n, body in enumerate(("print('{\"correct\": true}')\nprint('done')\n",
                              "print('[1, 2]')\n", "")):
        out = bench_pairs.run_once(_fake_tree(tmp_path / str(n), body), "zoo", 1, 1.0, 0)
        assert (out["how_it_ended"], out["exit_code"], out["stderr_tail"]) == ("malformed", 0, [])
        assert "result" not in out


def test_run_once_reads_the_last_line_of_a_run_that_ends_ok(tmp_path):
    out = bench_pairs.run_once(_fake_tree(tmp_path, _result_script()), "zoo", 1, 1.0, 0)
    assert (out["how_it_ended"], out["exit_code"]) == ("ok", 0)
    assert out["result"]["attempted"] == 5 and out["result"]["correct"]


def test_run_once_records_a_run_that_times_out(tmp_path, monkeypatch):
    def timed_out(argv, **kwargs):
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"], b"", b"one\ntwo\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", timed_out)
    out = bench_pairs.run_once(tmp_path, "zoo", 1, 1.0, 0)
    assert (out["how_it_ended"], out["exit_code"], out["stderr_tail"]) == (
        "timed_out", None, ["one", "two"])


def test_a_session_goes_on_past_a_failed_run(tmp_path, monkeypatch, capsys):
    # the change side exits 3 on the second pair's seed, 6: that run is
    # recorded without metrics, the other three run, and main exits 1
    trees = {"parent": _fake_tree(tmp_path / "parent", _result_script()),
             "change": _fake_tree(tmp_path / "change", _result_script(fail_on_even_seeds=True))}
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pairs, "export", lambda rev, tree: trees[rev])
    out = tmp_path / "record.json"
    assert bench_pairs.main(["--parent", "parent", "--change", "change", "--workload", "zoo",
                             "--seed", "5", "--pairs", "2", "--seconds", "1",
                             "--out", str(out)]) == 1
    entry = json.loads(out.read_text())["workloads"]["zoo"]
    runs = [(r["pair"], r["side"], r["how_it_ended"], r["exit_code"], "metrics" in r)
            for r in entry["runs"]]
    assert runs == [(1, "parent", "ok", 0, True), (1, "change", "ok", 0, True),
                    (2, "change", "failed", 3, False), (2, "parent", "ok", 0, True)]
    assert entry["runs_not_ok"] == {"change": 1}
    assert entry["attempted"] == {"parent": 10, "change": 5}
    assert entry["summary"]["transform_s"]["pairs"] == 1
    assert "zoo pair 2 seed 6 change: failed (exit code 3)" in capsys.readouterr().out


def test_export_unpacks_the_committed_files_and_leaves_no_archive(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "sub").mkdir()
    (repo / "sub" / "f.txt").write_bytes(b"committed\n")
    env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t", "GIT_COMMITTER_NAME": "t",
           "GIT_COMMITTER_EMAIL": "t@t", "HOME": str(tmp_path), "PATH": os.environ["PATH"]}
    for argv in (["init", "-q"], ["add", "sub/f.txt"], ["commit", "-q", "-m", "one"]):
        subprocess.run(["git", *argv], cwd=repo, check=True, env=env)
    # a change after the commit is not exported
    (repo / "sub" / "f.txt").write_bytes(b"uncommitted\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    out = tmp_path / "out"
    out.mkdir()
    tree = bench_pairs.export("HEAD", out / "tree")
    assert tree == out / "tree"
    assert (tree / "sub" / "f.txt").read_bytes() == b"committed\n"
    assert sorted(p.name for p in out.iterdir()) == ["tree"]
