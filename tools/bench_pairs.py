"""Alternating pairs of benchmark runs: a parent commit against a change.

    python3 tools/bench_pairs.py --parent REV [--change REV] \\
        --workload zoo --workload lenet-inline --seed 3001 --pairs 10 \\
        [--seconds 45] [--trace 0] [--claim zoo:transform_s] --out BENCH_N.json

Exports the committed files of each revision (git archive) into its own
temporary directory and runs `python3 benchmarks/run.py --workload W --seed S
--seconds T --trace 0` there, so both sides measure committed code with the
benchmark each commit carries.  Each workload gets --pairs pairs at
consecutive seeds: the first workload starts at --seed, the next where the
first stopped.  Pair i (from 1) runs the parent first when i is odd and the
change first when i is even.

For every end-to-end metric BENCHMARK.json declares, the record holds each
side's median and quartiles (linear interpolation, as numpy.percentile),
the change's wins and losses over the pairs (ties count for neither), the
parent's IQR, and a verdict against the metric's bound.  A claim
(--claim WORKLOAD:METRIC) holds when the change wins at least nine tenths of
the pairs and the medians differ, in the better direction, by more than the
parent's IQR.  The JSON record is rewritten after every run, so a stopped
session keeps the runs it made.  Standard library only.
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
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what main reads of a run's result
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, tree: Path) -> Path:
    """The committed files of rev, unpacked into the new directory tree."""
    tree.mkdir()
    archive = tree.with_suffix(".tar")
    with open(archive, "wb") as f:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=f)
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    archive.unlink()
    return tree


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run, whatever its end: how_it_ended ("ok", "failed" for
    a non-zero exit, "malformed" for a last line of standard output that is
    not a JSON result, "timed_out"), its exit code (None when timed out),
    the last 20 lines of its standard error and its wall time.  An ok run
    adds "result", the JSON object its last line of standard output holds."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=seconds * 4 + 600)
    except subprocess.TimeoutExpired as e:
        stderr = e.stderr.decode(errors="replace") if isinstance(e.stderr, bytes) else e.stderr
        record = {"how_it_ended": "timed_out", "exit_code": None}
    else:
        stderr = done.stderr
        record = {"how_it_ended": "failed" if done.returncode else "ok",
                  "exit_code": done.returncode}
    record["stderr_tail"] = (stderr or "").splitlines()[-20:]
    record["wall_s"] = time.perf_counter() - t0
    if record["how_it_ended"] == "ok":
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if isinstance(result, dict) and RESULT_KEYS <= result.keys():
            record["result"] = result
        else:
            record["how_it_ended"] = "malformed"
    return record


def quartiles(values) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list, metric: dict) -> dict:
    """Both sides of one metric over the pairs run so far."""
    name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
    pairs = {}
    for run in runs:
        # a run that did not end ok has no metrics, and leaves its pair incomplete
        if "metrics" in run:
            pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"][name]
    pairs = [p for p in pairs.values() if len(p) == 2]
    parent = [p["parent"] for p in pairs]
    change = [p["change"] for p in pairs]
    if not pairs:
        return {}
    ps, cs = quartiles(parent), quartiles(change)
    # positive: the change is worse, as a share of the parent's median
    worse = sign * (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else 0.0
    # run-to-run spread: the wider range of one side's runs
    spread = max(max(v) - min(v) for v in (parent, change)) / ps["median"] if ps["median"] else 0.0
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse <= metric["bound"] and spread <= metric["bound"]:
        verdict = "within bound"
    elif every_run_better:
        verdict = "better in every run"
    elif spread > metric["bound"]:
        verdict = "unresolved: runs spread wider than the bound"
    else:
        verdict = "worse than the bound"
    return {
        "parent": ps,
        "change": cs,
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "change_losses": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(pairs),
        "parent_iqr": ps["q3"] - ps["q1"],
        "median_change_pct": 100.0 * (cs["median"] - ps["median"]) / ps["median"]
        if ps["median"] else 0.0,
        "bound_pct": 100.0 * metric["bound"],
        "spread_pct": 100.0 * spread,
        "verdict": verdict,
    }


def claim(record: dict, workload: str, name: str, better: str) -> dict:
    s = record["workloads"][workload]["summary"][name]
    sign = 1 if better == "lower" else -1
    gain = sign * (s["parent"]["median"] - s["change"]["median"])
    return {
        "workload": workload,
        "metric": name,
        "parent_median": s["parent"]["median"],
        "change_median": s["change"]["median"],
        "change_wins": s["change_wins"],
        "pairs": s["pairs"],
        "parent_iqr": s["parent_iqr"],
        "median_change_pct": s["median_change_pct"],
        "holds": s["change_wins"] >= math.ceil(0.9 * s["pairs"]) and gain > s["parent_iqr"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="revision of the parent side")
    p.add_argument("--change", default="HEAD", help="revision of the change side (HEAD)")
    p.add_argument("--workload", action="append", required=True, help="repeatable")
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    p.add_argument("--out", type=Path, required=True, help="JSON record to write")
    args = p.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    seeds, seed = {}, args.seed
    for w in args.workload:
        seeds[w] = list(range(seed, seed + args.pairs))
        seed += args.pairs
    record = {
        "description": (
            f"{args.parent} ({revs['parent'][:7]}) against {args.change} ({revs['change'][:7]}): "
            f"{args.pairs} alternating pairs per workload of the command below, each side "
            "run from its own export of the committed files. Pair i runs the parent first "
            "when i is odd and the change first when i is even. A pair is won when the change "
            "reads better, ties count for neither. Quartiles are linear (numpy.percentile). "
            "spread_pct is the wider range of one side's runs over the parent's median."
        ),
        "command": f"python3 benchmarks/run.py --workload {{workload}} --seed {{seed}} "
                   f"--seconds {args.seconds:g} --trace {args.trace}",
        "settings": {"seconds": args.seconds, "trace": args.trace, "pairs": args.pairs},
        "seeds": seeds,
        "environment": {
            "python": platform.python_version(),
            "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs",
        },
        "parent_commit": revs["parent"],
        "change_commit": revs["change"],
        "source_trees": {side: git("rev-parse", f"{rev}:src") for side, rev in revs.items()},
        "workloads": {},
    }

    def write():
        for name in args.claim:
            w, m = name.split(":")
            if record["workloads"].get(w, {}).get("summary", {}).get(m):
                record.setdefault("claims", {})[name] = claim(record, w, m, better[m])
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    not_ok = 0
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        for w in args.workload:
            entry = record["workloads"][w] = {"runs": [], "attempted": {}, "failed": {},
                                              "incorrect_runs": {}, "runs_not_ok": {},
                                              "summary": {}}
            for i, s in enumerate(seeds[w], start=1):
                for side in (("parent", "change") if i % 2 else ("change", "parent")):
                    out = run_once(trees[side], w, s, args.seconds, args.trace)
                    run = {"pair": i, "seed": s, "side": side, "how_it_ended": out["how_it_ended"],
                           "exit_code": out["exit_code"], "wall_s": out["wall_s"]}
                    entry["runs"].append(run)
                    if out["how_it_ended"] != "ok":
                        # recorded without metrics, and the session goes on
                        run["stderr_tail"] = out["stderr_tail"]
                        entry["runs_not_ok"][side] = entry["runs_not_ok"].get(side, 0) + 1
                        not_ok += 1
                        print(f"{w} pair {i} seed {s} {side}: {out['how_it_ended']} "
                              f"(exit code {out['exit_code']})", flush=True)
                        continue
                    result = out["result"]
                    run.update({
                        "correct": result["correct"], "attempted": result["attempted"],
                        "failed": result["failed"],
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    })
                    for key, value in (("attempted", result["attempted"]),
                                       ("failed", result["failed"]),
                                       ("incorrect_runs", int(not result["correct"]))):
                        entry[key][side] = entry[key].get(side, 0) + value
                    print(f"{w} pair {i} seed {s} {side}: " + ", ".join(
                        f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                        flush=True)
                if args.trace == 0:
                    entry["summary"] = {m["name"]: summarize(entry["runs"], m) for m in metrics}
                write()
    for name, c in record.get("claims", {}).items():
        print(f"claim {name}: {c['parent_median']:.6g} -> {c['change_median']:.6g} "
              f"({c['median_change_pct']:+.1f} %), {c['change_wins']} of {c['pairs']} pairs, "
              f"parent IQR {c['parent_iqr']:.3g}: {'holds' if c['holds'] else 'does not hold'}")
    if not_ok:
        print(f"{not_ok} runs did not end ok", file=sys.stderr)
    return 1 if not_ok else 0


if __name__ == "__main__":
    sys.exit(main())
