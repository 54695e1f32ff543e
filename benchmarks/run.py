"""Benchmark of the destride pipeline on one workload.

    python3 benchmarks/run.py --workload {lenet-inline,zoo} \\
        --seed N --seconds S --trace {0,1}

Builds the workload from the seed, then measures whole rounds of
transform -> verify -> report and single-input forward for at least
`--seconds` seconds, checking every output against the benchmark's own
reference.  --trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced and traced rounds, prints the per-layer metrics from the spans and
the tracing overhead, and writes the spans to benchmarks/out/.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Run from the root of a source tree; it imports destride from src/ there.
"""

import os

# one BLAS thread, fixed before numpy loads, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  after the BLAS setting


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    missing = [p for p in (SRC / "destride" / "__init__.py", ROOT / "fixtures" / "lenet.json")
               if not p.is_file()]
    if missing:
        print(f"error: run from a destride source tree; missing {missing[0]}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    started = time.perf_counter()

    import harness  # imports destride from SRC

    workdir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, ROOT)
        h = harness.Harness(wl, workloads.write(wl, workdir), args.seed, SRC)
        if args.trace:
            h.prepare()
            h.measure(args.seconds, traced_mode=True)
            metrics = harness.per_layer_metrics(h)
            h.tracer.dump(OUT / f"spans-{args.workload}-s{args.seed}.json")
        else:
            peak_mb = h.peak_mb(meanwhile=h.prepare)
            h.measure(args.seconds)
            metrics = h.end_to_end(peak_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in h.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {h.rounds} rounds in "
          f"{time.perf_counter() - started:.1f} s, "
          f"{h.attempted} operations attempted, {h.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": h.correct,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
