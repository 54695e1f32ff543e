"""The benchmark's own checks must catch a wrong transform.

    python3 -m pytest benchmarks/test_checks.py

Each test runs one round of the lenet-inline workload.  The corrupting tests
edit the transformed document between `destride transform` and `destride
verify`, and expect the pipeline operation to count as failed with a problem
found by the benchmark's reference, not only by `destride verify`.
"""

import json

import numpy as np

import run  # noqa: F401  sets the BLAS threads and puts src/ on the path
import harness
import workloads


def one_round(tmp_path, tamper=None):
    wl = workloads.build("lenet-inline", 0, run.ROOT)
    h = harness.Harness(wl, workloads.write(wl, tmp_path), 0, run.SRC, tamper=tamper)
    h.prepare()
    h.round()
    return h


def corrupt_weight(path):
    """Change the first non-zero stored weight of the first conv layer."""
    doc = json.loads(path.read_text())
    values = doc["weights"]["arrays"]["0"]
    values[int(np.flatnonzero(values)[0])] += 0.5
    path.write_text(json.dumps(doc))


def swap_input_entries(path):
    """Swap the first two entries of the input channel map."""
    doc = json.loads(path.read_text())
    entries = doc["transform"]["input_map"]["entries"]
    entries[0], entries[1] = entries[1], entries[0]
    path.write_text(json.dumps(doc))


def pipeline_problems(h):
    return [p for p in h.problems if p.startswith("lenet-strided:")]


def test_clean_round_has_no_failures(tmp_path):
    h = one_round(tmp_path)
    assert h.problems == []
    assert (h.attempted, h.failed, h.correct) == (2, 0, True)


def test_corrupted_weight_fails_the_operation(tmp_path):
    h = one_round(tmp_path, corrupt_weight)
    assert (h.attempted, h.failed, h.correct) == (2, 1, False)
    problems = pipeline_problems(h)
    assert any("layer 0: non-zero weights are not 16 copies" in p for p in problems)
    assert any("reloaded weights differ" in p for p in problems)


def test_swapped_input_map_fails_the_operation(tmp_path):
    h = one_round(tmp_path, swap_input_entries)
    assert (h.attempted, h.failed, h.correct) == (2, 1, False)
    problems = pipeline_problems(h)
    assert any("reference evaluation deviates" in p for p in problems)
    assert any("reloaded input map differs" in p for p in problems)
