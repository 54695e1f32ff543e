"""Timed, traced and checked rounds of the destride pipeline.

A round runs the user-facing pipeline `destride transform` -> `destride
verify --json` -> `destride report --json` through
destride.cli.main with output captured, one command at a time over all the
workload's networks, and after each command a block of single-input forward
calls on the original and the transformed networks.  It then checks every
output against the benchmark's own reference (see reference.py).  Each
network's pipeline pass and each network's forward calls in a round are one
operation each; an operation with any problem counts as failed, and a wrong
output also makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import destride
import destride.cli
import destride.network
import destride.transform
import reference
from spans import Tracer

TOL = 1e-9              # the pinned equivalence tolerance
PHASES = ("transform", "verify", "report")
FORWARD_SAMPLES = 2     # forward samples per network kind after each phase
CHECK_INPUTS = 2        # reference-equivalence inputs per network per round
MIN_ROUNDS = 3
# conv layer indices of lenet-inline, named L<i> in per-layer metrics
CONV_INDICES = (0, 2, 3, 5)

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import destride
for path in sys.argv[2:]:
    destride.load_document(path)
"""

PEAK_CODE = """
import contextlib, io, json, resource, sys
sys.path.insert(0, sys.argv[1])
from destride.cli import main
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


@dataclass
class Case:
    """One network of a workload and everything the checks derive from it."""

    net: reference.Net
    orig: Path
    tr: Path
    plan: dict
    conv_ix: list
    spec: object = None          # destride.NetworkSpec loaded from orig
    result: object = None        # destride.TransformResult in memory
    inputs: list = field(default_factory=list)
    expected: list = field(default_factory=list)   # reference outputs


def median(samples):
    """The statistic every timing reports: the median of the run's samples.

    On a shared machine, load from outside the VM slows this process by up
    to 2x, in spells from under a second to minutes.  A run's fastest
    sample then depends on whether the run caught a quiet moment, and it
    moved about twice as much between runs as the median, which follows the
    load averaged over the whole run (see README.md).
    """
    return statistics.median(samples)


class Harness:
    def __init__(self, workload, paths, seed, src: Path, tamper=None):
        self.workload = workload
        self.src = src                  # the source tree's src/ directory
        self.seed = seed
        self.tamper = tamper            # called on the transformed path; tests only
        self.rng = np.random.default_rng([seed, 7])
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []
        self.samples = defaultdict(list)
        self.rounds = 0
        self.steps = []                  # (traced, phase, first span, end span)
        self.cases = []
        for net, orig in zip(workload.nets, paths):
            tr = orig.with_name(orig.stem + "-unity.json")
            conv_ix = [i for i, l in enumerate(net.layers) if l["kind"] == "conv"]
            self.cases.append(Case(net, orig, tr, reference.plan(net), conv_ix))

    # ---- set-up, memory ------------------------------------------------

    def setup_sample(self):
        """Wall time of a fresh interpreter that imports destride and loads
        the workload's original documents."""
        argv = [sys.executable, "-c", SETUP_CODE, str(self.src), *(str(c.orig) for c in self.cases)]
        t0 = time.perf_counter()
        # with a pipe, run() waits on the pipe, not by polling every 50 ms
        subprocess.run(argv, check=True, timeout=120, capture_output=True)
        self.samples["setup_s"].append(time.perf_counter() - t0)

    def argv(self, c: Case, phase: str) -> list:
        if phase == "transform":
            return ["transform", str(c.orig), str(c.tr)]
        if phase == "verify":
            return ["verify", str(c.orig), str(c.tr), "--trials", str(self.workload.trials),
                    "--seed", str(self.seed), "--json"]
        return ["report", str(c.orig), str(c.tr), "--json"]

    def peak_mb(self, meanwhile) -> float:
        """Peak resident memory of a fresh process running one pipeline pass.

        `meanwhile` runs here while the child works: untimed work overlaps
        a measurement of memory, not of time.
        """
        argvs = [self.argv(c, phase) for c in self.cases for phase in PHASES]
        argv = [sys.executable, "-c", PEAK_CODE, str(self.src), json.dumps(argvs)]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as child:
            try:
                meanwhile()
                out, err = child.communicate(timeout=150)
            except BaseException:
                child.kill()
                raise
        if child.returncode != 0:
            raise RuntimeError(f"pipeline pass for peak memory failed: {err.strip()}")
        return int(out.split()[-1]) / 1024.0

    def prepare(self):
        """Load each original through the library, transform it in memory,
        and draw the forward inputs with their reference outputs."""
        for c in self.cases:
            c.spec = destride.load_document(c.orig).network
            c.result = destride.transform_network(c.spec)
            c.inputs = [self.rng.standard_normal(c.net.input_shape) for _ in range(3)]
            c.expected = [reference.evaluate(c.net, x) for x in c.inputs]

    # ---- rounds --------------------------------------------------------

    def cli(self, argv):
        """(exit code, stdout, seconds) of one command, or what it raised."""
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                with self.tracer.span(f"cli.{argv[0]}"):
                    rc = destride.cli.main(argv)
                seconds = time.perf_counter() - t0
        except Exception as e:  # checked, and counted, with the operation
            return e
        return rc, out.getvalue(), seconds

    def operation(self, what, body):
        """Run one operation; count it, and record any problem it reports."""
        self.attempted += 1
        try:
            wrong = body()
        except Exception as e:  # a crash fails the operation, the run goes on
            self.failed += 1
            self.problems.append(f"{what}: {type(e).__name__}: {e}")
            return
        if wrong:
            self.failed += 1
            self.correct = False
            self.problems.extend(f"{what}: {w}" for w in wrong)

    @contextlib.contextmanager
    def step(self, traced, phase):
        """Record which spans one step of a round produced."""
        first = len(self.tracer.spans)
        yield
        self.steps.append((traced, phase, first, len(self.tracer.spans)))

    def round(self, traced=False):
        """One phase at a time over all networks, with a block of forward
        samples after each phase, so that forward samples spread over the
        round as the command samples do; then every output is checked."""
        results = {}
        outputs = defaultdict(list)
        with self.tracer.installed() if traced else contextlib.nullcontext():
            for n, phase in enumerate(PHASES):
                with self.step(traced, phase):
                    for c in self.cases:
                        result = results[c.net.name, n] = self.cli(self.argv(c, phase))
                        if isinstance(result, Exception):
                            continue
                        self.samples[phase, c.net.name, traced].append(result[2])
                        if phase == "transform" and result[0] == 0 and self.tamper is not None:
                            self.tamper(c.tr)
                with self.step(traced, "forward"):
                    self.forward_block(outputs)
            if traced:
                with self.step(traced, "selftest"):
                    self.operation("selftest", self.selftest)
        self.rounds += 1
        for c in self.cases:
            self.operation(c.net.name, lambda c=c: self.check_pipeline(c, results))
            self.operation(f"{c.net.name} forward",
                           lambda c=c: check_forward(c, outputs[c.net.name]))

    def forward_block(self, outputs):
        """FORWARD_SAMPLES samples of each network kind, alternating; a
        sample is one forward call on every network of the workload."""
        for _ in range(FORWARD_SAMPLES):
            j = len(self.samples["forward_orig_ms"]) % 3
            with self.tracer.span("bench.forward", "orig"):
                t0 = time.perf_counter()
                ys = [destride.network.forward(c.spec, c.inputs[j]) for c in self.cases]
                self.samples["forward_orig_ms"].append((time.perf_counter() - t0) * 1e3)
            for c, y in zip(self.cases, ys):
                outputs[c.net.name].append((j, y))
            with self.tracer.span("bench.forward", "tr"):
                t0 = time.perf_counter()
                ys = [
                    destride.network.forward(
                        c.result.network,
                        destride.transform.reshape_input(c.inputs[j], c.result.input_map),
                    )
                    for c in self.cases
                ]
                self.samples["forward_tr_ms"].append((time.perf_counter() - t0) * 1e3)
            for c, y in zip(self.cases, ys):
                outputs[c.net.name].append((j, y))

    def check_pipeline(self, c: Case, results) -> list:
        got = [results[c.net.name, n] for n in range(len(PHASES))]
        for result in got:
            if isinstance(result, Exception):
                raise result
        if got[0][0] != 0:
            return [f"transform exited {got[0][0]}"]
        wrong = check_transformed(c, self.rng)
        for phase, (rc, out, _) in zip(PHASES[1:], got[1:]):
            if rc != 0:
                wrong.append(f"{phase} exited {rc}")
            if phase == "verify" and rc in (0, 1):   # 1: verification failed, report printed
                wrong += check_verify(out, self.workload.trials)
            elif phase == "report" and rc == 0:
                wrong += check_report(c, out)
        return wrong

    def selftest(self) -> list:
        result = self.cli(["selftest", "--seed", str(self.seed)])
        if isinstance(result, Exception):
            raise result
        return [] if result[0] == 0 else [f"selftest exited {result[0]}"]

    def measure(self, seconds, traced_mode=False):
        """Whole rounds until `seconds` have passed, at least MIN_ROUNDS.  In
        traced mode rounds alternate untraced and traced; otherwise a set-up
        sample precedes every round and follows the last, so that set-up
        samples too spread over the run."""
        start = time.perf_counter()
        n = 0
        while n < (2 * MIN_ROUNDS - 2 if traced_mode else MIN_ROUNDS) or \
                time.perf_counter() - start < seconds:
            if not traced_mode:
                self.setup_sample()
            self.round(traced=traced_mode and n % 2 == 1)
            n += 1
        if not traced_mode:
            self.setup_sample()

    # ---- metrics -------------------------------------------------------

    def command_seconds(self, phase, traced=False) -> float:
        """A command's time on the workload: the sum over its networks of
        each network's median sample."""
        return sum(median(self.samples[phase, c.net.name, traced]) for c in self.cases)

    def end_to_end(self, peak_mb) -> dict:
        stored = macs = doc_bytes = 0
        for c in self.cases:
            convs = c.plan["convs"]
            layers = reference.transformed_layers(c.net, convs)
            stored += sum(
                convs[i].stored if i in convs else int(np.prod(w.shape))
                for i, w in c.net.weights.items()
            )
            macs += sum(reference.macs(c.plan["input_shape"], layers))
            _, _, files = reference.read_document(c.tr)
            doc_bytes += sum(f.stat().st_size for f in files)
        s = self.samples
        return {
            "setup_s": (median(s["setup_s"]), "s"),
            "transform_s": (self.command_seconds("transform"), "s"),
            "verify_s": (self.command_seconds("verify"), "s"),
            "report_s": (self.command_seconds("report"), "s"),
            "forward_orig_ms": (median(s["forward_orig_ms"]), "ms"),
            "forward_tr_ms": (median(s["forward_tr_ms"]), "ms"),
            "peak_mb": (peak_mb, "MB"),
            "stored_values": (stored, "count"),
            "macs_tr": (macs, "count"),
            "doc_bytes": (doc_bytes, "bytes"),
        }


# ---- checks -------------------------------------------------------------


def check_verify(out: str, trials: int) -> list:
    report = json.loads(out)
    devs = [report["max_abs_dev"], *report["deviations"]]
    wrong = []
    if not all(math.isfinite(d) for d in devs):
        wrong.append("verify reported a non-finite deviation")
    elif report["max_abs_dev"] > TOL:
        wrong.append(f"verify max_abs_dev {report['max_abs_dev']:.3e} > {TOL}")
    if report["trials"] != trials or len(report["deviations"]) != trials:
        wrong.append(f"verify ran {report['trials']} trials, asked {trials}")
    if not report["passed"]:
        wrong.append("verify did not pass")
    return wrong


def check_transformed(c: Case, rng) -> list:
    """The transformed document, read by the benchmark's own reader, against
    the plan and the reference evaluator; then the library's reload of it
    against the in-memory transform."""
    wrong = []
    tnet, block, _ = reference.read_document(c.tr)
    convs = c.plan["convs"]
    if any(l["kind"] == "conv" and l.get("stride", 1) != 1 for l in tnet.layers):
        wrong.append("a transformed conv has stride != 1")
    if tuple(tnet.input_shape) != c.plan["input_shape"]:
        wrong.append(f"transformed input {tnet.input_shape} != {c.plan['input_shape']}")
    if tnet.layers != reference.transformed_layers(c.net, convs):
        wrong.append("transformed layers differ from the shapes the plan derives")
        return wrong
    for i, w in c.net.weights.items():
        t = tnet.weights[i]
        rep = convs[i].replication if i in convs else 1
        pad = convs[i].padding if i in convs else 0
        zeros = int(np.count_nonzero(t == 0.0))
        if zeros != pad:
            wrong.append(f"layer {i}: {zeros} exact zeros, {pad} padding zeros expected")
        if not np.array_equal(np.sort(t[t != 0.0]), np.sort(np.repeat(w.ravel(), rep))):
            wrong.append(f"layer {i}: non-zero weights are not {rep} copies of the original")
    imap = block["input_map"]
    if imap["stride"] != c.plan["stride"]:
        wrong.append(f"input map stride {imap['stride']} != {c.plan['stride']}")
        return wrong
    for _ in range(CHECK_INPUTS):
        x = rng.standard_normal(c.net.input_shape)
        y0 = reference.evaluate(c.net, x)
        y1 = reference.evaluate(tnet, reference.regroup(x, imap["stride"], imap["entries"]))
        dev = float(np.max(np.abs(y0 - y1)))
        if not dev <= TOL:
            wrong.append(f"reference evaluation deviates by {dev:.3e}")
            break
    reloaded = destride.load_document(c.tr)
    mem = c.result
    if reloaded.transform.input_map.entries != mem.input_map.entries:
        wrong.append("reloaded input map differs from the in-memory transform")
    for a, b in zip(reloaded.network.layers, mem.network.layers):
        wa, wb = getattr(a, "weights", None), getattr(b, "weights", None)
        if (wa is None) != (wb is None) or (wa is not None and not np.array_equal(wa, wb)):
            wrong.append("reloaded weights differ from the in-memory transform")
            break
    return wrong


def check_report(c: Case, out: str) -> list:
    rows = json.loads(out)
    want = []
    for i, w in sorted(c.net.weights.items()):
        p = c.plan["convs"].get(i)
        if p is not None:
            want.append({"layer_index": i, "kind": "conv", "original_count": p.original,
                         "stored_volume": p.stored, "distinct_sources": p.original,
                         "padding_zeros": p.padding, "replication": p.replication})
        else:
            n = int(w.size)
            want.append({"layer_index": i, "kind": "fully_connected", "original_count": n,
                         "stored_volume": n, "distinct_sources": n, "padding_zeros": 0,
                         "replication": 1})
    if rows != want:
        return ["report rows differ from the counts derived from shapes"]
    return []


def check_forward(c: Case, outputs) -> list:
    worst = float(np.max([np.max(np.abs(y - c.expected[j])) for j, y in outputs]))
    return [] if worst <= TOL else [f"forward deviates from the reference by {worst:.3e}"]


# ---- per-layer metrics from spans ---------------------------------------


def per_layer_metrics(h: Harness) -> dict:
    """Per-layer metrics from the traced steps.  A span-derived time is, for
    each network, the median over the traced steps of its command, summed
    over the networks; forward-derived times are the median over the traced
    forward samples.  The tracing overhead compares the traced and untraced
    command times, taken the same way."""
    spans = h.tracer.spans
    selfs = h.tracer.self_times()
    kids = h.tracer.children()
    dur = [s[3] - s[2] for s in spans]
    orig_paths = [str(c.orig) for c in h.cases]
    tr_paths = [str(c.tr) for c in h.cases]

    by_phase = defaultdict(list)       # phase -> per step, per network {key: seconds}
    docs = defaultdict(list)           # (specio function, path) -> seconds
    samples = []                       # bench.forward span indices
    for traced, phase, a, b in h.steps:
        if not traced:
            continue
        per_net = []                   # one entry per root span, in network order
        for i in range(a, b):
            name, tag, parent = spans[i][0], spans[i][1], spans[i][4]
            if parent is None:
                per_net.append(defaultdict(float))
            totals = per_net[-1]
            totals[name] += dur[i]
            totals[name.split(".")[0] + ".self"] += selfs[i]
            if name.startswith("cli."):
                totals[name + ".self"] += selfs[i]
            elif name.startswith("specio."):
                docs[name, tag].append(dur[i])
            elif name == "bench.forward":
                samples.append(i)
        by_phase[phase].append(per_net)

    def stat(phase, key):
        """Sum over networks of each network's median step, as end-to-end
        command times are taken."""
        steps = by_phase[phase]
        return sum(median([step[k][key] for step in steps]) for k in range(len(steps[0])))

    def per_document(name, paths):
        return sum(median(docs[name, p]) for p in paths if docs[name, p])

    # bench.forward -> network.forward per case -> conv_multichannel per conv
    conv_ms = defaultdict(list)
    reshape = []
    for i in samples:
        kind = spans[i][1]
        per_layer = defaultdict(float)
        fwd = [k for k in kids[i] if spans[k][0] == "network.forward"]
        for c, f in zip(h.cases, fwd):
            for ix, k in zip(c.conv_ix, kids[f]):
                per_layer[ix] += dur[k]
        conv_ms[kind, "all"].append(sum(per_layer.values()) * 1e3)
        for ix in CONV_INDICES:
            conv_ms[kind, ix].append(per_layer[ix] * 1e3)
        if kind == "tr":
            reshape.append(sum(dur[k] for k in kids[i]
                               if spans[k][0] == "transform.reshape_input") * 1e3)

    layer_macs = {}
    for c in h.cases:
        tr_layers = reference.transformed_layers(c.net, c.plan["convs"])
        layer_macs[c.net.name] = {
            "orig": reference.macs(c.net.input_shape, c.net.layers),
            "tr": reference.macs(c.plan["input_shape"], tr_layers),
        }

    def macs_at(kind, ix):
        return sum(layer_macs[c.net.name][kind][i] for c in h.cases for i in c.conv_ix
                   if ix in ("all", i))

    out = {
        "specio.load_orig_s": (per_document("specio.load_document", orig_paths), "s"),
        "specio.load_tr_s": (per_document("specio.load_document", tr_paths), "s"),
        "specio.save_tr_s": (per_document("specio.save_document", tr_paths), "s"),
        "transform.transform_network_s": (stat("transform", "transform.transform_network"), "s"),
        "transform.source_pairs": (sum(p.pairs for c in h.cases for p in c.plan["convs"].values()), "count"),
        "transform.sharing_trace_s": (stat("report", "transform.sharing_trace"), "s"),
        "transform.reshape_input_ms": (median(reshape), "ms"),
    }
    for ix in CONV_INDICES:
        ps = [c.plan["convs"][ix] for c in h.cases if ix in c.plan["convs"]]
        original = sum(p.original for p in ps)
        out[f"transform.L{ix}.stored"] = (sum(p.stored for p in ps), "count")
        out[f"transform.L{ix}.padding_zeros"] = (sum(p.padding for p in ps), "count")
        out[f"transform.L{ix}.replication"] = (
            sum(p.original * p.replication for p in ps) / original if original else 0.0, "ratio")
    for kind in ("orig", "tr"):
        out[f"convolution.{kind}.ms"] = (median(conv_ms[kind, "all"]), "ms")
        out[f"convolution.{kind}.macs"] = (macs_at(kind, "all"), "count")
    for kind in ("orig", "tr"):
        for ix in CONV_INDICES:
            ms = median(conv_ms[kind, ix])
            m = macs_at(kind, ix)
            out[f"convolution.{kind}.L{ix}.ms"] = (ms, "ms")
            out[f"convolution.{kind}.L{ix}.macs"] = (m, "count")
            if kind == "tr":
                out[f"convolution.tr.L{ix}.mac_per_s"] = (m / (ms / 1e3) if ms else 0.0, "MAC/s")
    useful = total = 0
    for c in h.cases:
        for i, p in c.plan["convs"].items():
            m = layer_macs[c.net.name]["tr"][i]
            total += m
            useful += m * (p.stored - p.padding) // p.stored
    out["convolution.tr.useful_mac_share"] = (useful / total, "ratio")
    out["network.verify_equivalence_s"] = (stat("verify", "network.verify_equivalence"), "s")
    out["network.parameter_report_s"] = (stat("report", "network.parameter_report"), "s")
    for cmd in ("transform", "verify", "report"):
        out[f"cli.{cmd}.self_s"] = (stat(cmd, f"cli.{cmd}.self"), "s")
    out["selftest.run_s"] = (stat("selftest", "selftest.run_selftest"), "s")
    # self time in one pass of transform -> verify -> report
    for module in ("cli", "specio", "transform", "network", "convolution"):
        out[f"{module}.self_s"] = (
            sum(stat(cmd, f"{module}.self") for cmd in ("transform", "verify", "report")), "s")
    commands = ("transform", "verify", "report")
    plain = sum(h.command_seconds(cmd) for cmd in commands)
    with_spans = sum(h.command_seconds(cmd, traced=True) for cmd in commands)
    out["trace.overhead_pct"] = ((with_spans / plain - 1.0) * 100.0, "%")
    return out
