"""Seeded property suite behind the `selftest` command.

One property, network-destride: ten random conv stacks (depth 1-5,
strides 1-4, rectangular shapes, ReLUs, a dense head) go through
transform_network and verify_equivalence.  Its generator is drawn from the
seed, so the report text is deterministic for a given seed; the detail
reports the worst deviation, and the property fails by raising
AssertionError.  The paper's single-layer lemmas are checked by the tests
(tests/lemmas.py and the acceptance checks), not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import ActivationLayer, ConvLayer, FullyConnectedLayer, NetworkSpec, init_params, verify_equivalence
from .transform import transform_network


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _random_conv_stack(rng):
    """(input_shape, layers) of a conv stack the rewrite accepts: depth 1-5,
    strides 1-4 up to a product of 8, a ReLU after each conv at p = 1/2.
    Heights and widths are drawn apart, from the last conv backwards, so
    that every conv input divides by its cumulative stride."""
    depth = int(rng.integers(1, 6))
    strides = [int(rng.integers(1, 5)) for _ in range(depth)]
    while math.prod(strides) > 8:
        strides = [int(rng.integers(1, 5)) for _ in range(depth)]
    sig_in = [math.prod(strides[i:]) for i in range(depth)]
    dims = []
    for _ in range(2):
        sizes = [int(rng.integers(1, 4))]
        for i in reversed(range(depth)):
            least = strides[i] * (sizes[0] - 1) + 1
            sizes.insert(0, sig_in[i] * (-(-least // sig_in[i]) + int(rng.integers(0, 2))))
        dims.append(sizes)
    chans = [int(rng.integers(1, 4)) for _ in range(depth + 1)]
    layers = []
    for i in range(depth):
        kernel = tuple(d[i] - strides[i] * (d[i + 1] - 1) for d in dims)
        layers.append(ConvLayer(chans[i + 1], kernel, strides[i]))
        if rng.random() < 0.5:
            layers.append(ActivationLayer("relu"))
    return (chans[0], dims[0][0], dims[1][0]), layers


def _network_destride(rng) -> str:
    worst = 0.0
    nets = 10
    for trial in range(nets):
        input_shape, layers = _random_conv_stack(rng)
        layers.append(FullyConnectedLayer(3))
        spec = init_params(
            NetworkSpec(f"selftest-{trial}", input_shape, tuple(layers)),
            seed=int(rng.integers(0, 2**31)),
        )
        result = transform_network(spec)
        report = verify_equivalence(spec, result.network, result.input_map,
                                    trials=20, tol=1e-9, seed=trial)
        assert report.passed, f"{spec.name}: deviation {report.max_abs_dev:.2e}"
        worst = max(worst, report.max_abs_dev)
    return f"{nets} random networks equivalent, worst deviation {worst:.2e}"


def run_selftest(seed: int = 0) -> list[PropertyResult]:
    """Run the suite with its seeded generator: one PropertyResult."""
    # [seed, 7], the stream this property drew as the eighth of a longer
    # suite, so that each seed's report keeps its text
    rng = np.random.default_rng([seed, 7])
    try:
        return [PropertyResult("network-destride", True, _network_destride(rng))]
    except AssertionError as e:
        return [PropertyResult("network-destride", False, str(e) or "assertion failed")]


def format_report(results, seed: int) -> str:
    lines = [f"selftest seed {seed}"]
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name:<24} {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} properties passed")
    return "\n".join(lines)
