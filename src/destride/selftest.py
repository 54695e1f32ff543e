"""Seeded property suite behind the `selftest` command.

Each property draws its own generator from (seed, property index), so the
report text is deterministic for a given seed and does not change when
properties are filtered.  Details report the worst deviation or the case
count; a property fails by raising AssertionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolution import build_conv_tensor, conv2d, conv2d_strided, extract_filter, is_conv_tensor
from .network import ActivationLayer, ConvLayer, FullyConnectedLayer, NetworkSpec, init_params, verify_equivalence
from .sampling import SamplingSpec, compose_sampling, partition_cover_check, sample_matrix, sample_tensor, zero_pad
from .tensors import tensor_product
from .transform import destride_layer, sampled_conv_identity, transform_network


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _grid_partition(rng) -> str:
    cases = 0
    for s in (1, 2, 3):
        for rows, cols in ((6, 6), (5, 7), (4, 9), (3, 3)):
            assert partition_cover_check(rows, cols, s)
            x = rng.standard_normal((rows, cols))
            pooled = np.concatenate(
                [
                    sample_matrix(x, (p, q, s)).ravel()
                    for p in range(1, s + 1)
                    for q in range(1, s + 1)
                ]
            )
            assert pooled.size == x.size
            assert np.array_equal(np.sort(pooled), np.sort(x.ravel()))
            cases += 1
    return f"{cases} matrices split into exact partitions"


def _sampling_composition(rng) -> str:
    cases = 0
    for s in (1, 2, 3):
        for s_inner in (1, 2, 3):
            x = rng.standard_normal((12 * s * s_inner, 12 * s * s_inner))
            inner = sample_matrix(x, (1, 1, s_inner))
            for m in range(1, s + 1):
                for n in range(1, s + 1):
                    direct = sample_matrix(
                        x, compose_sampling(SamplingSpec(m, n, s), s_inner)
                    )
                    assert np.array_equal(sample_matrix(inner, (m, n, s)), direct)
                    cases += 1
    return f"{cases} nested samplings equal their composed spec exactly"


def _conv_tensor_structure(rng) -> str:
    built = 0
    perturbed = 0
    for _ in range(10):
        a, b = rng.integers(1, 4, 2)
        c, d = int(a + rng.integers(1, 4)), int(b + rng.integers(1, 4))
        t = build_conv_tensor(rng.standard_normal((a, b)), (c, d))
        assert is_conv_tensor(t)
        built += 1
        flat = t.ravel()
        for idx in rng.choice(flat.size, size=min(20, flat.size), replace=False):
            bad = flat.copy()
            bad[idx] += 1.0
            assert not is_conv_tensor(bad.reshape(t.shape))
            perturbed += 1
    return f"{built} built tensors pass, {perturbed} single-element perturbations fail"


def _conv_as_tensor_product(rng) -> str:
    worst = 0.0
    for _ in range(60):
        a, b = rng.integers(1, 6, 2)
        c = int(rng.integers(a, 10))
        d = int(rng.integers(b, 10))
        h = rng.standard_normal((a, b))
        x = rng.standard_normal((c, d))
        dev = np.max(np.abs(conv2d(h, x) - tensor_product(build_conv_tensor(h, (c, d)), x)))
        worst = max(worst, float(dev))
    assert worst <= 1e-12
    return f"max |conv - tensor product| = {worst:.2e} over 60 draws"


def _double_sampling(rng) -> str:
    cases = 0
    for s in (2, 3):
        for _ in range(6):
            a = int(rng.integers(s, 6))
            b = int(rng.integers(s, 6))
            c = int(rng.integers(a + s, a + 3 * s))
            d = int(rng.integers(b + s, b + 3 * s))
            h = rng.uniform(1.0, 2.0, (a, b))  # strictly nonzero entries
            t = build_conv_tensor(h, (c, d))
            for m in range(1, s + 1):
                for n in range(1, s + 1):
                    t12 = sample_tensor(t, (1, 2), (m, n, s))
                    for p in range(1, s + 1):
                        for q in range(1, s + 1):
                            t34 = sample_tensor(t12, (3, 4), (p, q, s))
                            assert is_conv_tensor(t34)
                            want = sample_matrix(zero_pad(h, m - 1, n - 1), (q, p, s))
                            assert np.array_equal(extract_filter(t34), want)
                            cases += 1
    return f"{cases} double-sampled tensors match their sampled filter exactly"


def _sampled_conv_identity(rng) -> str:
    worst = 0.0
    cases = 0
    for s in (1, 2, 3):
        for _ in range(15):
            a = int(rng.integers(1, 6))
            b = int(rng.integers(1, 6))
            c = int(rng.integers(a, a + 8))
            d = int(rng.integers(b, b + 8))
            h = rng.standard_normal((a, b))
            x = rng.standard_normal((c, d))
            for m in range(1, s + 1):
                for n in range(1, s + 1):
                    lhs, rhs = sampled_conv_identity(h, x, m, n, s)
                    if lhs.size:
                        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
                    cases += 1
    assert worst <= 1e-12
    return f"max |lhs - rhs| = {worst:.2e} over {cases} offset/stride draws"


def _single_layer_destride(rng) -> str:
    worst = 0.0
    for s in (1, 2, 3):
        for _ in range(15):
            c = s * int(rng.integers(2, 5))
            d = s * int(rng.integers(2, 5))
            a = int(rng.integers(1, c + 1))
            b = int(rng.integers(1, d + 1))
            h = rng.standard_normal((a, b))
            x = rng.standard_normal((c, d))
            filters, channels = destride_layer(h, x, s)
            total = sum(conv2d(g, xs) for g, xs in zip(filters, channels))
            dev = np.max(np.abs(conv2d_strided(h, x, s) - total))
            worst = max(worst, float(dev))
    assert worst <= 1e-12
    return f"max |strided - piece sum| = {worst:.2e} over 45 layers"


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


_PROPERTIES = (
    ("grid-partition", _grid_partition),
    ("sampling-composition", _sampling_composition),
    ("conv-tensor-structure", _conv_tensor_structure),
    ("conv-as-tensor-product", _conv_as_tensor_product),
    ("double-sampling", _double_sampling),
    ("sampled-conv-identity", _sampled_conv_identity),
    ("single-layer-destride", _single_layer_destride),
    ("network-destride", _network_destride),
)

PROPERTY_NAMES = tuple(name for name, _ in _PROPERTIES)


def run_selftest(seed: int = 0, names=None) -> list[PropertyResult]:
    """Run the property suite (optionally a subset) with seeded generators."""
    selected = PROPERTY_NAMES if names is None else tuple(names)
    unknown = set(selected) - set(PROPERTY_NAMES)
    if unknown:
        raise ValueError(f"unknown properties: {sorted(unknown)}")
    results = []
    for index, (name, fn) in enumerate(_PROPERTIES):
        if name not in selected:
            continue
        rng = np.random.default_rng([seed, index])
        try:
            detail = fn(rng)
            results.append(PropertyResult(name, True, detail))
        except AssertionError as e:
            results.append(PropertyResult(name, False, str(e) or "assertion failed"))
    return results


def format_report(results, seed: int) -> str:
    lines = [f"selftest seed {seed}"]
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.name:<24} {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} properties passed")
    return "\n".join(lines)
