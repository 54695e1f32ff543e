"""The benchmark's two workloads.

Each workload is a list of original networks with seeded weights, written to
documents by the benchmark's own writer, plus the trial count `destride
verify` runs at.  Architectures do not depend on the seed, so that timings
from different seeds measure the same work; weights, verification inputs and
forward inputs do.

- lenet-inline: the paper's LeNet-style fixture (cumulative stride 4) with
  inline weights, so about 11 MB of decimal JSON passes through specio on
  every command.  The one workload where document I/O takes a large share;
  building its source maps (57k channel-entry pairs) is most of the rest.
- zoo: two dozen small networks with rectangular inputs and kernels, depth
  1-5, strides 1-4 and cumulative stride 2-4, sidecar weights and many
  verification trials.  Per-call overhead in forward, reshape_input and the
  CLI dominates, so batching shows here and a faster source map barely does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import Net, walk, write_document

ZOO_SIZE = 24
# the zoo's architectures come from this fixed generator seed, not from --seed
ZOO_ARCH_SEED = 1712


@dataclass
class Workload:
    name: str
    nets: list          # reference.Net, weights filled
    mode: str           # "inline" or "sidecar"
    trials: int         # verify --trials


def _weights(rng, shape):
    # magnitudes in [0.1, 1) with random signs: never exactly zero, so every
    # exact zero in a transformed layer is a padding zero
    return rng.uniform(0.1, 1.0, shape) * rng.choice([-1.0, 1.0], shape)


def _fill(net: Net, rng) -> Net:
    for i, (_, _, wshape) in enumerate(walk(net.input_shape, net.layers)):
        if wshape is not None:
            net.weights[i] = _weights(rng, wshape)
    return net


def lenet(root: Path) -> Net:
    doc = json.loads((root / "fixtures" / "lenet.json").read_text())
    network = doc["network"]
    return Net(network["name"], tuple(network["input_shape"]), network["layers"])


def zoo_net(rng, index: int) -> Net:
    """A random stack that meets the rewrite's divisibility rules: sizes are
    drawn from the last layer backwards, each conv input a multiple of its
    cumulative stride, each kernel what makes (size - kernel) a multiple of
    the stride.  Heights and widths are drawn apart."""
    depth = int(rng.integers(1, 6))
    while True:
        strides = [int(rng.integers(1, 5)) for _ in range(depth)]
        if 2 <= int(np.prod(strides)) <= 4:
            break
    sigma_in = list(np.cumprod(strides[::-1])[::-1])
    dims = []
    for _ in range(2):
        sizes = [0] * (depth + 1)
        sizes[depth] = int(rng.integers(1, 4))
        for i in reversed(range(depth)):
            need = -(-(strides[i] * (sizes[i + 1] - 1) + 1) // int(sigma_in[i]))
            sizes[i] = int(sigma_in[i]) * (need + int(rng.integers(0, 2)))
        dims.append(sizes)
    chans = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
    layers = []
    for i in range(depth):
        kernel = [dims[a][i] - strides[i] * (dims[a][i + 1] - 1) for a in range(2)]
        layers.append({"kind": "conv", "channels_out": chans[i + 1], "kernel": kernel,
                       "stride": strides[i]})
        if rng.random() < 0.5:
            layers.append({"kind": "activation", "function": "relu"})
    layers.append({"kind": "fully_connected", "units": int(rng.integers(1, 6))})
    return Net(f"zoo-{index:02d}", (chans[0], dims[0][0], dims[1][0]), layers)


NAMES = ("lenet-inline", "zoo")


def build(name: str, seed: int, root: Path) -> Workload:
    """The workload's networks with weights drawn from the seed."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "lenet-inline":
        return Workload(name, [_fill(lenet(root), rng)], "inline", 10)
    arch = np.random.default_rng(ZOO_ARCH_SEED)
    nets = [_fill(zoo_net(arch, i), rng) for i in range(ZOO_SIZE)]
    return Workload(name, nets, "sidecar", 50)


def write(workload: Workload, workdir: Path) -> list:
    """Write every original document; returns their paths."""
    paths = []
    for net in workload.nets:
        path = workdir / f"{net.name}.json"
        write_document(path, net, workload.mode)
        paths.append(path)
    return paths
