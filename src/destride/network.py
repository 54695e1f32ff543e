"""Network specifications, shape inference, and the forward evaluator.

A network is an input shape plus an ordered tuple of layers: convolutions
(valid mode, strided, no bias), elementwise activations, and fully connected
layers applied to the flattened feature map (channel-major, then row, then
col).  Weights are optional so that architecture-only specs can be shaped,
transformed, and serialized; evaluation requires them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .convolution import conv_multichannel
from .sampling import RaggedSamplingError

ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "identity": lambda x: x,
}


@dataclass(frozen=True, eq=False)
class ConvLayer:
    channels_out: int
    kernel: tuple[int, int]
    stride: int = 1
    weights: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "kernel", tuple(int(v) for v in self.kernel))
        kh, kw = self.kernel
        if self.channels_out < 1 or kh < 1 or kw < 1:
            raise ValueError(f"conv layer needs positive channels and kernel, got {self}")
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride}")


@dataclass(frozen=True, eq=False)
class ActivationLayer:
    function: str = "relu"

    def __post_init__(self):
        if self.function not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.function!r}, known: {sorted(ACTIVATIONS)}"
            )


@dataclass(frozen=True, eq=False)
class FullyConnectedLayer:
    units: int
    weights: np.ndarray | None = None
    # permutation applied to the flattened vector before the multiply:
    # column j of the weight matrix meets flat element input_permutation[j]
    input_permutation: np.ndarray | None = None

    def __post_init__(self):
        if self.units < 1:
            raise ValueError(f"fully connected layer needs positive units, got {self.units}")


Layer = ConvLayer | ActivationLayer | FullyConnectedLayer


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    name: str
    input_shape: tuple[int, int, int]
    layers: tuple[Layer, ...]
    provenance: str = "original"

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(v) for v in self.input_shape))
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise ValueError(f"input shape must be (channels, h, w) >= 1, got {self.input_shape}")


def _conv_out(dim: int, kernel: int, stride: int, layer_idx: int, axis: str) -> int:
    if kernel > dim:
        raise ValueError(f"layer {layer_idx}: kernel {axis} {kernel} larger than input {dim}")
    if (dim - kernel) % stride != 0:
        raise RaggedSamplingError(
            f"layer {layer_idx}: ({dim} - {kernel}) not divisible by stride {stride}"
        )
    return (dim - kernel) // stride + 1


def _walk(spec: NetworkSpec):
    """Yield (input shape, output shape, weight shape or None) per layer.

    Shapes are (channels, h, w) tuples, or a feature count once the network
    has flattened.  Raises on geometry the network cannot have: a kernel
    larger than its input, a stride that does not divide (dim - kernel), or
    a convolution after the flatten.
    """
    shape = spec.input_shape
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, ConvLayer):
            if not isinstance(shape, tuple):
                raise ValueError(f"layer {i}: conv after flatten is not supported")
            cin, h, w = shape
            kh, kw = layer.kernel
            out = (
                layer.channels_out,
                _conv_out(h, kh, layer.stride, i, "height"),
                _conv_out(w, kw, layer.stride, i, "width"),
            )
            wshape = (layer.channels_out, cin, kh, kw)
        elif isinstance(layer, ActivationLayer):
            out, wshape = shape, None
        elif isinstance(layer, FullyConnectedLayer):
            feats = int(np.prod(shape)) if isinstance(shape, tuple) else shape
            out, wshape = layer.units, (layer.units, feats)
        else:
            raise ValueError(f"layer {i}: unsupported layer kind {type(layer).__name__}")
        yield shape, out, wshape
        shape = out


def infer_shapes(spec: NetworkSpec) -> list:
    """Output shape after each layer: (channels, h, w) tuples, or a feature
    count once the network has flattened.  Also validates that declared
    weights match declared shapes."""
    out = []
    for i, (layer, (_, shape, wshape)) in enumerate(zip(spec.layers, _walk(spec))):
        weights = getattr(layer, "weights", None)
        if weights is not None and weights.shape != wshape:
            raise ValueError(f"layer {i}: weight shape {weights.shape} != declared {wshape}")
        perm = getattr(layer, "input_permutation", None)
        if perm is not None and len(perm) != wshape[1]:
            raise ValueError(f"layer {i}: permutation length {len(perm)} != {wshape[1]}")
        out.append(shape)
    return out


def forward(spec: NetworkSpec, x) -> np.ndarray:
    """Evaluate the network on one input, returning the flattened output."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != spec.input_shape:
        raise ValueError(f"input shape {x.shape} != spec input {spec.input_shape}")
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, ConvLayer):
            if layer.weights is None:
                raise ValueError(f"layer {i}: conv layer has no weights")
            try:
                x = conv_multichannel(layer.weights, x, layer.stride)
            except ValueError as e:
                raise ValueError(f"layer {i}: {e}") from None
        elif isinstance(layer, ActivationLayer):
            x = ACTIVATIONS[layer.function](x)
        elif isinstance(layer, FullyConnectedLayer):
            if layer.weights is None:
                raise ValueError(f"layer {i}: fully connected layer has no weights")
            v = x.ravel()
            if layer.input_permutation is not None:
                v = v[np.asarray(layer.input_permutation, dtype=np.int64)]
            if layer.weights.shape[1] != v.size:
                raise ValueError(
                    f"layer {i}: weight columns {layer.weights.shape[1]} != "
                    f"flattened input {v.size}"
                )
            x = layer.weights @ v
        else:
            raise ValueError(f"layer {i}: unsupported layer kind {type(layer).__name__}")
    return np.asarray(x, dtype=np.float64).ravel()


def init_params(spec: NetworkSpec, seed: int) -> NetworkSpec:
    """Fill every parameterized layer with seeded uniform(-1, 1) weights."""
    rng = np.random.default_rng(seed)
    layers = []
    for layer, (_, _, wshape) in zip(spec.layers, _walk(spec)):
        if wshape is not None:
            layer = replace(layer, weights=rng.uniform(-1.0, 1.0, wshape))
        layers.append(layer)
    return replace(spec, layers=tuple(layers))


@dataclass(frozen=True)
class LayerSharing:
    """Parameter bookkeeping for one transformed layer."""

    layer_index: int
    kind: str
    original_count: int
    stored_volume: int
    distinct_sources: int
    padding_zeros: int
    replication: int  # non-padding stored volume / original count

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def parameter_report(
    original: NetworkSpec, transformed: NetworkSpec, trace: dict
) -> list[LayerSharing]:
    """Per-layer sharing report derived from the transform's source trace.

    trace is TransformResult.sources: it maps conv layer index -> integer
    array, same shape as the transformed layer's weights, holding the flat
    index of the original weight each stored value was copied from (-1
    marks a padding zero).
    Raises if the transformed architecture is not the one the trace
    describes (another layer count, or a parameterized layer whose walked
    weight shape is not its trace's shape, or the original's for a dense
    layer), or if any transformed layer stores more or fewer distinct
    originals than the source layer has parameters.
    """
    tplan = list(_walk(transformed))
    if len(tplan) != len(original.layers):
        raise ValueError(
            f"transformed network has {len(tplan)} layers, original has "
            f"{len(original.layers)}"
        )
    rows = []
    for i, (layer, (_, _, wshape), (_, _, tshape)) in enumerate(
        zip(original.layers, _walk(original), tplan)
    ):
        if wshape is None:
            continue
        want = trace[i].shape if isinstance(layer, ConvLayer) else wshape
        if tshape != want:
            raise ValueError(f"layer {i}: transformed weight shape {tshape} != expected {want}")
        orig = int(np.prod(wshape))
        if isinstance(layer, ConvLayer):
            sources = trace[i]
            stored = int(sources.size)
            padding = int((sources < 0).sum())
            distinct = int(np.unique(sources[sources >= 0]).size)
            if distinct != orig:
                raise ValueError(
                    f"layer {i}: {distinct} distinct sources != {orig} original parameters"
                )
            if (stored - padding) % orig != 0:
                raise ValueError(f"layer {i}: non-padding volume not a multiple of {orig}")
            rows.append(
                LayerSharing(i, "conv", orig, stored, distinct, padding,
                             (stored - padding) // orig)
            )
        else:
            rows.append(LayerSharing(i, "fully_connected", orig, orig, orig, 0, 1))
    return rows


@dataclass(frozen=True)
class EquivalenceReport:
    trials: int
    deviations: tuple[float, ...]
    tolerance: float
    max_abs_dev: float
    passed: bool

    @classmethod
    def from_deviations(cls, deviations, tolerance: float) -> "EquivalenceReport":
        devs = tuple(float(d) for d in deviations)
        # np.max propagates NaN wherever it sits; the builtin max does not
        worst = float(np.max(devs))
        passed = bool(np.isfinite(devs).all()) and worst <= tolerance
        return cls(len(devs), devs, float(tolerance), worst, passed)

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "max_abs_dev": self.max_abs_dev,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "deviations": list(self.deviations),
        }


def verify_equivalence(
    original: NetworkSpec,
    transformed: NetworkSpec,
    input_map,
    trials: int = 100,
    tol: float = 1e-9,
    seed: int = 0,
) -> EquivalenceReport:
    """Compare forward passes of an original network and its stride-free
    rewrite on seeded random inputs, bridging with reshape_input."""
    from .transform import reshape_input  # deferred, transform imports this module

    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    devs = []
    for _ in range(trials):
        x = rng.standard_normal(original.input_shape)
        y_orig = forward(original, x)
        y_tram = forward(transformed, reshape_input(x, input_map))
        if y_orig.shape != y_tram.shape:
            raise ValueError(
                f"output sizes differ: {y_orig.shape} vs {y_tram.shape}"
            )
        devs.append(float(np.max(np.abs(y_orig - y_tram))))
    return EquivalenceReport.from_deviations(devs, tol)
