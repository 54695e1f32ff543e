"""Network specifications, shape inference, and the forward evaluator.

A network is an input shape plus an ordered tuple of layers: convolutions
(valid mode, strided, no bias), elementwise activations, and fully connected
layers applied to the flattened feature map (channel-major, then row, then
col).  Weights are optional so that architecture-only specs can be shaped,
transformed, and serialized; evaluation requires them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .convolution import Im2col
from .sampling import RaggedSamplingError
from .tensors import _integer

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
        # exact ints and an int tuple, as a document's reader passes them,
        # are already what _integer makes
        if not (type(self.channels_out) is type(self.stride) is int
                and type(self.kernel) is tuple and set(map(type, self.kernel)) <= {int}):
            object.__setattr__(self, "channels_out", _integer(self.channels_out, "channels_out"))
            object.__setattr__(self, "kernel", tuple(_integer(v, "kernel") for v in self.kernel))
            object.__setattr__(self, "stride", _integer(self.stride, "stride"))
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

    def __post_init__(self):
        if type(self.units) is not int:
            object.__setattr__(self, "units", _integer(self.units, "units"))
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
        # documents spell both as JSON strings, and the reader takes only those
        for field in ("name", "provenance"):
            if not isinstance(getattr(self, field), str):
                raise ValueError(f"{field} must be a str, got {getattr(self, field)!r}")
        if type(self.layers) is not tuple:
            object.__setattr__(self, "layers", tuple(self.layers))
        if not (type(self.input_shape) is tuple and set(map(type, self.input_shape)) <= {int}):
            object.__setattr__(
                self, "input_shape", tuple(_integer(v, "input_shape") for v in self.input_shape)
            )
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
    larger than its input, a stride that does not divide (dim - kernel), a
    convolution after the flatten, or weights of another shape than the
    layer declares.  This is the one walk of a network's shapes; every other
    reader takes its shapes from it.
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
            feats = math.prod(shape) if isinstance(shape, tuple) else shape
            out, wshape = layer.units, (layer.units, feats)
        else:
            raise ValueError(f"layer {i}: unsupported layer kind {type(layer).__name__}")
        weights = getattr(layer, "weights", None)
        # np.shape, so that nested-list weights are shape-checked too
        if weights is not None and np.shape(weights) != wshape:
            raise ValueError(f"layer {i}: weight shape {np.shape(weights)} != declared {wshape}")
        yield shape, out, wshape
        shape = out


def infer_shapes(spec: NetworkSpec) -> list:
    """Output shape after each layer: (channels, h, w) tuples, or a feature
    count once the network has flattened.  Also validates that declared
    weights match declared shapes."""
    return [out for _, out, _ in _walk(spec)]


def _forward_plan(spec: NetworkSpec) -> tuple:
    """How forward evaluates spec, worked out from its declared shapes by
    the walk infer_shapes takes: (steps, outputs).  steps holds (layer
    index, kind, argument) per layer: the Im2col geometry of a conv, the
    name of an activation, the feature count a dense layer reads.  outputs
    is the length of one input's flat output.  Holds no weight values and
    no functions, so that a spec that carries it still pickles.  A layer
    that infer_shapes refuses, or that has no weights, is a ValueError
    naming it."""
    steps = []
    out = spec.input_shape
    for i, (layer, (shape, out, wshape)) in enumerate(zip(spec.layers, _walk(spec))):
        if wshape is not None and layer.weights is None:
            kind = "conv" if isinstance(layer, ConvLayer) else "fully connected"
            raise ValueError(f"layer {i}: {kind} layer has no weights")
        if isinstance(layer, ConvLayer):
            steps.append((i, "conv", Im2col.of(wshape, shape, layer.stride)))
        elif isinstance(layer, ActivationLayer):
            steps.append((i, "activation", layer.function))
        else:
            steps.append((i, "dense", wshape[1]))
    return tuple(steps), math.prod(out) if isinstance(out, tuple) else out


def forward(spec: NetworkSpec, x) -> np.ndarray:
    """Evaluate the network on one input (c, h, w), returning the flattened
    output, or on a batch (N, c, h, w), returning (N, outputs).

    The first call on a spec plans its evaluation: each conv's im2col
    geometry, each dense layer's feature count, each activation's name,
    from the declared shapes through the walk infer_shapes takes, so it
    refuses what infer_shapes refuses.  The plan is cached privately on the
    spec, which is frozen, so later calls check only the input's rank and
    shape.  Weights are read at every call: changing them in place changes
    the next output."""
    # C-ordered once here, so every conv's window view can lie over its input
    x = np.asarray(x, dtype=np.float64, order="C")
    if x.ndim not in (3, 4):
        raise ValueError(
            f"input must be (channels, h, w) or (batch, channels, h, w), got rank {x.ndim}"
        )
    # the leading axes, () for one input or (N,) for a batch, ride through
    batch = x.shape[:-3]
    if x.shape[-3:] != spec.input_shape:
        what = "batch item shape" if batch else "input shape"
        raise ValueError(f"{what} {x.shape[-3:]} != spec input {spec.input_shape}")
    plan = vars(spec).get("_forward_plan")
    if plan is None:
        plan = _forward_plan(spec)
        object.__setattr__(spec, "_forward_plan", plan)
    steps, outputs = plan
    layers = spec.layers
    for i, kind, arg in steps:
        if kind == "conv":
            x = arg.apply(layers[i].weights, x, batch)
        elif kind == "activation":
            x = ACTIVATIONS[arg](x)
        else:
            # reshape cannot infer a -1 width from an empty batch
            x = x.reshape(*batch, arg) @ layers[i].weights.T
    return x.reshape(*batch, outputs)


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


def parameter_report(original: NetworkSpec, sources: dict) -> list[LayerSharing]:
    """Per-layer sharing report of the rewrite of original, from its source
    maps alone.

    sources is TransformResult.sources: it maps conv layer index -> integer
    array, same shape as the transformed layer's weights, holding the flat
    index of the original weight each stored value was copied from (-1
    marks a padding zero).  Whether a document holds that rewrite is the
    caller's check.
    """
    rows = []
    for i, (layer, (_, _, wshape)) in enumerate(zip(original.layers, _walk(original))):
        if wshape is None:
            continue
        orig = math.prod(wshape)
        if isinstance(layer, ConvLayer):
            # bin 0 counts the padding zeros (-1), bin j + 1 the copies of j
            counts = np.bincount(sources[i].reshape(-1) + 1)
            stored = int(sources[i].size)
            padding = int(counts[0])
            distinct = int(np.count_nonzero(counts[1:]))
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
    rewrite on seeded random inputs, bridging with reshape_input.  All trials
    are evaluated as one batch per network; the deviation of a trial is the
    largest absolute difference of its outputs."""
    from .transform import reshape_input  # deferred, transform imports this module

    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    # a NaN, negative or infinite tolerance would fix the verdict in advance
    if not 0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and at least 0, got {tol}")
    # one draw of all trials gives the same inputs as one draw per trial
    x = np.random.default_rng(seed).standard_normal((trials,) + original.input_shape)
    y_orig = forward(original, x)
    y_tram = forward(transformed, reshape_input(x, input_map))
    if y_orig.shape != y_tram.shape:
        raise ValueError(f"output sizes differ: {y_orig.shape[1:]} vs {y_tram.shape[1:]}")
    return EquivalenceReport.from_deviations(np.max(np.abs(y_orig - y_tram), axis=1), tol)
