"""Rewrite strided all-convolutional networks into equivalent stride-1 networks.

The core idea: sampling the output of a strided convolution on a regular grid
equals a sum of stride-1 convolutions between sampled pieces of the filter and
sampled pieces of the image.  Applying that identity backward through a network
replaces every strided layer with a wider stride-1 layer whose weights are
copies of the original ones, so both networks compute the same function.
"""

from .convolution import conv_multichannel
from .network import (
    ActivationLayer,
    ConvLayer,
    EquivalenceReport,
    FullyConnectedLayer,
    LayerSharing,
    NetworkSpec,
    RaggedSamplingError,
    forward,
    infer_shapes,
    init_params,
    parameter_report,
    verify_equivalence,
)
from .selftest import PropertyResult, format_report, run_selftest
from .specio import (
    SCHEMA_VERSION,
    SpecDocument,
    SpecFormatError,
    TransformMetadata,
    load_document,
    save_document,
)
from .transform import (
    ChannelMap,
    TransformResult,
    reshape_input,
    transform_network,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationLayer",
    "ChannelMap",
    "ConvLayer",
    "EquivalenceReport",
    "FullyConnectedLayer",
    "LayerSharing",
    "NetworkSpec",
    "PropertyResult",
    "RaggedSamplingError",
    "SCHEMA_VERSION",
    "SpecDocument",
    "SpecFormatError",
    "TransformMetadata",
    "TransformResult",
    "conv_multichannel",
    "format_report",
    "forward",
    "infer_shapes",
    "init_params",
    "load_document",
    "parameter_report",
    "reshape_input",
    "run_selftest",
    "save_document",
    "transform_network",
    "verify_equivalence",
]
