"""Rewrite strided all-convolutional networks into equivalent stride-1 networks.

The core idea: sampling the output of a strided convolution on a regular grid
equals a sum of stride-1 convolutions between sampled pieces of the filter and
sampled pieces of the image.  Applying that identity backward through a network
replaces every strided layer with a wider stride-1 layer whose weights are
copies of the original ones, so both networks compute the same function.
"""

from .convolution import (
    build_conv_tensor,
    conv2d,
    conv2d_strided,
    conv_multichannel,
    extract_filter,
    is_conv_tensor,
)
from .network import (
    ActivationLayer,
    ConvLayer,
    EquivalenceReport,
    FullyConnectedLayer,
    LayerSharing,
    NetworkSpec,
    forward,
    infer_shapes,
    init_params,
    parameter_report,
    verify_equivalence,
)
from .sampling import (
    RaggedSamplingError,
    SamplingSpec,
    compose_sampling,
    partition_cover_check,
    sample_matrix,
    sample_tensor,
    zero_pad,
)
from .selftest import PROPERTY_NAMES, PropertyResult, format_report, run_selftest
from .specio import (
    SCHEMA_VERSION,
    SpecDocument,
    SpecFormatError,
    TransformMetadata,
    load_document,
    save_document,
)
from .tensors import tensor_product
from .transform import (
    ChannelMap,
    TransformResult,
    destride_layer,
    reshape_input,
    sampled_conv_identity,
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
    "PROPERTY_NAMES",
    "PropertyResult",
    "RaggedSamplingError",
    "SCHEMA_VERSION",
    "SamplingSpec",
    "SpecDocument",
    "SpecFormatError",
    "TransformMetadata",
    "TransformResult",
    "build_conv_tensor",
    "compose_sampling",
    "conv2d",
    "conv2d_strided",
    "conv_multichannel",
    "destride_layer",
    "extract_filter",
    "format_report",
    "forward",
    "infer_shapes",
    "init_params",
    "is_conv_tensor",
    "load_document",
    "parameter_report",
    "partition_cover_check",
    "reshape_input",
    "run_selftest",
    "sample_matrix",
    "sample_tensor",
    "sampled_conv_identity",
    "save_document",
    "tensor_product",
    "transform_network",
    "verify_equivalence",
    "zero_pad",
]
