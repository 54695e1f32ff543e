"""Destriding a whole network and checking it did not change the function.

The transform walks the layer stack backwards, replacing every strided
convolution with a wider unit-stride one over regrouped channels. The
input image is regrouped the same way. The last convolution has output
multiplicity 1, so its feature map keeps the original flatten order and the
fully-connected layers are copied as they are: the rewritten network
computes exactly the same outputs.
"""

import numpy as np

from destride import (
    ActivationLayer,
    ConvLayer,
    FullyConnectedLayer,
    NetworkSpec,
    forward,
    infer_shapes,
    init_params,
    parameter_report,
    reshape_input,
    transform_network,
    verify_equivalence,
)

spec = init_params(
    NetworkSpec(
        "lenet-strided",
        (1, 28, 28),
        (
            ConvLayer(20, (5, 5), 1),
            ActivationLayer("relu"),
            ConvLayer(20, (2, 2), 2),
            ConvLayer(50, (5, 5), 1),
            ActivationLayer("relu"),
            ConvLayer(50, (2, 2), 2),
            FullyConnectedLayer(500),
            ActivationLayer("relu"),
        ),
    ),
    seed=0,
)

def describe(layer):
    if isinstance(layer, ConvLayer):
        kh, kw = layer.kernel
        return f"conv {layer.channels_out} @ {kh}x{kw} stride {layer.stride}"
    if isinstance(layer, ActivationLayer):
        return f"activation {layer.function}"
    return f"fully-connected {layer.units}"


print("original:", spec.input_shape)
for layer, shape in zip(spec.layers, infer_shapes(spec)):
    print("  ", describe(layer), "->", shape)

result = transform_network(spec)
net = result.network
print("\ntransformed:", net.input_shape)
for layer, shape in zip(net.layers, infer_shapes(net)):
    print("  ", describe(layer), "->", shape)
strides = [l.stride for l in net.layers if isinstance(l, ConvLayer)]
print("conv strides after the rewrite:", strides)

# same function, checked on random inputs
report = verify_equivalence(spec, net, result.input_map, trials=20, tol=1e-9, seed=1)
print("\nequivalence over", report.trials, "random inputs:",
      "PASS" if report.passed else "FAIL")
print("max |original - transformed| =", report.max_abs_dev)

# one input followed by hand
r = np.random.default_rng(2)
x = r.standard_normal((1, 28, 28))
dev = np.abs(forward(spec, x) - forward(net, reshape_input(x, result.input_map))).max()
print("single input deviation:", dev)

# the price: transformed layers store the same weights many times over
rows = parameter_report(spec, result.sources)
print("\nlayer  kind              original    stored  replication")
for row in rows:
    print(f"{row.layer_index:>5}  {row.kind:<16} {row.original_count:>9} "
          f"{row.stored_volume:>9} {row.replication:>12}")
print("totals:", sum(r.original_count for r in rows), "original,",
      sum(r.stored_volume for r in rows), "stored")
