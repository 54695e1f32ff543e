import json
import pickle
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from destride import (
    ActivationLayer,
    ConvLayer,
    EquivalenceReport,
    FullyConnectedLayer,
    NetworkSpec,
    RaggedSamplingError,
    SpecFormatError,
    forward,
    infer_shapes,
    init_params,
    load_document,
    parameter_report,
    reshape_input,
    transform_network,
    verify_equivalence,
)

from oracles import layerwise_forward, multichannel_forward, verify_loop
from test_transform import _random_net

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _lenet():
    return NetworkSpec(
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
    )


def test_infer_shapes_lenet_chain():
    assert infer_shapes(_lenet()) == [
        (20, 24, 24),
        (20, 24, 24),
        (20, 12, 12),
        (50, 8, 8),
        (50, 8, 8),
        (50, 4, 4),
        500,
        500,
    ]


def test_infer_shapes_kernel_too_large():
    spec = NetworkSpec("x", (1, 4, 4), (ConvLayer(1, (5, 5), 1),))
    with pytest.raises(ValueError, match="layer 0"):
        infer_shapes(spec)


def test_infer_shapes_ragged_stride():
    spec = NetworkSpec("x", (1, 6, 6), (ConvLayer(1, (3, 3), 2),))
    with pytest.raises(RaggedSamplingError, match="layer 0"):
        infer_shapes(spec)


def test_infer_shapes_rejects_conv_after_flatten():
    spec = NetworkSpec(
        "x", (1, 4, 4), (FullyConnectedLayer(3), ConvLayer(1, (1, 1), 1))
    )
    with pytest.raises(ValueError, match="layer 1"):
        infer_shapes(spec)


def test_infer_shapes_refuses_layers_beyond_numpy_by_index():
    most = np.iinfo(np.intp).max
    # exactly the largest size numpy holds, as weights and as outputs
    assert infer_shapes(NetworkSpec("x", (1, 1, 1), (FullyConnectedLayer(most),))) == [most]
    refused = [
        ((1, 1, 1), (ActivationLayer(), FullyConnectedLayer(most + 1))),  # both
        ((1, 2, 1), (ActivationLayer(), FullyConnectedLayer(most // 2 + 1))),  # weights
        ((1, 2**16, 2**16), (ActivationLayer(), ConvLayer(2**32, (1, 1)))),  # outputs
        ((2**32, 2, 1), (ConvLayer(2**31, (2, 1)),)),  # weights of a conv
    ]
    for shape, layers in refused:
        spec = NetworkSpec("x", shape, layers)
        with pytest.raises(ValueError, match=rf"^layer {len(layers) - 1}: .*\({most}\)$"):
            infer_shapes(spec)
    with pytest.raises(ValueError, match="input shape"):
        infer_shapes(NetworkSpec("x", (1, 2**32, 2**32), (ActivationLayer(),)))


def test_infer_shapes_checks_weight_shapes():
    bad_conv = NetworkSpec(
        "x", (2, 4, 4), (ConvLayer(3, (2, 2), 1, weights=np.zeros((3, 1, 2, 2))),)
    )
    with pytest.raises(ValueError, match="weight shape"):
        infer_shapes(bad_conv)
    bad_fc = NetworkSpec(
        "x", (1, 2, 2), (FullyConnectedLayer(3, weights=np.zeros((3, 5))),)
    )
    with pytest.raises(ValueError, match="weight shape"):
        infer_shapes(bad_fc)


def test_every_walk_reads_weight_shapes_with_np_shape():
    spec = init_params(
        NetworkSpec("l", (1, 4, 4), (ConvLayer(2, (2, 2), 2), FullyConnectedLayer(3))), seed=1
    )
    conv = spec.layers[0]
    listed = replace(spec, layers=(replace(conv, weights=conv.weights.tolist()), spec.layers[1]))
    assert infer_shapes(listed) == infer_shapes(spec) == [(2, 2, 2), 3]
    x = np.random.default_rng(46).standard_normal((2,) + spec.input_shape)
    assert np.array_equal(forward(listed, x), forward(spec, x))
    # weights of another shape are refused by every reader of the walk,
    # and init_params does not overwrite them
    bad = replace(spec, layers=(replace(conv, weights=np.zeros((2, 1, 1, 1))), spec.layers[1]))
    for check in (infer_shapes, transform_network, lambda net: init_params(net, seed=0),
                  lambda net: parameter_report(net, {}),
                  lambda net: forward(net, x)):
        with pytest.raises(ValueError, match=r"^layer 0: weight shape \(2, 1, 1, 1\) "
                                             r"!= declared \(2, 1, 2, 2\)$"):
            check(bad)


def test_layer_validation():
    with pytest.raises(ValueError):
        ConvLayer(0, (2, 2), 1)
    with pytest.raises(ValueError):
        ConvLayer(1, (2, 2), 0)
    with pytest.raises(ValueError):
        ActivationLayer("tanh")
    with pytest.raises(ValueError):
        FullyConnectedLayer(0)
    with pytest.raises(ValueError):
        NetworkSpec("x", (1, 4), ())


def test_conv_layer_kernel_coerced_to_ints():
    layer = ConvLayer(1, [3.0, 2.0], 1)
    assert layer.kernel == (3, 2)
    assert isinstance(layer.kernel[0], int)


def test_integer_fields_are_ints_or_refused_by_name():
    # ints, numpy integers and integral floats are stored as int
    conv = ConvLayer(np.int64(2), (np.int32(2), 2.0), 2.0)
    dense = FullyConnectedLayer(np.float64(3.0))
    spec = NetworkSpec("x", (np.int64(1), 4.0, 4), (conv, dense))
    fields = [conv.channels_out, *conv.kernel, conv.stride, dense.units, *spec.input_shape]
    assert fields == [2, 2, 2, 2, 3, 1, 4, 4]
    assert {type(v) for v in fields} == {int}
    assert infer_shapes(spec) == [(2, 2, 2), 3]
    assert all(type(v) is int for v in infer_shapes(spec)[0])
    assert transform_network(spec).network.input_shape == (4, 2, 2)
    # a fraction or a bool is refused, not truncated or read as 0/1
    for make, field in (
        (lambda: ConvLayer(2, (2.7, 2)), "kernel"),
        (lambda: ConvLayer(2, (2, True)), "kernel"),
        (lambda: ConvLayer(2, (2, 2), 2.5), "stride"),
        (lambda: ConvLayer(2, (2, 2), np.True_), "stride"),
        (lambda: ConvLayer(True, (2, 2)), "channels_out"),
        (lambda: ConvLayer(np.float64(1.5), (2, 2)), "channels_out"),
        (lambda: FullyConnectedLayer(True), "units"),
        (lambda: FullyConnectedLayer(3.5), "units"),
        (lambda: NetworkSpec("x", (1.5, 4, 4), ()), "input_shape"),
        (lambda: NetworkSpec("x", (1, False, 4), ()), "input_shape"),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            make()


def test_forward_matches_manual_evaluation():
    r = np.random.default_rng(40)
    spec = init_params(
        NetworkSpec(
            "tiny",
            (2, 5, 5),
            (ConvLayer(3, (2, 2), 1), ActivationLayer("relu"),
             ConvLayer(2, (2, 2), 2), FullyConnectedLayer(4)),
        ),
        seed=8,
    )
    x = r.standard_normal((2, 5, 5))
    w0 = spec.layers[0].weights
    w2 = spec.layers[2].weights
    w3 = spec.layers[3].weights
    a = multichannel_forward(w0, x, 1)
    a = np.maximum(a, 0.0)
    a = multichannel_forward(w2, a, 2)
    want = w3 @ a.ravel()
    assert np.allclose(forward(spec, x), want, atol=1e-12)


def test_forward_identity_conv_flattens_input():
    # a single 1x1 identity convolution leaves the image untouched
    spec = NetworkSpec(
        "id", (1, 3, 3), (ConvLayer(1, (1, 1), 1, weights=np.ones((1, 1, 1, 1))),)
    )
    r = np.random.default_rng(41)
    x = r.standard_normal((1, 3, 3))
    assert np.array_equal(forward(spec, x), x.ravel())


def test_forward_relu_clamps_all_negative_responses():
    spec = NetworkSpec(
        "neg",
        (1, 2, 2),
        (
            ConvLayer(1, (1, 1), 1, weights=-np.ones((1, 1, 1, 1))),
            ActivationLayer("relu"),
        ),
    )
    x = np.abs(np.random.default_rng(42).standard_normal((1, 2, 2))) + 0.1
    assert np.array_equal(forward(spec, x), np.zeros(4))


def test_forward_applies_input_permutation(tmp_path):
    # a dense layer whose column j reads flat element perm[j] holds the
    # permutation in its weight columns; documents no longer spell it as a
    # dense input_permutation, which earlier versions folded in at load
    assert [f.name for f in fields(FullyConnectedLayer)] == ["units", "weights"]
    perm, w = [2, 0, 1], np.array([1.0, 10.0, 100.0])
    folded = np.zeros((1, 3))
    folded[0, perm] = w
    assert np.array_equal(folded, [[10.0, 100.0, 1.0]])
    spec = NetworkSpec("p", (3, 1, 1), (FullyConnectedLayer(1, weights=folded),))
    out = forward(spec, np.array([5.0, 7.0, 11.0]).reshape(3, 1, 1))
    assert out[0] == 1.0 * 11.0 + 10.0 * 5.0 + 100.0 * 7.0
    layer = {"kind": "fully_connected", "units": 1, "input_permutation": perm}
    raw = {
        "schema_version": 1,
        "network": {"name": "p", "input_shape": [3, 1, 1], "layers": [layer]},
        "weights": {"mode": "inline", "arrays": {"0": w.tolist()}},
    }
    p = tmp_path / "p.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(SpecFormatError, match="layer 0 .*'input_permutation'"):
        load_document(p)


def test_forward_requires_weights():
    spec = NetworkSpec("x", (1, 4, 4), (ConvLayer(1, (2, 2), 1),))
    with pytest.raises(ValueError, match="no weights"):
        forward(spec, np.zeros((1, 4, 4)))


def test_forward_validates_input_shape():
    spec = init_params(NetworkSpec("x", (1, 4, 4), (FullyConnectedLayer(2),)), seed=0)
    with pytest.raises(ValueError, match="input shape"):
        forward(spec, np.zeros((1, 5, 4)))


def test_forward_batch_shapes_and_rejections():
    spec = init_params(
        NetworkSpec("b", (2, 6, 6), (ConvLayer(3, (2, 2), 2), ActivationLayer("relu"))),
        seed=4,
    )
    x = np.random.default_rng(43).standard_normal((5, 2, 6, 6))
    assert forward(spec, x).shape == (5, 27)
    assert forward(spec, x[:1]).shape == (1, 27)
    assert forward(spec, x[2]).shape == (27,)
    for bad in (x[None], x[0, 0]):
        with pytest.raises(ValueError, match="rank"):
            forward(spec, bad)
    with pytest.raises(ValueError, match=r"\(1, 6, 6\) != spec input \(2, 6, 6\)"):
        forward(spec, x[:, :1])


def _with_weights(spec, change):
    """spec with change applied to every weight array."""
    return replace(spec, layers=tuple(
        replace(l, weights=change(l.weights)) if getattr(l, "weights", None) is not None else l
        for l in spec.layers
    ))


def test_forward_equals_the_layerwise_loop():
    # bit for bit the loop that worked every layer out at every call.  41
    # items go through LeNet's first conv in 21 slices, its column matrix
    # holding 18x its input, and 4 items go in slices through every conv
    # whose column matrix is more than once its input
    specs = [init_params(load_document(FIXTURES / "lenet.json").network, seed=0)]
    specs += [init_params(_random_net(seed), seed=seed) for seed in range(40)]
    for seed, spec in enumerate(specs):
        result = transform_network(spec)
        x = np.random.default_rng(seed).standard_normal((41,) + spec.input_shape)
        for net, xs in ((spec, x), (result.network, reshape_input(x, result.input_map))):
            inputs = [xs[0], xs[:4], xs[:0], xs, np.rint(4 * xs[:4]).astype(np.int64),
                      np.asfortranarray(xs[:4]), xs[:4, :, ::-1]]
            for xin in inputs:
                assert np.array_equal(forward(net, xin), layerwise_forward(net, xin)), net.name
            for change in (lambda w: np.rint(4 * w).astype(np.int64), np.asfortranarray,
                           lambda w: w[..., ::-1].copy()[..., ::-1]):
                other = _with_weights(net, change)
                for xin in (xs[0], xs[:4]):
                    assert np.array_equal(forward(other, xin), layerwise_forward(other, xin))


def test_forward_plan_holds_one_index_per_conv():
    # each conv's plan holds one item's gather index, as many entries as one
    # item's column matrix; a 1x1 stride-1 conv holds none
    spec = init_params(load_document(FIXTURES / "lenet.json").network, seed=0)
    result = transform_network(spec)
    x = np.random.default_rng(46).standard_normal(spec.input_shape)
    counts = []
    for net, xin in ((spec, x), (result.network, reshape_input(x, result.input_map))):
        forward(net, xin)
        steps, _ = vars(net)["_forward_plan"]
        convs = [plan for _, kind, plan in steps if kind == "conv"]
        assert len(convs) == sum(isinstance(l, ConvLayer) for l in net.layers)
        counts.append([0 if p._gather is None else p._gather.size for p in convs])
    assert counts == [[14_400, 11_520, 32_000, 3_200], [2_304, 0, 11_520, 0]]
    assert [sum(c) for c in counts] == [61_120, 13_824]


def test_forward_plan_reads_weights_at_every_call_and_stays_private():
    spec = init_params(
        NetworkSpec("p", (2, 9, 8), (ConvLayer(3, (3, 2), 2), ActivationLayer("relu"),
                                     ConvLayer(2, (2, 3), 1), FullyConnectedLayer(3))),
        seed=6,
    )
    x = np.random.default_rng(44).standard_normal((5,) + spec.input_shape)
    plain = repr(spec)
    first = forward(spec, x)
    assert repr(spec) == plain
    assert [f.name for f in fields(NetworkSpec)] == ["name", "input_shape", "layers", "provenance"]
    cached = [k for k in vars(spec) if k not in ("name", "input_shape", "layers", "provenance")]
    assert cached and all(k.startswith("_") for k in cached)
    # weights changed in place change the next output, as on a fresh spec
    before = first
    for i in (0, 2, 3):
        spec.layers[i].weights[0] *= -2.0
        y = forward(spec, x)
        assert not np.array_equal(y, before), i
        assert np.array_equal(y, forward(replace(spec), x))
        assert np.array_equal(y, layerwise_forward(spec, x))
        before = y
    # copies get their own plan: new weights, and a larger input
    other = init_params(spec, seed=7)
    assert np.array_equal(forward(other, x), layerwise_forward(other, x))
    assert np.array_equal(forward(spec, x), before)
    convs = replace(spec, layers=spec.layers[:3])
    wider = replace(convs, input_shape=(2, 11, 12))
    xw = np.random.default_rng(45).standard_normal((3,) + wider.input_shape)
    assert forward(convs, x).shape == (5, 2 * 3 * 2)
    assert forward(wider, xw).shape == (3, 2 * 4 * 4)
    assert np.array_equal(forward(wider, xw), layerwise_forward(wider, xw))
    # the plan holds no functions (ACTIVATIONS holds lambdas), so a spec
    # that carries one still pickles, and its copy computes the same bits
    again = pickle.loads(pickle.dumps(spec))
    assert np.array_equal(forward(again, x), forward(spec, x))
    assert np.array_equal(forward(again, x[0]), forward(spec, x[0]))


def test_forward_errors_name_the_layer_at_every_call():
    ones = np.ones
    cases = [
        (NetworkSpec("w", (1, 4, 4), (ConvLayer(1, (2, 2), 1),)),
         "layer 0: conv layer has no weights"),
        (NetworkSpec("d", (1, 4, 4), (ActivationLayer("relu"), FullyConnectedLayer(2))),
         "layer 1: fully connected layer has no weights"),
        (NetworkSpec("c", (2, 4, 4), (ConvLayer(1, (2, 2), 1, weights=ones((1, 3, 2, 2))),)),
         "layer 0: weight shape (1, 3, 2, 2) != declared (1, 2, 2, 2)"),
        (NetworkSpec("k", (1, 4, 4), (ActivationLayer("relu"),
                                      ConvLayer(1, (5, 5), 1, weights=ones((1, 1, 5, 5))))),
         "layer 1: kernel height 5 larger than input 4"),
        (NetworkSpec("f", (1, 4, 4), (ConvLayer(1, (2, 2), 1, weights=ones((1, 1, 2, 2))),
                                      FullyConnectedLayer(2, weights=ones((2, 16))))),
         "layer 1: weight shape (2, 16) != declared (2, 9)"),
        # weights of a smaller kernel than declared, and a stride that does
        # not divide (dim - kernel), are refused, not run with 16 or 4 outputs
        (NetworkSpec("s", (1, 5, 5), (ConvLayer(1, (3, 3), 1, weights=ones((1, 1, 2, 2))),)),
         "layer 0: weight shape (1, 1, 2, 2) != declared (1, 1, 3, 3)"),
        (NetworkSpec("r", (1, 5, 5), (ConvLayer(1, (2, 2), 2, weights=ones((1, 1, 2, 2))),)),
         "layer 0: (5 - 2) not divisible by stride 2"),
        (NetworkSpec("a", (1, 2, 2), (FullyConnectedLayer(4, weights=ones((4, 4))),
                                      ConvLayer(1, (1, 1), 1, weights=ones((1, 1, 1, 1))))),
         "layer 1: conv after flatten is not supported"),
    ]
    for spec, message in cases:
        for x in (np.zeros(spec.input_shape), np.zeros((3,) + spec.input_shape)):
            for _ in range(2):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as e:
                    forward(spec, x)
        # what infer_shapes refuses, forward refuses with the same error
        if "no weights" not in message:
            with pytest.raises(type(e.value), match=f"^{re.escape(message)}$") as again:
                infer_shapes(spec)
            assert type(again.value) is type(e.value)


def test_init_params_deterministic_and_bounded():
    a = init_params(_lenet(), seed=5)
    b = init_params(_lenet(), seed=5)
    c = init_params(_lenet(), seed=6)
    for la, lb in zip(a.layers, b.layers):
        if getattr(la, "weights", None) is not None:
            assert np.array_equal(la.weights, lb.weights)
            assert np.abs(la.weights).max() < 1.0
    assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)


def test_verify_equivalence_pass_and_fail():
    spec = init_params(
        NetworkSpec("v", (1, 6, 6), (ConvLayer(2, (2, 2), 2), FullyConnectedLayer(3))),
        seed=9,
    )
    result = transform_network(spec)
    report = verify_equivalence(spec, result.network, result.input_map,
                                trials=8, tol=1e-9, seed=1)
    assert report.passed
    assert report.trials == 8 and len(report.deviations) == 8
    assert report.max_abs_dev == max(report.deviations)

    # corrupt one transformed weight: deviations must blow past tolerance
    bad = result.network.layers[0].weights.copy()
    bad[0, 0, 0, 0] += 1.0
    broken = NetworkSpec(
        result.network.name,
        result.network.input_shape,
        tuple(
            ConvLayer(l.channels_out, l.kernel, l.stride, bad) if i == 0 else l
            for i, l in enumerate(result.network.layers)
        ),
        provenance=result.network.provenance,
    )
    report = verify_equivalence(spec, broken, result.input_map,
                                trials=8, tol=1e-9, seed=1)
    assert not report.passed
    assert report.max_abs_dev > 1e-9


def test_verify_equivalence_zero_weight_networks():
    # both networks map everything to zero, so the deviation is exactly zero
    spec = NetworkSpec(
        "z",
        (1, 4, 4),
        (
            ConvLayer(1, (2, 2), 2, weights=np.zeros((1, 1, 2, 2))),
            FullyConnectedLayer(3, weights=np.zeros((3, 4))),
        ),
    )
    result = transform_network(spec)
    report = verify_equivalence(spec, result.network, result.input_map,
                                trials=5, tol=1e-9, seed=3)
    assert report.passed
    assert report.max_abs_dev == 0.0


def test_verify_equivalence_draws_the_per_trial_inputs():
    spec = init_params(
        NetworkSpec("v", (1, 6, 6), (ConvLayer(2, (2, 2), 2), ActivationLayer("relu"),
                                     FullyConnectedLayer(3))),
        seed=12,
    )
    rng = np.random.default_rng(7)
    batch = np.random.default_rng(7).standard_normal((6,) + spec.input_shape)
    assert np.array_equal(batch, [rng.standard_normal(spec.input_shape) for _ in range(6)])
    # a broken rewrite deviates by a different O(1) amount on every input, so
    # equal deviations mean the same inputs in the same order
    result = transform_network(spec)
    layers = list(result.network.layers)
    bad = layers[0].weights.copy()
    bad[0, 0, 0, 0] += 1.0
    layers[0] = ConvLayer(layers[0].channels_out, layers[0].kernel, 1, bad)
    broken = NetworkSpec(result.network.name, result.network.input_shape, tuple(layers))
    m = result.input_map
    want = verify_loop(spec, broken, m.entries, m.stride, trials=6, seed=7)
    got = verify_equivalence(spec, broken, m, trials=6, tol=1e-9, seed=7).deviations
    assert min(want) > 1e-3
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_verify_equivalence_fails_when_some_trials_are_not_finite():
    # a -inf dense weight (documents may carry -Infinity) behind a ReLU: where
    # the unit is on, both networks give -inf, clamped to 0 by the last ReLU,
    # so the trial deviates by exactly 0; where it is off, -inf * 0 is NaN
    spec = init_params(
        NetworkSpec("v", (1, 6, 6), (ConvLayer(2, (2, 2), 2), ActivationLayer("relu"),
                                     FullyConnectedLayer(1), ActivationLayer("relu"))),
        seed=14,
    )
    spec.layers[2].weights[0, 0] = -np.inf
    result = transform_network(spec)
    with np.errstate(invalid="ignore"):
        report = verify_equivalence(spec, result.network, result.input_map,
                                    trials=20, tol=1e-9, seed=2)
    devs = np.array(report.deviations)
    assert (devs == 0.0).any() and np.isnan(devs).any()
    assert set(devs[~np.isnan(devs)]) == {0.0}
    assert not report.passed


def test_verify_equivalence_rejects_bad_trials():
    spec = init_params(
        NetworkSpec("v", (1, 4, 4), (ConvLayer(1, (2, 2), 2), FullyConnectedLayer(2))),
        seed=2,
    )
    result = transform_network(spec)
    with pytest.raises(ValueError, match="trials"):
        verify_equivalence(spec, result.network, result.input_map, trials=0)


def test_verify_equivalence_rejects_bad_tolerance():
    spec = init_params(
        NetworkSpec("v", (1, 4, 4), (ConvLayer(1, (2, 2), 2), FullyConnectedLayer(2))),
        seed=2,
    )
    result = transform_network(spec)
    for tol in (float("nan"), -1.0, float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="tolerance"):
            verify_equivalence(spec, result.network, result.input_map, trials=2, tol=tol)
    report = verify_equivalence(spec, result.network, result.input_map, trials=2, tol=0.0)
    assert report.tolerance == 0.0


def test_equivalence_report_from_deviations():
    rep = EquivalenceReport.from_deviations([1e-12, 5e-10, 2e-11], 1e-9)
    assert rep.trials == 3
    assert rep.max_abs_dev == 5e-10
    assert rep.passed
    d = rep.as_dict()
    assert d["passed"] is True and d["trials"] == 3
    assert not EquivalenceReport.from_deviations([2e-9], 1e-9).passed
    # a non-finite deviation fails wherever it sits, and is reported
    for devs in ([1e-12, float("nan")], [float("nan"), 1e-12]):
        rep = EquivalenceReport.from_deviations(devs, 1e-9)
        assert not rep.passed
        assert np.isnan(rep.max_abs_dev)
    rep = EquivalenceReport.from_deviations([1e-12, float("inf"), 2e-11], 1e-9)
    assert not rep.passed and rep.max_abs_dev == float("inf")


def test_parameter_report_frozen_lenet_rows():
    spec = _lenet()
    result = transform_network(spec)
    rows = parameter_report(spec, result.sources)
    table = [
        (r.layer_index, r.kind, r.original_count, r.stored_volume,
         r.padding_zeros, r.distinct_sources, r.replication)
        for r in rows
    ]
    assert table == [
        (0, "conv", 500, 20480, 12480, 500, 16),
        (2, "conv", 1600, 25600, 19200, 1600, 4),
        (3, "conv", 25000, 144000, 44000, 25000, 4),
        (5, "conv", 10000, 10000, 0, 10000, 1),
        (6, "fully_connected", 400000, 400000, 0, 400000, 1),
    ]


def test_parameter_report_stride1_all_ratios_one():
    spec = NetworkSpec(
        "flat", (2, 6, 6), (ConvLayer(3, (3, 3), 1), FullyConnectedLayer(4))
    )
    result = transform_network(spec)
    rows = parameter_report(spec, result.sources)
    assert all(r.replication == 1 and r.padding_zeros == 0 for r in rows)
    assert all(r.stored_volume == r.original_count for r in rows)


def test_parameter_report_single_strided_layer_stores_once():
    # a lone strided conv ends the stack, so its pieces are never replicated:
    # the rewrite stores exactly the original kernel values, just regrouped
    spec = NetworkSpec(
        "lone", (1, 4, 4), (ConvLayer(1, (2, 2), 2), FullyConnectedLayer(2))
    )
    result = transform_network(spec)
    rows = parameter_report(spec, result.sources)
    conv = rows[0]
    assert conv.kind == "conv"
    assert conv.original_count == 4
    assert conv.stored_volume == 4
    assert conv.replication == 1 and conv.padding_zeros == 0
