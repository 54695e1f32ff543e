import math
from pathlib import Path

import numpy as np
import pytest

from destride import (
    CHANNEL_ORDERS,
    ActivationLayer,
    ChannelMap,
    ConvLayer,
    FullyConnectedLayer,
    NetworkSpec,
    RaggedSamplingError,
    conv2d,
    destride_layer,
    forward,
    infer_shapes,
    init_params,
    load_document,
    reshape_input,
    sample_matrix,
    sampled_conv_identity,
    transform_network,
    verify_equivalence,
)

from oracles import slide_correlate_strided, source_map

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_destride_layer_frozen_row_example():
    h = np.array([[1.0, 2.0, 3.0, 4.0]])
    x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]])
    filters, channels = destride_layer(h, x, 2)
    # single row: only row offset 1 survives, leaving the two column grids
    assert len(filters) == 2
    assert np.array_equal(filters[0], [[1.0, 3.0]])
    assert np.array_equal(filters[1], [[2.0, 4.0]])
    assert np.array_equal(channels[0], [[1.0, 3.0, 5.0, 7.0]])
    assert np.array_equal(channels[1], [[2.0, 4.0, 6.0, 8.0]])
    total = sum(conv2d(g, xs) for g, xs in zip(filters, channels))
    assert np.array_equal(total, [[30.0, 50.0, 70.0]])


def test_destride_layer_piece_count_and_shapes():
    r = np.random.default_rng(20)
    for s in (1, 2, 3):
        x = r.standard_normal((4 * s, 2 * s))
        h = r.standard_normal((s + 1, s))
        filters, channels = destride_layer(h, x, s)
        assert len(filters) == s * s
        assert len({g.shape for g in filters}) == 1  # padded to a common shape
        assert len({xs.shape for xs in channels}) == 1


def test_destride_layer_reproduces_strided_conv():
    r = np.random.default_rng(21)
    for s in (1, 2, 3):
        for _ in range(35):
            c = s * int(r.integers(1, 5))
            d = s * int(r.integers(1, 5))
            a = int(r.integers(1, c + 1))
            b = int(r.integers(1, d + 1))
            h = r.standard_normal((a, b))
            x = r.standard_normal((c, d))
            filters, channels = destride_layer(h, x, s)
            total = sum(conv2d(g, xs) for g, xs in zip(filters, channels))
            want = slide_correlate_strided(h, x, s)
            assert np.max(np.abs(total - want)) <= 1e-12


def test_destride_layer_pieces_are_grid_samples():
    r = np.random.default_rng(22)
    s = 3
    h = r.standard_normal((4, 5))
    x = r.standard_normal((6, 9))
    filters, channels = destride_layer(h, x, s)
    i = 0
    for p in range(1, s + 1):
        for q in range(1, s + 1):
            piece = sample_matrix(h, (p, q, s))
            g = filters[i]
            assert np.array_equal(g[: piece.shape[0], : piece.shape[1]], piece)
            assert np.array_equal(channels[i], sample_matrix(x, (p, q, s)))
            i += 1


def test_destride_layer_unit_stride_is_identity_rewrite():
    r = np.random.default_rng(25)
    h = r.standard_normal((2, 3))
    x = r.standard_normal((4, 6))
    filters, channels = destride_layer(h, x, 1)
    assert len(filters) == 1 and len(channels) == 1
    assert np.array_equal(filters[0], h)
    assert np.array_equal(channels[0], x)


def test_destride_layer_ragged_image():
    with pytest.raises(RaggedSamplingError, match="rows 5"):
        destride_layer(np.ones((1, 1)), np.ones((5, 4)), 2)
    with pytest.raises(RaggedSamplingError, match="cols 7"):
        destride_layer(np.ones((1, 1)), np.ones((4, 7)), 2)


def test_sampled_conv_identity_all_offsets():
    r = np.random.default_rng(23)
    for s in (1, 2, 3):
        for _ in range(12):
            a = int(r.integers(1, 6))
            b = int(r.integers(1, 6))
            c = int(r.integers(a, a + 8))
            d = int(r.integers(b, b + 8))
            h = r.standard_normal((a, b))
            x = r.standard_normal((c, d))
            for m in range(1, s + 1):
                for n in range(1, s + 1):
                    lhs, rhs = sampled_conv_identity(h, x, m, n, s)
                    assert lhs.shape == rhs.shape
                    if lhs.size:
                        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_sampled_conv_identity_no_divisibility_requirement():
    # 9 is not divisible by 2; the identity still holds on the sampled grids
    r = np.random.default_rng(24)
    h = r.standard_normal((3, 3))
    x = r.standard_normal((9, 9))
    lhs, rhs = sampled_conv_identity(h, x, 2, 1, 2)
    assert lhs.size > 0
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_sampled_conv_identity_frozen_row_example():
    h = np.array([[1.0, 2.0, 3.0, 4.0]])
    x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]])
    lhs, rhs = sampled_conv_identity(h, x, 1, 1, 2)
    assert np.array_equal(lhs, [[30.0, 50.0, 70.0]])
    assert np.array_equal(rhs, lhs)


def test_sampled_conv_identity_trivial_spec_is_plain_conv():
    r = np.random.default_rng(29)
    h = r.standard_normal((2, 2))
    x = r.standard_normal((5, 6))
    lhs, rhs = sampled_conv_identity(h, x, 1, 1, 1)
    assert np.array_equal(lhs, conv2d(h, x))
    assert np.max(np.abs(rhs - lhs)) <= 1e-12


def test_channel_map_validates_bijection():
    ChannelMap(2, ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)))
    with pytest.raises(ValueError):
        ChannelMap(2, ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 1, 2)))  # duplicate
    with pytest.raises(ValueError):
        ChannelMap(2, ((1, 1, 1),))  # incomplete cover
    with pytest.raises(ValueError):
        ChannelMap(0, ((1, 1, 1),))


def test_channel_map_sampling_spec():
    cm = ChannelMap(2, ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)))
    assert cm.source_channels == 1
    assert len(cm) == 4
    # entry i names the (p, q, stride) grid sample of source channel k
    _, p, q = cm.entries[2]
    assert (p, q, cm.stride) == (2, 1, 2)


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


def test_transform_network_golden_architecture():
    spec = _lenet()
    result = transform_network(spec)
    net = result.network
    assert net.input_shape == (16, 7, 7)
    convs = [l for l in net.layers if isinstance(l, ConvLayer)]
    assert [(l.channels_out, l.kernel, l.stride) for l in convs] == [
        (320, (2, 2), 1),
        (80, (1, 1), 1),
        (200, (3, 3), 1),
        (50, (1, 1), 1),
    ]
    shapes = infer_shapes(net)
    assert shapes[0] == (320, 6, 6)
    assert shapes[2] == (80, 6, 6)
    assert shapes[3] == (200, 4, 4)
    assert shapes[5] == (50, 4, 4)
    assert shapes[6] == 500
    assert net.name == "lenet-strided-destrided"
    assert net.provenance == "transformed-from:lenet-strided"
    # the last conv has output multiplicity 1: the dense layer is copied as is
    assert net.layers[6] is spec.layers[6]
    assert sorted(result.sources) == [0, 2, 3, 5]
    assert len(result.input_map) == 16
    assert result.input_map.stride == 4


def test_transform_preserves_activation_layers():
    net = transform_network(_lenet()).network
    kinds = [type(l).__name__ for l in net.layers]
    assert kinds == [type(l).__name__ for l in _lenet().layers]


def test_single_conv_weights_are_sampled_pieces():
    # dual route: the transform's copied weights must equal independently
    # sampled filter pieces, padded bottom/right to the common piece shape
    spec = init_params(
        NetworkSpec(
            "one",
            (3, 8, 8),
            (ConvLayer(4, (4, 2), 2), FullyConnectedLayer(5)),
        ),
        seed=7,
    )
    result = transform_network(spec)
    w = spec.layers[0].weights
    tw = result.network.layers[0].weights
    assert tw.shape == (4, 12, 2, 1)
    for ii, (k, p, q) in enumerate(result.input_map.entries):
        for c in range(4):
            piece = sample_matrix(w[c, k - 1], (p, q, 2))
            want = np.zeros(tw.shape[2:])
            want[: piece.shape[0], : piece.shape[1]] = piece
            assert np.array_equal(tw[c, ii], want)


def test_reshape_input_matches_grid_samples():
    r = np.random.default_rng(26)
    x = r.standard_normal((2, 6, 6))
    cm = ChannelMap(2, tuple((k, p, q) for k in (1, 2) for p in (1, 2) for q in (1, 2)))
    out = reshape_input(x, cm)
    assert out.shape == (8, 3, 3)
    assert np.array_equal(out[0], x[0, 0::2, 0::2])
    assert np.array_equal(out[3], x[0, 1::2, 1::2])
    assert np.array_equal(out[5], x[1, 0::2, 1::2])


def test_reshape_input_unit_stride_is_identity():
    r = np.random.default_rng(30)
    x = r.standard_normal((3, 5, 5))
    cm = ChannelMap(1, tuple((k, 1, 1) for k in (1, 2, 3)))
    assert np.array_equal(reshape_input(x, cm), x)


def test_reshape_input_preserves_value_multiset():
    r = np.random.default_rng(31)
    x = r.standard_normal((1, 28, 28))
    cm = ChannelMap(4, tuple((1, p, q) for p in range(1, 5) for q in range(1, 5)))
    out = reshape_input(x, cm)
    assert out.shape == (16, 7, 7)
    assert np.array_equal(np.sort(out.ravel()), np.sort(x.ravel()))


def test_reshape_input_validations():
    cm = ChannelMap(2, tuple((1, p, q) for p in (1, 2) for q in (1, 2)))
    with pytest.raises(ValueError):
        reshape_input(np.ones((6, 6)), cm)
    with pytest.raises(ValueError):
        reshape_input(np.ones((2, 6, 6)), cm)
    with pytest.raises(ValueError):
        reshape_input(np.ones((1, 5, 6)), cm)


def test_transform_equivalence_small_nets():
    r = np.random.default_rng(27)
    cases = [
        NetworkSpec("a", (1, 8, 8), (ConvLayer(3, (3, 3), 1), ActivationLayer("relu"),
                                     ConvLayer(2, (2, 2), 2), FullyConnectedLayer(4))),
        NetworkSpec("b", (2, 9, 9), (ConvLayer(2, (3, 3), 3), FullyConnectedLayer(3))),
        NetworkSpec("c", (1, 12, 12), (ConvLayer(2, (2, 2), 2), ActivationLayer("relu"),
                                       ConvLayer(3, (2, 2), 1), ConvLayer(2, (3, 3), 1),
                                       FullyConnectedLayer(5), ActivationLayer("relu"))),
        NetworkSpec("d", (1, 6, 6), (ConvLayer(2, (6, 6), 1), FullyConnectedLayer(2))),
    ]
    for i, spec in enumerate(cases):
        spec = init_params(spec, seed=100 + i)
        result = transform_network(spec)
        report = verify_equivalence(spec, result.network, result.input_map,
                                    trials=10, tol=1e-9, seed=i)
        assert report.passed, report.max_abs_dev
        assert all(
            l.stride == 1 for l in result.network.layers if isinstance(l, ConvLayer)
        )


def test_transform_channel_orders_agree():
    spec = init_params(
        NetworkSpec("o", (2, 8, 8), (ConvLayer(3, (2, 2), 2), ActivationLayer("relu"),
                                     ConvLayer(2, (2, 2), 2), FullyConnectedLayer(4))),
        seed=11,
    )
    r = np.random.default_rng(28)
    x = r.standard_normal((2, 8, 8))
    y = forward(spec, x)
    for order in ("source-major", "grid-major"):
        result = transform_network(spec, channel_order=order)
        yt = forward(result.network, reshape_input(x, result.input_map))
        assert np.max(np.abs(y - yt)) <= 1e-9
    with pytest.raises(ValueError):
        transform_network(spec, channel_order="diagonal")


def test_transform_absorbs_existing_fc_permutation():
    # a network whose dense layer already reads its input permuted
    r = np.random.default_rng(29)
    feats = 2 * 3 * 3
    perm = tuple(int(v) for v in r.permutation(feats))
    spec = init_params(
        NetworkSpec(
            "permuted",
            (1, 6, 6),
            (ConvLayer(2, (2, 2), 2), FullyConnectedLayer(4, input_permutation=perm)),
        ),
        seed=13,
    )
    assert spec.layers[1].input_permutation == perm
    result = transform_network(spec)
    report = verify_equivalence(spec, result.network, result.input_map,
                                trials=10, tol=1e-9, seed=5)
    assert report.passed


def test_transform_divisibility_failure_names_layer():
    spec = NetworkSpec(
        "indivisible-28",
        (1, 28, 28),
        (ConvLayer(4, (5, 5), 1), ActivationLayer("relu"),
         ConvLayer(8, (3, 3), 3), FullyConnectedLayer(10)),
    )
    with pytest.raises(RaggedSamplingError, match="layer 0"):
        transform_network(spec)


def test_transform_stride1_network_is_structural_noop():
    spec = init_params(
        NetworkSpec("flat", (2, 5, 5), (ConvLayer(3, (2, 2), 1), FullyConnectedLayer(4))),
        seed=3,
    )
    result = transform_network(spec)
    net = result.network
    assert net.input_shape == spec.input_shape
    assert net.layers[0].kernel == (2, 2)
    assert net.layers[0].channels_out == 3
    assert np.array_equal(net.layers[0].weights, spec.layers[0].weights)
    assert result.input_map.stride == 1


def test_sharing_trace_reconstructs_weights():
    # every stored transformed weight is a copy of the original it points at;
    # checked elementwise on a seeded sample of positions per layer
    r = np.random.default_rng(30)
    spec = init_params(_lenet(), seed=1)
    result = transform_network(spec)
    for i, sources in result.sources.items():
        orig = spec.layers[i].weights.reshape(-1)
        got = result.network.layers[i].weights
        assert got.shape == sources.shape
        flat_positions = r.choice(sources.size, size=min(2000, sources.size), replace=False)
        for pos in flat_positions:
            idx = np.unravel_index(pos, sources.shape)
            src = sources[idx]
            want = 0.0 if src < 0 else orig[src]
            assert got[idx] == want


def test_sharing_trace_replication_counts():
    trace = transform_network(_lenet()).sources
    counts = {}
    for i, sources in trace.items():
        flat = sources[sources >= 0]
        vals, reps = np.unique(flat, return_counts=True)
        assert reps.min() == reps.max()  # every original weight copied equally
        counts[i] = int(reps[0])
    assert counts == {0: 16, 2: 4, 3: 4, 5: 1}


def _entries(channels, sigma, order):
    # (k, p, q), 1-based, in the order each channel layout enumerates them
    triples = [
        (k, p, q)
        for k in range(1, channels + 1)
        for p in range(1, sigma + 1)
        for q in range(1, sigma + 1)
    ]
    if order == "grid-major":
        triples.sort(key=lambda e: (e[1], e[2], e[0]))
    return triples


def _assert_sources_match_oracle(spec, sources, order):
    # channel counts and multiplicities tracked here, not read from the rewrite
    convs = [(i, l) for i, l in enumerate(spec.layers) if isinstance(l, ConvLayer)]
    sigma = math.prod(l.stride for _, l in convs)
    cin = spec.input_shape[0]
    assert sorted(sources) == [i for i, _ in convs]
    for i, layer in convs:
        want = source_map(
            cin, layer.kernel, layer.stride, sigma,
            _entries(layer.channels_out, sigma // layer.stride, order),
            _entries(cin, sigma, order),
        )
        assert sources[i].dtype == np.int64
        assert np.array_equal(sources[i], want), (i, order)
        cin, sigma = layer.channels_out, sigma // layer.stride


def _random_net(seed):
    """A random conv stack the rewrite accepts: depth 1-5, strides 1-4 with
    a cumulative stride up to 8, heights and widths drawn apart.  Sizes are
    chosen from the last conv backwards so that every conv input divides by
    its cumulative stride; each kernel is what the sizes then imply."""
    r = np.random.default_rng(seed)
    depth = int(r.integers(1, 6))
    strides = [int(r.integers(1, 5)) for _ in range(depth)]
    while math.prod(strides) > 8:
        strides = [int(r.integers(1, 5)) for _ in range(depth)]
    sigma_in = [math.prod(strides[i:]) for i in range(depth)]
    dims = []
    for _ in range(2):
        sizes = [int(r.integers(1, 4))]
        for i in reversed(range(depth)):
            least = strides[i] * (sizes[0] - 1) + 1
            sizes.insert(0, sigma_in[i] * (-(-least // sigma_in[i]) + int(r.integers(0, 2))))
        dims.append(sizes)
    chans = [int(r.integers(1, 4)) for _ in range(depth + 1)]
    layers = []
    for i in range(depth):
        kernel = tuple(d[i] - strides[i] * (d[i + 1] - 1) for d in dims)
        layers.append(ConvLayer(chans[i + 1], kernel, strides[i]))
        if r.random() < 0.5:
            layers.append(ActivationLayer("relu"))
    if r.random() < 0.5:
        layers.append(FullyConnectedLayer(int(r.integers(1, 5))))
    return NetworkSpec(f"random-{seed}", (chans[0], dims[0][0], dims[1][0]), layers)


def test_sources_match_oracle_on_lenet_fixture():
    spec = load_document(FIXTURES / "lenet.json").network
    for order in CHANNEL_ORDERS:
        _assert_sources_match_oracle(spec, transform_network(spec, order).sources, order)


@pytest.mark.parametrize("seed", range(40))
def test_sources_match_oracle_on_random_nets(seed):
    spec = init_params(_random_net(seed), seed=seed)
    for order in CHANNEL_ORDERS:
        result = transform_network(spec, order)
        _assert_sources_match_oracle(spec, result.sources, order)
        report = verify_equivalence(spec, result.network, result.input_map,
                                    trials=3, tol=1e-9, seed=seed)
        assert report.passed, report.max_abs_dev
