import gc
import json
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from destride import (
    ActivationLayer,
    ChannelMap,
    ConvLayer,
    FullyConnectedLayer,
    NetworkSpec,
    RaggedSamplingError,
    SpecDocument,
    SpecFormatError,
    conv_multichannel,
    forward,
    infer_shapes,
    init_params,
    load_document,
    reshape_input,
    save_document,
    transform_network,
    verify_equivalence,
)
from destride.selftest import _random_conv_stack
from destride.transform import _conv_sources, _piece_window, channel_entries

from lemmas import conv2d, destride_layer, sample_matrix, sampled_conv_identity
from oracles import (
    axis_offsets,
    einsum_forward,
    slide_correlate_strided,
    source_map,
    space_to_depth,
)

# batched im2col forward against one-input einsums: the summation order
# differs, so agreement is to this fraction of the largest output
REL_TOL = 1e-13

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


def test_destride_layer_stride_is_an_int_or_refused():
    r = np.random.default_rng(23)
    h, x = r.standard_normal((3, 2)), r.standard_normal((6, 4))
    filters, channels = destride_layer(h, x, 2)
    for stride in (2.0, np.int64(2)):
        got = destride_layer(h, x, stride)
        assert all(np.array_equal(a, b) for a, b in zip(got[0] + got[1], filters + channels))
    for stride in (2.5, True):
        with pytest.raises(ValueError, match=f"^stride must be an integer, got {stride!r}$"):
            destride_layer(h, x, stride)


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
        ChannelMap(2, ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 2, 2)))  # channel 2 partial
    with pytest.raises(ValueError):
        ChannelMap(2, ((0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2)))  # 0-based
    with pytest.raises(ValueError):
        ChannelMap(2, _entries(2, 2) + [(3, 1, 1)])  # not a multiple of 4
    # any order of a complete cover is a valid map
    ChannelMap(2, _entries(2, 2)[::-1])
    # the stride is an integer of at least 1 by the entries' exact-type rule
    for stride, entries in ((0, ((1, 1, 1),)), (2.0, _entries(1, 2)), (True, ((1, 1, 1),)),
                            (np.True_, ((1, 1, 1),))):
        with pytest.raises(ValueError, match="stride must be an integer"):
            ChannelMap(stride, entries)
    # each of these has a full-cover length, and is refused with one message
    for entries in (
        ((1, 1),),
        ((1, 1, 1, 1),),
        ((1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2, 1)),
        ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 3, 1)),  # p = stride + 1
        ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 1, 3)),  # q = stride + 1
        _entries(2, 2)[:-1] + [(3, 2, 2)],  # k = channels + 1
        ((2**70, 1, 1),),
        ((1.5, 1, 1),),  # not truncated to 1
        ((1.0, 1, 1),),
        ((True, 1, 1),),
        ((1, np.True_, 1),),
        # in source-major order, where an equality test with the map the
        # rewrite writes would pass them: 1.0 == 1 and True == 1
        _entries(2, 2)[:4] + [(2, 1, 1.0)] + _entries(2, 2)[5:],
        _entries(2, 2)[:4] + [(2, 1, True)] + _entries(2, 2)[5:],
        [(np.True_, 1, 1)] + _entries(2, 2)[1:],
    ):
        stride = 1 if len(entries) == 1 else 2
        with pytest.raises(ValueError, match=r"must cover every \(channel, p, q\) exactly once"):
            ChannelMap(stride, entries)
    # numpy integers are integers
    assert ChannelMap(1, ((np.int64(1), 1, 1),)).positions.tolist() == [0]
    assert ChannelMap(np.int64(2), _entries(1, 2)).positions.tolist() == [0, 1, 2, 3]
    # every map is checked the same way, channel_entries' own tuple too:
    # entries equal to it in value but spelt otherwise are refused when not
    # integers, normalised when they are.  channel_entries caches nothing
    own = channel_entries(2, 2)
    assert channel_entries(2, 2) == own and channel_entries(2, 2) is not own
    for entries in (
        [tuple(map(float, e)) for e in own],
        [tuple(map(bool, e)) for e in channel_entries(1, 1)],
        own[:3] + ((1, 2, True),) + own[4:],
        [(np.float64(k), p, q) for k, p, q in own],
        own[:-1],  # an incomplete cover
        own[:-1] + own[:1],  # a repeated entry
    ):
        stride = 1 if len(entries) == 1 else 2
        with pytest.raises(ValueError, match=r"must cover every \(channel, p, q\) exactly once"):
            ChannelMap(stride, entries)
    for entries in (own, [list(e) for e in own], [tuple(map(np.int64, e)) for e in own],
                    tuple(_entries(2, 2)), iter(own)):
        m = ChannelMap(2, entries)
        assert m.entries == own and m.entries is not own and m._source_major
        assert type(m.entries) is tuple and set(map(type, m.entries)) == {tuple}
        assert m.positions.tolist() == list(range(8)) and not m.positions.flags.writeable
    permuted = ChannelMap(2, own[4:] + own[:4])
    assert not permuted._source_major
    assert permuted.positions.tolist() == [4, 5, 6, 7, 0, 1, 2, 3]
    # the source-major map's positions are 0, 1, ... and cannot be written
    positions = ChannelMap(2, _entries(3, 2)).positions
    assert positions.tolist() == list(range(12)) and not positions.flags.writeable
    positions = ChannelMap(2, _entries(3, 2)[::-1]).positions
    assert positions.tolist() == list(range(12))[::-1] and not positions.flags.writeable


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


def test_reshape_input_batch_equals_stacked_single_calls():
    r = np.random.default_rng(32)
    x = r.standard_normal((5, 2, 6, 9))
    # a document may hold any complete enumeration, so the map is shuffled
    cm = ChannelMap(3, [_entries(2, 3)[i] for i in r.permutation(18)])
    got = reshape_input(x, cm)
    assert got.shape == (5, 18, 2, 3)
    # C-ordered, so conv_multichannel takes the batch without a copy
    assert got.flags.c_contiguous
    assert np.array_equal(got, np.stack([reshape_input(item, cm) for item in x]))
    assert np.array_equal(got[4], space_to_depth(x[4], cm.entries, 3))
    with pytest.raises(ValueError, match="rank"):
        reshape_input(x[None], cm)


def test_reshape_input_makes_one_new_array_beside_one_transient():
    # a new C-ordered array for every map, the identity of stride 1 too, and
    # where the unshuffle alone could be a view of x (h = w = s); a
    # source-major map returns the unshuffled copy, any other map takes its
    # channels from that copy as one input-sized transient
    r = np.random.default_rng(33)
    cases = [(1, 3, False, 12, 6), (1, 3, True, 12, 6), (2, 2, False, 24, 12),
             (4, 1, True, 48, 24), (3, 2, True, 36, 18), (2, 3, False, 2, 2)]
    for s, c, shuffle, h, w in cases:
        entries = _entries(c, s)
        if shuffle:
            entries = [entries[i] for i in r.permutation(len(entries))]
        cm = ChannelMap(s, entries)
        x = r.standard_normal((40, c, h, w))
        tracemalloc.start()
        try:
            got = reshape_input(x, cm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.flags.c_contiguous and got.flags.owndata and got.flags.writeable
        assert not np.shares_memory(got, x)
        transient = x.nbytes if shuffle else 0
        assert peak <= got.nbytes + transient + 4096, (s, c, shuffle)
        assert np.array_equal(got, np.stack([space_to_depth(item, cm.entries, s) for item in x]))


def test_single_input_equals_batch_of_one():
    # one input goes through forward and reshape_input without a batch axis,
    # and must give the bits of a batch of one
    specs = [init_params(load_document(FIXTURES / "lenet.json").network, seed=0)]
    specs += [init_params(_random_net(seed), seed=seed) for seed in range(40)]
    for seed, spec in enumerate(specs):
        result = transform_network(spec)
        m = result.input_map
        x = np.random.default_rng(seed).standard_normal(spec.input_shape)
        xt = reshape_input(x, m)
        assert np.array_equal(xt, reshape_input(x[None], m)[0]), spec.name
        for net, item in ((spec, x), (result.network, xt)):
            y = forward(net, item)
            assert y.ndim == 1
            assert np.array_equal(y, forward(net, item[None])[0]), net.name
        # an empty batch goes through both
        empty = reshape_input(np.zeros((0,) + spec.input_shape), m)
        assert empty.shape == (0,) + result.network.input_shape
        assert forward(result.network, empty).shape == (0, y.size)
        assert forward(spec, np.zeros((0,) + spec.input_shape)).shape == (0, y.size)


def test_a_dropped_channel_map_leaves_nothing_cached():
    # the check builds the source-major cover it compares with, and keeps
    # nothing of it once the map is gone
    entries = [(k, 1, 1) for k in range(1, 100_001)]
    tracemalloc.start()
    try:
        ChannelMap(1, entries)
        gc.collect()
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert left < 1_000_000


def test_the_rewrite_shares_one_input_map_per_channels_and_stride():
    # the rewrite's input map depends only on the input channels and the
    # total stride, and is frozen, so one checked object serves every rewrite
    a = transform_network(NetworkSpec("a", (2, 8, 8), (ConvLayer(3, (2, 2), 2),)))
    b = transform_network(NetworkSpec("b", (2, 12, 10), (
        ConvLayer(1, (3, 3), 1), ActivationLayer("relu"), ConvLayer(4, (2, 2), 2))))
    assert a.input_map is b.input_map
    assert a.input_map == ChannelMap(2, channel_entries(2, 2)) and a.input_map._source_major
    other = transform_network(NetworkSpec("c", (3, 8, 8), (ConvLayer(3, (2, 2), 2),)))
    assert other.input_map is not a.input_map and other.input_map.source_channels == 3


def test_channel_map_gather_index_is_private_and_read_only():
    a, b = (ChannelMap(3, _entries(2, 3)[::-1]) for _ in range(2))
    reshape_input(np.ones((2, 6, 9)), a)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a != ChannelMap(3, _entries(2, 3))
    assert [f.name for f in fields(ChannelMap)] == ["stride", "entries"]
    cached = {k: v for k, v in vars(a).items() if k not in ("stride", "entries")}
    assert cached and all(k.startswith("_") for k in cached)
    arrays = [v for v in cached.values() if isinstance(v, np.ndarray)]
    assert arrays
    for v in arrays:
        with pytest.raises(ValueError, match="read-only"):
            v[...] = 0


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


def test_transform_absorbs_existing_fc_permutation(tmp_path):
    # a dense layer whose column j meets flat element perm[j] of the feature
    # map, held in its weight columns: the rewrite reorders whatever columns
    # it finds. Earlier versions also wrote the permutation into the document
    # as a dense input_permutation, which the reader now rejects by name.
    r = np.random.default_rng(29)
    feats = 2 * 3 * 3
    perm = r.permutation(feats)
    plain = init_params(
        NetworkSpec("permuted", (1, 6, 6), (ConvLayer(2, (2, 2), 2), FullyConnectedLayer(4))),
        seed=13,
    )
    conv, dense = plain.layers
    folded = np.zeros_like(dense.weights)
    folded[:, perm] = dense.weights
    spec = replace(plain, layers=(conv, replace(dense, weights=folded)))
    x = r.standard_normal((3, 1, 6, 6))
    want = forward(NetworkSpec("c", (1, 6, 6), (conv,)), x)[:, perm] @ dense.weights.T
    assert np.max(np.abs(forward(spec, x) - want)) <= REL_TOL * np.max(np.abs(want))
    result = transform_network(spec)
    report = verify_equivalence(spec, result.network, result.input_map,
                                trials=10, tol=1e-9, seed=5)
    assert report.passed
    p = tmp_path / "permuted.json"
    save_document(p, SpecDocument(network=plain), weights_mode="inline")
    raw = json.loads(p.read_text())
    raw["network"]["layers"][1]["input_permutation"] = perm.tolist()
    p.write_text(json.dumps(raw))
    with pytest.raises(SpecFormatError, match="layer 1 .*'input_permutation'"):
        load_document(p)


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


def _entries(channels, sigma):
    # (k, p, q), 1-based, in the source-major order the rewrite writes
    return [
        (k, p, q)
        for k in range(1, channels + 1)
        for p in range(1, sigma + 1)
        for q in range(1, sigma + 1)
    ]


def _assert_sources_match_oracle(spec, sources):
    # channel counts and multiplicities tracked here, not read from the rewrite
    convs = [(i, l) for i, l in enumerate(spec.layers) if isinstance(l, ConvLayer)]
    sigma = math.prod(l.stride for _, l in convs)
    cin = spec.input_shape[0]
    assert sorted(sources) == [i for i, _ in convs]
    for i, layer in convs:
        want = source_map(
            cin, layer.kernel, layer.stride, sigma,
            _entries(layer.channels_out, sigma // layer.stride),
            _entries(cin, sigma),
        )
        assert sources[i].dtype == np.int64
        assert np.array_equal(sources[i], want), i
        cin, sigma = layer.channels_out, sigma // layer.stride


def _random_net(seed):
    """selftest's random conv stack, then a dense layer with probability 1/2."""
    r = np.random.default_rng(seed)
    input_shape, layers = _random_conv_stack(r)
    if r.random() < 0.5:
        layers.append(FullyConnectedLayer(int(r.integers(1, 5))))
    return NetworkSpec(f"random-{seed}", input_shape, layers)


def test_axis_offsets_match_oracle():
    # every piece length up to one past the longest sample any (m, p) pair
    # takes, so crops, exact fits and padding all occur
    cases = 0
    for kernel in range(1, 8):
        for stride in range(1, 5):
            for sigma_out in range(1, 5):
                sigma_in = sigma_out * stride
                longest = -(-(kernel + (sigma_out - 1) * stride) // sigma_in)
                for piece in range(1, longest + 2):
                    # the rewrite's window over a one-column kernel of its
                    # offsets, whose column rule is the identity at n = q = t = 0
                    offsets = np.arange(kernel, dtype=np.int64).reshape(1, 1, kernel, 1)
                    window = _piece_window(offsets, -1, stride, sigma_in, (piece, 1))
                    got = window.reshape(sigma_out, sigma_out, sigma_in, sigma_in, piece)
                    got = got[:, 0, :, 0]
                    assert got.dtype == np.int64
                    assert np.array_equal(
                        got, axis_offsets(kernel, stride, sigma_in, piece)
                    ), (kernel, stride, sigma_in, piece)
                    cases += 1
    assert cases > 7 * 4 * 4


def test_destride_layer_is_the_one_conv_case_of_the_rewrite():
    r = np.random.default_rng(31)
    for s in range(1, 5):
        for _ in range(4):
            a, b = (int(v) for v in r.integers(1, 4, 2))
            h = s * (a + int(r.integers(0, 3)))
            w = s * (b + int(r.integers(0, 3)))
            spec = init_params(
                NetworkSpec("one-conv", (1, h, w), (ConvLayer(1, (a * s, b * s), s),)),
                seed=s,
            )
            x = r.standard_normal((h, w))
            result = transform_network(spec)
            filters, channels = destride_layer(spec.layers[0].weights[0, 0], x, s)
            assert np.array_equal(np.stack(filters), result.network.layers[0].weights[0])
            assert np.array_equal(np.stack(channels), reshape_input(x[None], result.input_map))


def test_sources_match_oracle_on_lenet_fixture():
    spec = load_document(FIXTURES / "lenet.json").network
    _assert_sources_match_oracle(spec, transform_network(spec).sources)


def _assert_batched_forward_agrees(spec, seed, batch=4):
    """Batched forward of the network and of each rewrite agrees with forward
    on each input alone and with the one-input einsum oracle."""
    x = np.random.default_rng(seed).standard_normal((batch,) + spec.input_shape)
    result = transform_network(spec)
    m = result.input_map
    pairs = [
        (spec, x, x),
        (result.network, reshape_input(x, m),
         np.stack([space_to_depth(item, m.entries, m.stride) for item in x])),
    ]
    for net, inputs, oracle_inputs in pairs:
        got = forward(net, inputs)
        singles = np.stack([forward(net, item) for item in inputs])
        want = np.stack([einsum_forward(net, item) for item in oracle_inputs])
        assert got.shape == want.shape
        bound = REL_TOL * np.abs(want).max()
        assert np.abs(got - singles).max() <= bound, net.name
        assert np.abs(got - want).max() <= bound, net.name


def test_batched_forward_agrees_on_lenet_fixture():
    spec = init_params(load_document(FIXTURES / "lenet.json").network, seed=0)
    _assert_batched_forward_agrees(spec, seed=1)


def test_forward_on_empty_batch():
    spec = init_params(
        NetworkSpec("e", (2, 8, 8), (ConvLayer(3, (2, 2), 2), ActivationLayer("relu"),
                                     ConvLayer(2, (2, 2), 2), FullyConnectedLayer(4))),
        seed=12,
    )
    result = transform_network(spec)
    x = np.zeros((0, 2, 8, 8))
    assert conv_multichannel(spec.layers[0].weights, x, 2).shape == (0, 3, 4, 4)
    assert forward(spec, x).shape == (0, 4)
    xt = reshape_input(x, result.input_map)
    assert xt.shape == (0, 32, 2, 2)
    assert forward(result.network, xt).shape == (0, 4)
    # without a dense layer the flattened feature map is the output
    conv_only = replace(spec, layers=spec.layers[:3])
    assert forward(conv_only, x).shape == (0, 8)
    assert forward(transform_network(conv_only).network, xt).shape == (0, 8)


@pytest.mark.parametrize("seed", range(40))
def test_sources_match_oracle_on_random_nets(seed):
    spec = init_params(_random_net(seed), seed=seed)
    result = transform_network(spec)
    _assert_sources_match_oracle(spec, result.sources)
    report = verify_equivalence(spec, result.network, result.input_map,
                                trials=3, tol=1e-9, seed=seed)
    assert report.passed, report.max_abs_dev
    _assert_batched_forward_agrees(spec, seed)


def _eager_sources(spec):
    """Each conv's source map, built at once by _conv_sources from geometry
    worked out here from infer_shapes and the strides."""
    shapes = [spec.input_shape] + infer_shapes(spec)
    sigma = math.prod(l.stride for l in spec.layers if isinstance(l, ConvLayer))
    sources = {}
    for i, layer in enumerate(spec.layers):
        if isinstance(layer, ConvLayer):
            (cin, h, w), (_, h_out, w_out) = shapes[i], shapes[i + 1]
            sig_out = sigma // layer.stride
            piece = (h // sigma - h_out // sig_out + 1, w // sigma - w_out // sig_out + 1)
            sources[i] = _conv_sources(cin, layer, sigma, piece)
            sigma = sig_out
    return sources


def test_sources_are_built_on_first_read_and_kept():
    specs = [load_document(FIXTURES / "lenet.json").network]
    specs += [_random_net(seed) for seed in range(40)]
    for spec in specs:
        result = transform_network(spec)
        # the shapes of both networks come with the rewrite, as a walk gives them
        assert result.shapes == tuple(infer_shapes(spec)), spec.name
        assert result.transformed_shapes == tuple(infer_shapes(result.network)), spec.name
        sources, want = result.sources, _eager_sources(spec)
        assert list(sources) == sorted(want) and len(sources) == len(want), spec.name
        for i in range(len(spec.layers)):
            if i not in want:
                assert sources.get(i) is None and i not in sources
        with pytest.raises(KeyError):
            sources[len(spec.layers)]
        for i, src in sources.items():
            assert src.dtype == want[i].dtype and np.array_equal(src, want[i]), (spec.name, i)
            assert sources[i] is src and sources.get(i) is src
        with pytest.raises(TypeError):
            sources[min(want)] = want[min(want)]


def test_scatter_of_each_rewrite_restores_the_original():
    # the scatter W2[src[m]] = T[m] inverts the gather T = W.flat[src]: it
    # fills every original weight, and each stored value is its source's copy
    specs = [init_params(load_document(FIXTURES / "lenet.json").network, seed=0)]
    specs += [init_params(_random_net(seed), seed=seed) for seed in range(40)]
    for spec in specs:
        result = transform_network(spec)
        for i, src in result.sources.items():
            w, t = spec.layers[i].weights, result.network.layers[i].weights
            m = src >= 0
            w2 = np.full(w.size, np.nan)
            w2[src[m]] = t[m]
            assert np.array_equal(w2, w.ravel()), (spec.name, i)
            assert np.array_equal(t[m], w.flat[src[m]]), (spec.name, i)


def _gather(w, src):
    """The rewrite as a gather through its source map: the reference the
    window construction must reproduce bit for bit."""
    return np.where(src >= 0, w.reshape(-1)[np.clip(src, 0, None)], 0.0)


def _special_values_net():
    # a NaN with a payload, a negative NaN, both infinities and a negative
    # zero among the weights of a two-conv net
    spec = init_params(
        NetworkSpec("special", (2, 8, 8), (ConvLayer(3, (4, 2), 2), ActivationLayer("relu"),
                                           ConvLayer(2, (1, 3), 1), FullyConnectedLayer(2))),
        seed=5,
    )
    w = spec.layers[0].weights.copy()
    w.flat[:5] = np.array([0x7FF8_0000_0000_0123, 0xFFF8_0000_0000_0456, 0x7FF0 << 48,
                           0xFFF0 << 48, 1 << 63], dtype=np.uint64).view(np.float64)
    v = spec.layers[2].weights.copy()
    v.flat[-2:] = (-0.0, np.inf)
    layers = list(spec.layers)
    layers[0], layers[2] = replace(layers[0], weights=w), replace(layers[2], weights=v)
    return replace(spec, layers=tuple(layers))


def test_window_weights_equal_the_gather_bit_for_bit():
    specs = [init_params(load_document(FIXTURES / "lenet.json").network, seed=0)]
    specs += [init_params(_random_net(seed), seed=seed) for seed in range(40)]
    specs.append(_special_values_net())
    for spec in specs:
        result = transform_network(spec)
        for i, src in result.sources.items():
            got, want = result.network.layers[i].weights, _gather(spec.layers[i].weights, src)
            assert src.dtype == np.int64
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (spec.name, i)
            # new writeable arrays for every layer, sigma_in = 1 included
            assert got.flags.writeable and src.flags.writeable
            assert not np.shares_memory(got, spec.layers[i].weights)
    # the special values are there to be copied
    got = transform_network(specs[-1]).network.layers[0].weights
    assert np.isin([0x7FF8_0000_0000_0123, 1 << 63], got.view(np.uint64)).all()


def test_window_weights_keep_float32_and_widen_integers():
    spec = _special_values_net()
    for dtype, want_dtype in ((np.float32, np.float32), (np.int64, np.float64)):
        w = np.arange(spec.layers[0].weights.size).reshape(spec.layers[0].weights.shape) - 7
        conv = replace(spec.layers[0], weights=w.astype(dtype))
        result = transform_network(replace(spec, layers=(conv,) + spec.layers[1:]))
        got, src = result.network.layers[0].weights, result.sources[0]
        want = _gather(conv.weights, src)
        assert got.dtype == want.dtype == want_dtype
        assert np.array_equal(got, want)


def test_rewrite_rejects_conv_weights_of_another_shape():
    # a third filter would be dropped, and a (2, 2, 2, 1) block read as the
    # declared (2, 1, 2, 2) one; both are refused as infer_shapes refuses them
    run = lambda net: forward(net, np.zeros(net.input_shape))
    for shape in ((3, 1, 2, 2), (2, 2, 2, 1)):
        spec = NetworkSpec("wrong", (1, 4, 4),
                           (ConvLayer(2, (2, 2), 2, weights=np.zeros(shape)),))
        for check in (infer_shapes, transform_network, run):
            with pytest.raises(ValueError, match=rf"layer 0: weight shape \({shape[0]}, "
                                                 rf".* != declared \(2, 1, 2, 2\)"):
                check(spec)

