import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from destride import conv_multichannel
from destride.convolution import Im2col

from lemmas import (
    build_conv_tensor,
    conv2d,
    conv2d_strided,
    extract_filter,
    is_conv_tensor,
    sample_matrix,
    sample_tensor,
    tensor_product,
    zero_pad,
)
from oracles import einsum_conv, multichannel_forward, slide_correlate, slide_correlate_strided

# batched im2col products against one-input einsums and loops: the summation
# order differs, so agreement is to this fraction of the largest output
REL_TOL = 1e-13


def test_conv2d_frozen_row_example():
    h = np.array([[1.0, 2.0, 3.0, 4.0]])
    x = np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]])
    assert np.array_equal(conv2d(h, x), [[30.0, 40.0, 50.0, 60.0, 70.0]])
    assert np.array_equal(conv2d_strided(h, x, 2), [[30.0, 50.0, 70.0]])


def test_conv2d_scalar_one_filter_is_identity():
    r = np.random.default_rng(9)
    x = r.standard_normal((4, 6))
    assert np.array_equal(conv2d(np.array([[1.0]]), x), x)


def test_conv2d_identity_corner_filter():
    # a 2x2 filter with a single 1 in the top-left corner shifts nothing
    x = np.arange(1.0, 21.0).reshape(4, 5)
    h = np.array([[1.0, 0.0], [0.0, 0.0]])
    out = conv2d(h, x)
    assert np.array_equal(out, x[:3, :4])
    assert np.array_equal(out, slide_correlate(h, x))


def test_conv2d_matches_loop_oracle():
    r = np.random.default_rng(10)
    for _ in range(60):
        a, b = r.integers(1, 6, 2)
        c = int(r.integers(a, a + 8))
        d = int(r.integers(b, b + 8))
        h = r.standard_normal((a, b))
        x = r.standard_normal((c, d))
        assert np.allclose(conv2d(h, x), slide_correlate(h, x), atol=1e-12)


def test_conv2d_strided_matches_loop_oracle():
    r = np.random.default_rng(11)
    for _ in range(60):
        s = int(r.integers(1, 4))
        a, b = r.integers(1, 5, 2)
        c = int(r.integers(a, a + 9))
        d = int(r.integers(b, b + 9))
        h = r.standard_normal((a, b))
        x = r.standard_normal((c, d))
        want = slide_correlate_strided(h, x, s)
        assert np.allclose(conv2d_strided(h, x, s), want, atol=1e-12)


def test_conv2d_strided_unit_stride_equals_conv2d():
    r = np.random.default_rng(12)
    h = r.standard_normal((3, 2))
    x = r.standard_normal((7, 6))
    assert np.array_equal(conv2d_strided(h, x, 1), conv2d(h, x))


def test_conv2d_stride_equal_to_output_size_keeps_one_response():
    r = np.random.default_rng(13)
    h = r.standard_normal((2, 2))
    x = r.standard_normal((5, 5))
    full = conv2d(h, x)  # 4x4 responses
    out = conv2d_strided(h, x, 4)
    assert out.shape == (1, 1)
    assert out[0, 0] == full[0, 0]


def test_conv2d_filter_larger_than_image():
    with pytest.raises(ValueError):
        conv2d(np.ones((3, 3)), np.ones((2, 5)))


def test_build_conv_tensor_shape():
    t = build_conv_tensor(np.ones((3, 3)), (5, 5))
    assert t.shape == (3, 3, 5, 5)
    # non-square: (c-a+1, d-b+1, d, c) for a c x d image
    t = build_conv_tensor(np.ones((2, 3)), (6, 4))
    assert t.shape == (5, 2, 4, 6)


def test_build_conv_tensor_slice_support():
    # each slice holds one shifted copy of the filter: a*b nonzeros when dense
    r = np.random.default_rng(12)
    h = r.uniform(1.0, 2.0, (2, 3))
    t = build_conv_tensor(h, (5, 7))
    for i in range(t.shape[0]):
        for j in range(t.shape[1]):
            assert np.count_nonzero(t[i, j]) == h.size
            # stored transposed: rows of the slice run over image columns
            assert np.array_equal(t[i, j, j : j + 3, i : i + 2], h.T)


def test_build_conv_tensor_one_by_one_filter():
    t = build_conv_tensor(np.array([[2.5]]), (3, 4))
    assert t.shape == (3, 4, 4, 3)
    for i in range(3):
        for j in range(4):
            want = np.zeros((4, 3))
            want[j, i] = 2.5
            assert np.array_equal(t[i, j], want)


def test_conv_equals_tensor_product():
    r = np.random.default_rng(13)
    for _ in range(60):
        a, b = r.integers(1, 6, 2)
        c = int(r.integers(a, 10))
        d = int(r.integers(b, 10))
        h = r.standard_normal((a, b))
        x = r.standard_normal((c, d))
        t = build_conv_tensor(h, (c, d))
        dev = np.max(np.abs(conv2d(h, x) - tensor_product(t, x)))
        assert dev <= 1e-12


def test_is_conv_tensor_accepts_built():
    r = np.random.default_rng(14)
    for _ in range(20):
        a, b = r.integers(1, 5, 2)
        c = int(r.integers(a, a + 5))
        d = int(r.integers(b, b + 5))
        t = build_conv_tensor(r.standard_normal((a, b)), (c, d))
        assert is_conv_tensor(t)


def test_is_conv_tensor_rejects_random_dense():
    r = np.random.default_rng(15)
    for _ in range(20):
        shape = tuple(int(v) for v in r.integers(2, 5, 4))
        assert not is_conv_tensor(r.standard_normal(shape))


def test_is_conv_tensor_rejects_every_single_perturbation():
    r = np.random.default_rng(16)
    t = build_conv_tensor(r.uniform(1.0, 2.0, (2, 2)), (4, 5))
    flat = t.ravel()
    for idx in range(flat.size):
        bad = flat.copy()
        bad[idx] += 0.5
        assert not is_conv_tensor(bad.reshape(t.shape))


def test_extract_filter_round_trip():
    r = np.random.default_rng(17)
    for _ in range(20):
        a, b = r.integers(1, 5, 2)
        c = int(r.integers(a, a + 5))
        d = int(r.integers(b, b + 5))
        h = r.uniform(1.0, 2.0, (a, b))
        assert np.array_equal(extract_filter(build_conv_tensor(h, (c, d))), h)


def test_extract_filter_zero_tensor():
    out = extract_filter(np.zeros((2, 3, 5, 5)))
    assert out.shape == (1, 1)
    assert out[0, 0] == 0.0


def test_extract_filter_rejects_non_conv():
    with pytest.raises(ValueError):
        extract_filter(np.arange(16.0).reshape(2, 2, 2, 2))


def test_double_sampling_keeps_conv_structure():
    # sampling dims (1,2) then (3,4) with one stride yields the tensor of the
    # padded-then-sampled filter, for every offset combination
    r = np.random.default_rng(18)
    for s in (2, 3):
        for _ in range(6):
            a = int(r.integers(s, s + 3))
            b = int(r.integers(s, s + 3))
            c = int(r.integers(a + s, a + 3 * s))
            d = int(r.integers(b + s, b + 3 * s))
            h = r.uniform(1.0, 2.0, (a, b))
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


def test_conv_multichannel_frozen_two_channel():
    # the strided row example split into two stride-1 channels
    w = np.array([[[[1.0, 3.0]], [[2.0, 4.0]]]])  # 1 out, 2 in, 1x2 kernels
    x = np.array([[[1.0, 3.0, 5.0, 7.0]], [[2.0, 4.0, 6.0, 8.0]]])
    out = conv_multichannel(w, x)
    assert np.array_equal(out, [[[30.0, 50.0, 70.0]]])


def test_conv_multichannel_single_channel_equals_conv2d():
    # conv2d is this one-channel case, so the comparison is with its loop
    # definition
    r = np.random.default_rng(18)
    h = r.standard_normal((2, 3))
    x = r.standard_normal((5, 7))
    out = conv_multichannel(h[None, None], x[None])
    assert np.allclose(out[0], slide_correlate(h, x), atol=1e-12)


def test_conv_multichannel_zero_filter_channel_is_ignored():
    r = np.random.default_rng(20)
    w = r.standard_normal((2, 2, 2, 2))
    w[:, 1] = 0.0  # second input channel contributes nothing
    x = r.standard_normal((2, 5, 5))
    y = x.copy()
    y[1] = r.standard_normal((5, 5))
    assert np.array_equal(conv_multichannel(w, x), conv_multichannel(w, y))


def test_conv_multichannel_matches_loop_oracle():
    r = np.random.default_rng(19)
    for _ in range(25):
        cin = int(r.integers(1, 4))
        cout = int(r.integers(1, 4))
        s = int(r.integers(1, 3))
        a, b = r.integers(1, 4, 2)
        c = int(r.integers(a, a + 6))
        d = int(r.integers(b, b + 6))
        w = r.standard_normal((cout, cin, a, b))
        x = r.standard_normal((cin, c, d))
        want = multichannel_forward(w, x, s)
        assert np.allclose(conv_multichannel(w, x, stride=s), want, atol=1e-12)


def test_conv_multichannel_channel_mismatch():
    with pytest.raises(ValueError):
        conv_multichannel(np.ones((1, 2, 2, 2)), np.ones((3, 5, 5)))


def test_conv_multichannel_batch_matches_single_items_and_oracles():
    r = np.random.default_rng(21)
    for _ in range(25):
        cin, cout = (int(v) for v in r.integers(1, 4, 2))
        s = int(r.integers(1, 4))
        a, b = (int(v) for v in r.integers(1, 6, 2))
        h, w = int(r.integers(a, a + 7)), int(r.integers(b, b + 7))
        wt = r.standard_normal((cout, cin, a, b))
        x = r.standard_normal((int(r.integers(1, 9)), cin, h, w))
        got = conv_multichannel(wt, x, stride=s)
        singles = np.stack([conv_multichannel(wt, item, stride=s) for item in x])
        loops = np.stack([multichannel_forward(wt, item, s) for item in x])
        einsums = np.stack([einsum_conv(wt, item, s) for item in x])
        assert got.shape == loops.shape
        bound = REL_TOL * np.abs(loops).max()
        for want in (singles, loops, einsums):
            assert np.abs(got - want).max() <= bound


def test_conv_multichannel_column_matrix_stays_within_input():
    # a large strided kernel: each item's column matrix holds 3.6x its input,
    # so building the whole batch's at once would need 3.6x the input
    r = np.random.default_rng(22)
    w = r.standard_normal((2, 3, 12, 9))
    x = r.standard_normal((50, 3, 18, 15))
    want = np.stack([multichannel_forward(w, item, 3) for item in x])
    tracemalloc.start()
    try:
        y = conv_multichannel(w, x, stride=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + y.nbytes
    assert np.abs(y - want).max() <= REL_TOL * np.abs(want).max()


def test_conv_multichannel_takes_any_layout_and_dtype():
    # the gather reads flattened items of a C-ordered buffer; every other
    # input is copied into one first, and gives the same bits as a C-ordered
    # float64 copy
    r = np.random.default_rng(23)
    w = r.standard_normal((3, 2, 3, 2))
    x = r.standard_normal((4, 2, 9, 8))
    readonly = x.copy()
    readonly.flags.writeable = False
    cases = [
        np.ascontiguousarray(x.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2),
        x[..., ::-1],
        x[:, :, ::2],
        readonly,
        np.rint(10 * x).astype(np.int64),
    ]
    assert not any(c.flags.c_contiguous for c in cases[:3])
    for xin in cases:
        for s in (1, 2):
            got = conv_multichannel(w, xin, stride=s)
            assert np.array_equal(got, conv_multichannel(w, np.array(xin, dtype=np.float64), s))
            assert np.array_equal(got[1], conv_multichannel(w, xin[1], stride=s))
            want = np.stack([multichannel_forward(w, item, s) for item in xin])
            assert np.abs(got - want).max() <= REL_TOL * np.abs(want).max()


def test_conv_multichannel_is_one_blas_product_per_item():
    # bit for bit the weights times a C-ordered im2col matrix, item by item,
    # for one feature map, a batch that fits one slice and a batch that
    # splits into several.  With one input channel, a bare reshape of the
    # window view of a 5x1 or 1x2 kernel at stride 1 is an overlapping view,
    # which numpy multiplies in its own loop; with one output channel that
    # loop sums in another order
    r = np.random.default_rng(25)
    cases = [(o, c, (a, b), s, (6, c, 16, 16))
             for o, c, (a, b), s in ((1, 1, (5, 1), 1), (1, 1, (1, 2), 1), (3, 1, (5, 1), 1),
                                     (1, 4, (5, 1), 1), (3, 4, (3, 3), 2), (3, 4, (1, 1), 1),
                                     (2, 2, (2, 3), 3))]
    # the batch of test_conv_multichannel_column_matrix_stays_within_input,
    # which goes through in slices of 13 items
    cases.append((2, 3, (12, 9), 3, (50, 3, 18, 15)))
    for o, c, (a, b), s, shape in cases:
        w = r.standard_normal((o, c, a, b))
        x = r.standard_normal(shape)
        windows = sliding_window_view(x, (a, b), axis=(2, 3))[:, :, ::s, ::s]
        cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
        plain = np.stack([w.reshape(o, -1) @ item.reshape(c * a * b, -1) for item in cols])
        y = conv_multichannel(w, x, stride=s)
        assert np.array_equal(y, plain.reshape(y.shape)), (o, c, a, b, s, shape)
        for item, want in zip(x, plain):
            one = conv_multichannel(w, item, stride=s)
            assert np.array_equal(one, want.reshape(one.shape)), (o, c, a, b, s)


def test_conv_multichannel_1x1_stride_1_copies_nothing():
    # the window view of a 1x1 stride-1 conv already is the column matrix,
    # so the input is multiplied where it lies; a copy would be 1.5 MB
    r = np.random.default_rng(24)
    w = r.standard_normal((4, 64, 1, 1))
    x = r.standard_normal((20, 64, 12, 12))
    tracemalloc.start()
    try:
        y = conv_multichannel(w, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= y.nbytes + x.nbytes // 2
    plain = np.matmul(w.reshape(4, 64), x.reshape(20, 64, 144)).reshape(y.shape)
    assert np.array_equal(y, plain)
    want = np.stack([einsum_conv(w, item, 1) for item in x])
    assert np.abs(y - want).max() <= REL_TOL * np.abs(want).max()


def test_im2col_index_holds_each_window_position():
    # the gather index is the strided window view laid over one item's flat
    # positions, in (c, a, b, oh, ow) order, and None exactly where the item
    # already is its column matrix
    r = np.random.default_rng(26)
    for _ in range(200):
        c = int(r.integers(1, 5))
        a, b = (int(v) for v in r.integers(1, 6, 2))
        s = int(r.integers(1, 5))
        h, w = int(r.integers(a, a + 9)), int(r.integers(b, b + 9))
        batch = () if r.integers(2) else (int(r.integers(1, 4)),)
        g = Im2col.of((int(r.integers(1, 4)), c, a, b), (*batch, c, h, w), s)
        positions = np.arange(c * h * w).reshape(c, h, w)
        windows = sliding_window_view(positions, (a, b), axis=(1, 2))[:, ::s, ::s]
        oh, ow = windows.shape[1:3]
        assert (g.rows, g.cols, g.size) == (c * a * b, oh * ow, c * h * w)
        if a == b == s == 1:
            assert g._gather is None
            continue
        want = windows.transpose(0, 3, 4, 1, 2).reshape(c * a * b, oh * ow)
        assert g._gather.dtype == np.intp and g._gather.shape == want.shape
        assert np.array_equal(g._gather, want), (c, h, w, a, b, s)
        assert np.array_equal(Im2col.of((1, c, a, b), (c, h, w), s)._gather, want)


def test_conv_multichannel_rejects_other_ranks():
    w = np.ones((1, 1, 2, 2))
    for shape in ((1, 1, 1, 4, 4), (4, 4)):
        with pytest.raises(ValueError, match="rank"):
            conv_multichannel(w, np.ones(shape))


@pytest.mark.parametrize("weights, feature_map, stride, message", [
    ((2, 2), (1, 4, 4), 1, "weights must be 4-D (out, in, row, col), got rank 2"),
    ((1, 1, 2, 2), (4, 4), 1,
     "feature map must be 3-D (channel, row, col) or 4-D (batch, channel, row, col), got rank 2"),
    ((1, 2, 2, 2), (3, 5, 5), 1, "filter expects 2 input channels, feature map has 3"),
    ((1, 1, 2, 2), (2, 1, 5, 5), 0, "stride must be at least 1, got 0"),
    ((1, 1, 3, 3), (1, 2, 5), 1, "filter (3, 3) larger than image (2, 5)"),
    ((1, 1, 2, 6), (1, 5, 5), 2, "filter (2, 6) larger than image (5, 5)"),
])
def test_conv_multichannel_names_what_does_not_fit(weights, feature_map, stride, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        conv_multichannel(np.ones(weights), np.ones(feature_map), stride)
