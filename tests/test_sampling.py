import numpy as np
import pytest

from destride import RaggedSamplingError

from lemmas import (
    SamplingSpec,
    compose_sampling,
    partition_cover_check,
    sample_matrix,
    sample_tensor,
    zero_pad,
)
from oracles import grid_sample


def test_sample_matrix_frozen_4x4():
    x = np.arange(1.0, 17.0).reshape(4, 4)
    assert np.array_equal(sample_matrix(x, (2, 2, 2)), [[6.0, 8.0], [14.0, 16.0]])
    assert np.array_equal(sample_matrix(x, (1, 1, 2)), [[1.0, 3.0], [9.0, 11.0]])
    assert np.array_equal(sample_matrix(x, (1, 1, 1)), x)


def test_sample_matrix_matches_enumeration_oracle():
    r = np.random.default_rng(2)
    for _ in range(60):
        rows, cols = r.integers(1, 10, 2)
        s = int(r.integers(1, 4))
        x = r.standard_normal((rows, cols))
        for m in range(1, s + 1):
            for n in range(1, s + 1):
                want = grid_sample(x, m, n, s)
                got = sample_matrix(x, (m, n, s))
                assert got.shape == want.shape
                assert np.array_equal(got, want)


def test_sample_matrix_6x6_half_stride():
    x = np.arange(36.0).reshape(6, 6)
    out = sample_matrix(x, (1, 1, 2))  # odd rows and columns, 1-based
    assert out.shape == (3, 3)
    assert np.array_equal(out, x[0::2, 0::2])


def test_sample_matrix_can_be_empty():
    x = np.ones((1, 5))
    out = sample_matrix(x, (2, 1, 2))  # no row at offset 2 of a 1-row matrix
    assert out.shape == (0, 3)


def test_sample_matrix_returns_copy():
    x = np.zeros((4, 4))
    out = sample_matrix(x, (1, 1, 2))
    out += 1.0
    assert x.sum() == 0.0


def test_sampling_spec_validates_offsets():
    SamplingSpec(1, 1, 1)
    SamplingSpec(3, 2, 3)
    with pytest.raises(ValueError):
        SamplingSpec(0, 1, 2)
    with pytest.raises(ValueError):
        SamplingSpec(1, 3, 2)  # offset exceeds stride
    with pytest.raises(ValueError):
        SamplingSpec(1, 1, 0)


def test_sampling_fields_are_ints_or_refused_by_name():
    # integral floats and numpy integers are stored as int
    spec = SamplingSpec(2.0, np.int64(1), np.int64(2))
    assert (spec.row_offset, spec.col_offset, spec.stride) == (2, 1, 2)
    assert {type(v) for v in (spec.row_offset, spec.col_offset, spec.stride)} == {int}
    x = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(sample_matrix(x, (2.0, 1, np.int64(2))), sample_matrix(x, (2, 1, 2)))
    composed = compose_sampling((1, 1, 2), 2.0)
    assert composed == compose_sampling((1, 1, 2), np.int64(2)) == SamplingSpec(1, 1, 4)
    assert type(composed.stride) is int
    # a fraction or a bool is refused, not truncated or read as 0/1
    for make, field in (
        (lambda: sample_matrix(x, (1.7, 1, 2)), "row_offset"),
        (lambda: sample_tensor(np.ones((2, 2, 2, 2)), (1, 2), (1, 1.5, 2)), "col_offset"),
        (lambda: SamplingSpec(1.5, 1, 2), "row_offset"),
        (lambda: SamplingSpec(True, 1, 2), "row_offset"),
        (lambda: SamplingSpec(1, 1, False), "stride"),
        (lambda: compose_sampling((1, 1, 2), 2.5), "inner_stride"),
        (lambda: compose_sampling((1, 1, 2), True), "inner_stride"),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            make()


def test_sample_tensor_leading_and_trailing_dims():
    r = np.random.default_rng(3)
    t = r.standard_normal((5, 6, 7, 8))
    lead = sample_tensor(t, (1, 2), (2, 1, 2))
    assert lead.shape == (2, 3, 7, 8)
    assert np.array_equal(lead, t[1::2, 0::2])
    trail = sample_tensor(t, (3, 4), (1, 3, 3))
    assert trail.shape == (5, 6, 3, 2)
    assert np.array_equal(trail, t[:, :, 0::3, 2::3])


def test_sample_tensor_identity_spec():
    r = np.random.default_rng(11)
    t = r.standard_normal((3, 4, 5, 6))
    for dims in ((1, 2), (3, 4)):
        assert np.array_equal(sample_tensor(t, dims, (1, 1, 1)), t)


def test_sample_tensor_agrees_with_sample_matrix_on_flat_tensor():
    # a matrix viewed as a tensor with singleton trailing dims samples the same way
    r = np.random.default_rng(12)
    x = r.standard_normal((6, 7))
    t = x[:, :, None, None]
    got = sample_tensor(t, (1, 2), (2, 1, 2))
    assert np.array_equal(got[:, :, 0, 0], sample_matrix(x, (2, 1, 2)))


def test_double_sampling_element_formula():
    # sampling dims (1,2) then (3,4) reads the original at strided positions
    r = np.random.default_rng(13)
    t = r.standard_normal((7, 8, 9, 10))
    m, n, p, q, s = 2, 1, 1, 2, 2
    u = sample_tensor(sample_tensor(t, (1, 2), (m, n, s)), (3, 4), (p, q, s))
    for i in range(u.shape[0]):
        for j in range(u.shape[1]):
            for k in range(u.shape[2]):
                for l in range(u.shape[3]):
                    src = (
                        i * s + m - 1,
                        j * s + n - 1,
                        k * s + p - 1,
                        l * s + q - 1,
                    )
                    assert u[i, j, k, l] == t[src]


def test_sample_tensor_rejects_other_dim_pairs():
    t = np.zeros((2, 2, 2, 2))
    for dims in ((1, 3), (2, 4), (1, 4), (4, 3), (1, 2, 3)):
        with pytest.raises(ValueError):
            sample_tensor(t, dims, (1, 1, 1))


def test_zero_pad_prepends():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = zero_pad(x, 2, 1)
    assert out.shape == (4, 3)
    assert np.array_equal(out[2:, 1:], x)
    assert out[:2].sum() == 0.0 and out[:, :1].sum() == 0.0
    assert np.array_equal(zero_pad(x, 0, 0), x)


def test_zero_pad_scalar_frozen():
    assert np.array_equal(zero_pad(np.array([[5.0]]), 1, 1), [[0.0, 0.0], [0.0, 5.0]])


def test_sampling_a_padded_matrix_reads_shifted_rows():
    # one padded row shifts which original rows the odd-offset sampling sees
    x = np.arange(1.0, 13.0).reshape(4, 3)
    padded = zero_pad(x, 1, 0)
    out = sample_matrix(padded, (1, 1, 2))
    assert np.array_equal(out[0], np.zeros(2))
    assert np.array_equal(out[1:], x[1::2, 0::2])


def test_compose_sampling_functional_equality():
    # sampling an already-sampled matrix equals one sampling by the composed spec
    r = np.random.default_rng(4)
    for _ in range(40):
        s_outer = int(r.integers(1, 4))
        s_inner = int(r.integers(1, 4))
        size = int(r.integers(s_outer * s_inner, 4 * s_outer * s_inner + 1))
        x = r.standard_normal((size, size + 2))
        m = int(r.integers(1, s_outer + 1))
        n = int(r.integers(1, s_outer + 1))
        inner = sample_matrix(x, (1, 1, s_inner))
        composed = compose_sampling(SamplingSpec(m, n, s_outer), s_inner)
        assert composed.stride == s_outer * s_inner
        assert np.array_equal(
            sample_matrix(inner, (m, n, s_outer)), sample_matrix(x, composed)
        )


def test_compose_sampling_frozen():
    spec = compose_sampling(SamplingSpec(2, 3, 3), 2)
    assert (spec.row_offset, spec.col_offset, spec.stride) == (3, 5, 6)
    doubled = compose_sampling(SamplingSpec(2, 2, 2), 2)
    assert (doubled.row_offset, doubled.col_offset, doubled.stride) == (3, 3, 4)


def test_compose_sampling_with_unit_inner_stride():
    for s in (1, 2, 3):
        spec = compose_sampling(SamplingSpec(1, 1, s), 1)
        assert (spec.row_offset, spec.col_offset, spec.stride) == (1, 1, s)


def test_partition_cover_check():
    assert partition_cover_check(6, 9, 3)
    assert partition_cover_check(6, 6, 2)
    assert partition_cover_check(5, 5, 2)
    assert partition_cover_check(5, 7, 2)  # ragged sizes still partition
    assert partition_cover_check(1, 1, 3)


def test_partition_multiset():
    # the s*s offset grids cover every element exactly once
    r = np.random.default_rng(5)
    for s in (1, 2, 3, 4):
        x = r.standard_normal((7, 11))
        pieces = [
            sample_matrix(x, (m, n, s)).ravel()
            for m in range(1, s + 1)
            for n in range(1, s + 1)
        ]
        pooled = np.concatenate(pieces)
        assert pooled.size == x.size
        assert np.array_equal(np.sort(pooled), np.sort(x.ravel()))


def test_ragged_sampling_error_is_value_error():
    assert issubclass(RaggedSamplingError, ValueError)
