import numpy as np
import pytest

from destride import tensor_product

from oracles import tensor_contract


def test_tensor_product_matches_loop_contraction():
    r = np.random.default_rng(0)
    for _ in range(50):
        d1, d2, d3, d4 = r.integers(1, 6, 4)
        t = r.standard_normal((d1, d2, d3, d4))
        x = r.standard_normal((d4, d3))  # dim 3 runs over columns, dim 4 over rows
        assert np.allclose(tensor_product(t, x), tensor_contract(t, x), atol=1e-12)


def test_tensor_product_frozen_example():
    # the contraction meets x transposed: x[l, k], not x[k, l]
    t = np.arange(4.0).reshape(1, 1, 2, 2)  # t[0,0] = [[0,1],[2,3]]
    x = np.array([[10.0, 20.0], [30.0, 40.0]])
    # sum_{k,l} t[0,0,k,l] x[l,k] = 0*10 + 1*30 + 2*20 + 3*40 = 190
    assert tensor_product(t, x)[0, 0] == 190.0


def test_tensor_product_zero_tensor_annihilates():
    out = tensor_product(np.zeros((2, 2, 3, 3)), np.ones((3, 3)))
    assert out.shape == (2, 2)
    assert np.array_equal(out, np.zeros((2, 2)))


def test_tensor_product_single_indicator_selects_one_element():
    r = np.random.default_rng(6)
    x = r.standard_normal((3, 3))
    t = np.zeros((2, 2, 3, 3))
    t[0, 0, 1, 1] = 1.0  # indicator at (k, l) = (2, 2) in 1-based terms
    assert tensor_product(t, x)[0, 0] == x[1, 1]


def test_tensor_product_is_linear():
    r = np.random.default_rng(1)
    t = r.standard_normal((3, 2, 4, 5))
    x = r.standard_normal((5, 4))
    y = r.standard_normal((5, 4))
    lhs = tensor_product(t, 2.0 * x - 3.0 * y)
    rhs = 2.0 * tensor_product(t, x) - 3.0 * tensor_product(t, y)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_tensor_product_shape_mismatch():
    t = np.zeros((2, 2, 3, 4))
    with pytest.raises(ValueError):
        tensor_product(t, np.zeros((3, 4)))  # needs (4, 3)


def test_tensor_product_rejects_wrong_rank():
    with pytest.raises(ValueError):
        tensor_product(np.zeros((2, 2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        tensor_product(np.zeros((2, 2, 2, 2)), np.zeros(4))
