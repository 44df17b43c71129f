import math

import numpy as np
import pytest

from flatdpp.kernels import builtin_kernel, custom_kernel
from flatdpp.polybasis import count_poly, monomial_indices
from flatdpp.wronskian import schur_block, wronskian_matrix

GAUSS = builtin_kernel("gaussian")


def test_even_part_of_exponential_degree_one():
    # expansion of 1 + (x-y)^2/2: the even coefficients of exp(-d)
    k = custom_kernel([1.0, 0.0, 0.5])
    W = wronskian_matrix(k, 1, 1)
    np.testing.assert_allclose(W, [[1, 0], [0, -1]], atol=1e-15)


def test_gaussian_degree_one():
    W = wronskian_matrix(GAUSS, 1, 1)
    np.testing.assert_allclose(W, [[1, 0], [0, 2]], atol=1e-15)


def test_gaussian_degree_one_bivariate():
    W = wronskian_matrix(GAUSS, 1, 2)
    np.testing.assert_allclose(W, np.diag([1.0, 2.0, 2.0]), atol=1e-15)


def test_degree_beyond_smoothness_rejected():
    with pytest.raises(ValueError, match="smoothness order"):
        wronskian_matrix(builtin_kernel("exponential"), 1, 1)
    with pytest.raises(ValueError, match="smoothness order"):
        wronskian_matrix(builtin_kernel("(1+d)exp(-d)"), 2, 2)


def test_truncation_too_short_rejected():
    k = custom_kernel([1.0, 0.0, 0.5])
    with pytest.raises(ValueError, match="Taylor coefficients"):
        wronskian_matrix(k, 2, 1)


def test_symmetry_and_cross_degree_consistency():
    for d in (1, 2, 3):
        W2 = wronskian_matrix(GAUSS, 2, d)
        assert np.max(np.abs(W2 - W2.T)) <= 1e-14
        W1 = wronskian_matrix(GAUSS, 1, d)
        p = count_poly(1, d)
        np.testing.assert_array_equal(W2[:p, :p], W1)


def test_odd_total_degree_entries_vanish():
    W = wronskian_matrix(GAUSS, 3, 2)
    indices = monomial_indices(3, 2)
    for i, a in enumerate(indices):
        for j, b in enumerate(indices):
            if (sum(a) + sum(b)) % 2 == 1:
                assert W[i, j] == 0.0


def closed_form_d1(a, b, taylor):
    if (a + b) % 2 == 1:
        return 0.0
    return (-1.0) ** b * math.comb(a + b, a) * taylor[a + b]


def test_d1_closed_form():
    smooth = custom_kernel([1.0, 0, -0.7, 0, 0.31, 0, -0.11, 0, 0.042, 0,
                            -0.013, 0, 0.004])
    for kernel in (GAUSS, smooth):
        W = wronskian_matrix(kernel, 6, 1)
        for a in range(7):
            for b in range(7):
                assert abs(W[a, b] - closed_form_d1(a, b, kernel.taylor)) < 1e-12


def test_entries_match_high_precision_derivatives():
    # independent oracle: actual partial derivatives of exp(-||x-y||^2) in
    # four variables, computed by arbitrary-precision numerical differentiation
    from mpmath import mp, mpf, diff, exp as mpexp, factorial

    def kappa(x1, x2, y1, y2):
        return mpexp(-((x1 - y1) ** 2 + (x2 - y2) ** 2))

    W = wronskian_matrix(GAUSS, 2, 2)
    indices = monomial_indices(2, 2)
    with mp.workdps(40):
        for i, a in enumerate(indices):
            for j, b in enumerate(indices):
                order = (a[0], a[1], b[0], b[1])
                d = diff(kappa, (mpf(0),) * 4, order)
                scale = (factorial(a[0]) * factorial(a[1])
                         * factorial(b[0]) * factorial(b[1]))
                assert abs(float(d / scale) - W[i, j]) < 1e-12


def test_schur_block_gaussian():
    np.testing.assert_allclose(
        schur_block(wronskian_matrix(GAUSS, 1, 2), 1), np.diag([2.0, 2.0]), atol=1e-14)
    np.testing.assert_allclose(
        schur_block(wronskian_matrix(GAUSS, 1, 1), 1), [[2.0]], atol=1e-14)


def test_schur_block_degree_zero_is_f0():
    np.testing.assert_allclose(schur_block(wronskian_matrix(GAUSS, 0, 2), 0), [[1.0]])


def test_schur_block_zero_coupling():
    # when the off-diagonal blocks vanish the complement is the corner block
    W = np.diag([3.0, 5.0, 7.0])
    np.testing.assert_array_equal(schur_block(W, 1), np.diag([5.0, 7.0]))


def test_schur_hand_computed_d1_degree_two():
    # gaussian, basis (1, x, x^2): W = [[1,0,-1],[0,2,0],[-1,0,3]]
    W = wronskian_matrix(GAUSS, 2, 1)
    np.testing.assert_allclose(W, [[1, 0, -1], [0, 2, 0], [-1, 0, 3]],
                               atol=1e-14)
    np.testing.assert_allclose(schur_block(W, 2), [[2.0]], atol=1e-14)


def test_block_determinant_identity():
    for d, k in [(1, 2), (1, 3), (2, 2), (3, 2)]:
        W = wronskian_matrix(GAUSS, k, d)
        p = count_poly(k - 1, d)
        lhs = np.linalg.det(W)
        rhs = np.linalg.det(W[:p, :p]) * np.linalg.det(schur_block(W, p))
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_singular_leading_block_rejected():
    k = custom_kernel([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="not admissible"):
        schur_block(wronskian_matrix(k, 1, 1), 1)


def test_shapes():
    for d, k in [(2, 2), (3, 1), (4, 2)]:
        W = wronskian_matrix(GAUSS, k, d)
        assert W.shape == (count_poly(k, d), count_poly(k, d))
