import itertools

import numpy as np
import pytest

from flatdpp.geometry import PointSet, uniform_points
from flatdpp.polybasis import (
    count_homogeneous,
    count_poly,
    homogeneous_indices,
    magic_numbers,
    monomial_indices,
    orthonormal_basis,
    vandermonde,
    vandermonde_block,
)


def enumerate_degree(k, d):
    """Independent oracle: all exponent tuples of total degree k."""
    return [a for a in itertools.product(range(k + 1), repeat=d) if sum(a) == k]


def test_count_homogeneous_values():
    assert count_homogeneous(2, 2) == 3
    assert count_homogeneous(0, 5) == 1
    assert count_homogeneous(3, 2) == len([(3, 0), (2, 1), (1, 2), (0, 3)])


def test_counts_match_enumeration():
    for d in range(1, 5):
        for k in range(7):
            assert count_homogeneous(k, d) == len(enumerate_degree(k, d))
            assert count_poly(k, d) == sum(len(enumerate_degree(j, d)) for j in range(k + 1))


def test_count_poly_conventions():
    for d in range(1, 6):
        assert count_poly(1, d) == d + 1
    assert count_poly(2, 2) == 6
    assert count_poly(3, 2) == 10
    assert count_poly(-1, 5) == 0
    with pytest.raises(ValueError):
        count_poly(-2, 3)


def test_magic_numbers():
    assert magic_numbers(2, 21) == [1, 3, 6, 10, 15, 21]
    assert magic_numbers(1, 5) == [1, 2, 3, 4, 5]
    assert magic_numbers(3, 10) == [1, 4, 10]


def degree_block(k, d):
    """Columns of the degree-k monomials in the ordering: after all of
    degree < k."""
    return slice(count_poly(k - 1, d), count_poly(k, d))


def test_basis_blocks_and_order():
    indices = monomial_indices(3, 2)
    assert len(indices) == count_poly(3, 2)
    for j in range(4):
        block = indices[degree_block(j, 2)]
        assert len(block) == count_homogeneous(j, 2)
        assert all(sum(a) == j for a in block)
        # within a degree: lexicographically descending exponents
        assert block == sorted(block, reverse=True)
    degs = [sum(a) for a in indices]
    assert np.all(np.diff(degs) >= 0)


def test_basis_d1_is_plain_powers():
    assert monomial_indices(4, 1) == [(0,), (1,), (2,), (3,), (4,)]


def test_vandermonde_d1():
    ps = PointSet([0.0, 1.0, 2.0])
    np.testing.assert_array_equal(
        vandermonde(ps, 2), [[1, 0, 0], [1, 1, 1], [1, 2, 4]])


def test_vandermonde_square_determinant():
    # classical formula, with the sign fixed by the graded ordering
    ps = PointSet([0.0, 1.0, 2.0])
    det = np.linalg.det(vandermonde(ps, 2))
    x = ps.coords[:, 0]
    signed = np.prod([x[j] - x[i] for i in range(3) for j in range(i + 1, 3)])
    assert abs(det - signed) < 1e-12
    assert abs(abs(det) - 2.0) < 1e-12


def test_vandermonde_d2_columns():
    y, z = 0.3, 0.7
    ps = PointSet([[y, z], [0.1, 0.2], [0.9, 0.4]])
    V = vandermonde(ps, 2)
    np.testing.assert_allclose(V[0], [1, y, z, y**2, y * z, z**2], rtol=1e-15)


def test_vandermonde_prefix_property():
    ps = uniform_points(6, 2, seed=0)
    V3 = vandermonde(ps, 3)
    V2 = vandermonde(ps, 2)
    assert np.array_equal(V3[:, : V2.shape[1]], V2)


def test_vandermonde_block_is_degree_slice():
    ps = uniform_points(5, 2, seed=1)
    V2 = vandermonde(ps, 2)
    np.testing.assert_array_equal(vandermonde_block(ps, 2), V2[:, 3:6])
    for d in (1, 2, 3):
        ps = uniform_points(6, d, seed=d)
        full = vandermonde(ps, 4)
        for k in range(5):
            np.testing.assert_array_equal(vandermonde_block(ps, k),
                                          full[:, degree_block(k, d)])
    with pytest.raises(ValueError):
        vandermonde_block(ps, -1)


def test_d1_full_rank_at_distinct_points():
    ps = uniform_points(7, 1, seed=2)
    assert np.linalg.matrix_rank(vandermonde(ps, 6)) == 7


def test_homogeneous_indices_order():
    assert list(homogeneous_indices(2, 2)) == [(2, 0), (1, 1), (0, 2)]


def test_orthonormal_basis_identity_columns():
    M = np.eye(4)[:, :2]
    Q = orthonormal_basis(M)
    assert Q.shape == (4, 2)
    np.testing.assert_allclose(np.abs(Q), M, atol=1e-14)


def test_orthonormal_basis_ones():
    Q = orthonormal_basis(np.ones((4, 1)))
    np.testing.assert_allclose(np.abs(Q), 0.5 * np.ones((4, 1)), rtol=1e-14)


def test_orthonormal_basis_span_and_gram():
    ps = uniform_points(5, 2, seed=3)
    M = vandermonde(ps, 1)
    Q = orthonormal_basis(M)
    np.testing.assert_allclose(Q.T @ Q, np.eye(3), atol=1e-12)
    resid = M - Q @ (Q.T @ M)
    assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(M)


def test_orthonormal_basis_rank_deficient():
    M = np.column_stack([np.ones(5), np.ones(5) * 2.0])
    assert orthonormal_basis(M).shape == (5, 1)
    assert orthonormal_basis(np.zeros((4, 2))).shape == (4, 0)
    assert orthonormal_basis(np.zeros((4, 0))).shape == (4, 0)
