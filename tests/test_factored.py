"""Wronskian limits built from their factor L = B C B^T against the dense path.

Every Wronskian limit is a pair (V_k C V_k^T; V_{<k}) with C = scale W_bar
of order h = H_{k,d}. make_factored_nnp takes its spectrum from an h x h
eigh; make_nnp on the same (L; V) compresses and decomposes the n x n L.
"""

import numpy as np
import pytest

from flatdpp.diagnostics import brute_force_distribution
from flatdpp.ensembles import (
    CPDViolationError,
    make_factored_nnp,
    make_nnp,
    nnp_from_dict,
    nnp_to_dict,
    size_distribution,
)
from flatdpp.flatlimit import (
    NONMAGIC_WRONSKIAN,
    VARYING_WRONSKIAN,
    fixed_size_limit,
    varying_size_limit,
)
from flatdpp.geometry import PointSet, uniform_points
from flatdpp.kernels import builtin_kernel
from flatdpp.polybasis import count_homogeneous

GAUSS = builtin_kernel("gaussian")

#: (d, fixed size m, Wronskian degree k) of non-magic fixed sizes
FIXED = [(2, 4, 2), (2, 8, 3), (2, 13, 4), (3, 5, 2), (3, 12, 3)]
#: (d, even scaling exponent p) of the varying-size Wronskian regime, k = p / 2
VARYING = [(1, 2), (1, 4), (1, 6), (1, 8), (2, 2), (2, 4), (3, 2), (3, 4)]

CASES = ([("fixed", d, m, k) for d, m, k in FIXED]
         + [("vary", d, p, p // 2) for d, p in VARYING])


def wronskian_limit(kind, ps, param):
    if kind == "fixed":
        res = fixed_size_limit(ps, GAUSS, param)
        assert res.regime == NONMAGIC_WRONSKIAN
    else:
        res = varying_size_limit(ps, GAUSS, param, alpha=0.7)
        assert res.regime == VARYING_WRONSKIAN
    return res


def small_n(kind, d, param):
    """The largest n <= 10 with a non-degenerate limit."""
    for n in range(10, 1, -1):
        ps = uniform_points(n, d, seed=5)
        try:
            return ps, wronskian_limit(kind, ps, param)
        except (AssertionError, ValueError):
            continue
    raise AssertionError("no non-degenerate limit on 10 points or fewer")


def assert_same_spectrum(e, dense, h):
    assert e.factor is not None and dense.factor is None
    assert e.q == dense.q <= h
    np.testing.assert_allclose(e.lam, dense.lam, rtol=1e-10, atol=0)
    assert np.abs(e.U @ e.U.T - dense.U @ dense.U.T).max() <= 1e-10
    assert np.abs(e.U.T @ e.U - np.eye(e.q)).max() <= 1e-12
    assert np.abs(e.Q.T @ e.U).max() <= 1e-12
    assert e.U.flags.f_contiguous and not e.U.flags.writeable


@pytest.mark.parametrize("kind, d, param, k", CASES)
def test_factored_matches_dense_at_n_300(kind, d, param, k, decompositions):
    e = wronskian_limit(kind, uniform_points(300, d, seed=7), param).process
    h = count_homogeneous(k, d)
    assert decompositions.orders == [("eigh", h)]
    assert_same_spectrum(e, make_nnp(e.L, e.V), h)


@pytest.mark.parametrize("kind, d, param, k",
                         [c for c in CASES if c[0] == "vary" or c[2] < 10])
def test_factored_laws_match_dense_enumeration(kind, d, param, k):
    ps, res = small_n(kind, d, param)
    e, dense = res.process, make_nnp(res.process.L, res.process.V)
    assert_same_spectrum(e, dense, count_homogeneous(k, d))
    np.testing.assert_allclose(size_distribution(e), size_distribution(dense),
                               rtol=0, atol=1e-10)
    m = res.fixed_size
    law, ref = brute_force_distribution(e, m), brute_force_distribution(dense, m)
    np.testing.assert_array_equal(law.masks, ref.masks)
    np.testing.assert_allclose(law.values, ref.values, rtol=0, atol=1e-10)


def factor_of():
    e = fixed_size_limit(uniform_points(300, 2, seed=11), GAUSS, 13).process
    B, C = e.factor
    return e, np.array(B), np.array(C)


def test_non_psd_schur_block_is_named():
    e, B, C = factor_of()
    w, Z = np.linalg.eigh(C)
    w[0] = -w[-1]
    with pytest.raises(CPDViolationError, match="Wronskian Schur block"):
        make_factored_nnp(B, (Z * w) @ Z.T, e.V)


@pytest.mark.parametrize("c", [1e-9, 1e-3, 1e3, 1e9])
def test_scaling_the_block_scales_the_spectrum(c):
    e, B, C = factor_of()
    scaled = make_factored_nnp(B, c * C, e.V)
    assert scaled.q == e.q == 5
    np.testing.assert_allclose(scaled.lam, c * e.lam, rtol=1e-12)


def test_q_is_bounded_by_the_factor_when_n_minus_p_is_smaller():
    # 9 points, d = 2, m = 8: p = 6, h = 4, so only n - p = 3 eigenvalues
    ps = uniform_points(9, 2, seed=5)
    e = fixed_size_limit(ps, GAUSS, 8).process
    assert e.factor[0].shape == (9, 4) and e.q == 3
    assert_same_spectrum(e, make_nnp(e.L, e.V), 4)


def test_eigenvalues_within_the_bound_are_not_spectrum():
    # C's 1e-10 direction gives an eigenvalue near 5e-10. Once B's span(V)
    # part is 1e6, max |L| is 1e12 and the bound beta = n eps (max |L| +
    # ||K||_F) is 1e-2: the eigenvalue falls inside it and is unresolved,
    # not kept as spectrum
    x = uniform_points(50, 2, seed=1).coords
    x = x - x.mean(axis=0)
    C, V = np.diag([1.0, 1e-10]), np.ones((50, 1))
    kept = make_factored_nnp(x, C, V)
    assert kept.q == 2 and kept.lam[1] > 1e3 * kept._bound.beta
    cut = make_factored_nnp(x + 1e6, C, V)
    assert cut.q == 1 and cut._bound.beta > 10 * kept.lam[1]
    np.testing.assert_allclose(cut.lam, kept.lam[:1], rtol=1e-9)


@pytest.mark.parametrize("shift", [1.0, 3.0, 10.0])
def test_translated_cloud_keeps_the_spectrum(shift):
    ps = uniform_points(300, 2, seed=11)
    centred = fixed_size_limit(PointSet(ps.coords - ps.coords.mean(axis=0)), GAUSS, 13)
    e = fixed_size_limit(PointSet(ps.coords + shift), GAUSS, 13).process
    assert e.q == 5
    np.testing.assert_allclose(e.lam, centred.process.lam, rtol=1e-8)
    assert np.abs(e.Q.T @ e.U).max() <= 1e-12


@pytest.mark.parametrize("shift", [0.0, 1.0, 3.0, 10.0])
def test_dense_and_factored_pairs_agree_on_q(shift):
    # one bound decides both: beta = n eps (max |L| + ||M||_F), with M the
    # n x n N^T L N or the factor's K; each eigenvalue within beta of the other
    e = fixed_size_limit(PointSet(uniform_points(300, 2, seed=11).coords + shift),
                         GAUSS, 13).process
    dense = make_nnp(e.L, e.V)
    assert dense.q == e.q == 5
    np.testing.assert_allclose(dense.lam, e.lam, rtol=0, atol=max(dense._bound.beta, e._bound.beta))


def test_reload_rebuilds_the_same_pair_from_the_factor(decompositions):
    e = varying_size_limit(uniform_points(300, 2, seed=3), GAUSS, 4, alpha=2.5).process
    e2 = nnp_from_dict(nnp_to_dict(e))
    assert decompositions.orders == [("eigh", 3)] * 2
    np.testing.assert_array_equal(e2.lam, e.lam)
    np.testing.assert_array_equal(e2.U, e.U)
    np.testing.assert_array_equal(e2.factor[1], e.factor[1])
    assert np.abs(e2.L - e.L).max() <= 1e-12 * np.abs(e.L).max()
