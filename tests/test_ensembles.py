import base64
import binascii
import hashlib
import itertools
import json
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from flatdpp import _numerics, ensembles, store
from flatdpp.ensembles import (
    CPDViolationError,
    RankDeficientError,
    SubsetDistribution,
    fixed_size_log_prob,
    indices_of,
    log_elementary_symmetric,
    log_fixed_size_normalizer,
    log_normalizer,
    log_prob,
    log_unnorm_prob,
    make_nnp,
    marginal_kernel,
    mask_of,
    nnp_from_dict,
    nnp_to_dict,
    size_distribution,
)
from flatdpp.flatlimit import fixed_size_limit, varying_size_limit
from flatdpp.geometry import PointSet, distance_power_matrix, uniform_points
from flatdpp.kernels import builtin_kernel
from flatdpp.store import read_json, write_json


def random_nnp(n, p, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    L = scale * (A @ A.T) / n
    V = rng.standard_normal((n, p)) if p else None
    return make_nnp(L, V)


def enumerate_unnormalized(e):
    """Independent oracle: every bordered determinant via plain det calls."""
    out = {}
    for size in range(e.n + 1):
        for X in itertools.combinations(range(e.n), size):
            m = len(X)
            B = np.zeros((m + e.p, m + e.p))
            B[:m, :m] = e.L[np.ix_(X, X)]
            B[:m, m:] = e.V[X, :]
            B[m:, :m] = e.V[X, :].T
            out[X] = (-1.0) ** e.p * np.linalg.det(B)
    return out


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_identity_ensemble():
    e = make_nnp(np.eye(2))
    assert (e.p, e.q) == (0, 2)
    np.testing.assert_allclose(e.lam, [1.0, 1.0])


def test_pure_projective_pair():
    e = make_nnp(np.zeros((2, 2)), np.ones((2, 1)))
    assert (e.p, e.q) == (1, 0)


def test_negative_distance_matrix_is_cpd_wrt_ones():
    ps = PointSet(np.sort(np.random.default_rng(0).uniform(size=5)))
    e = make_nnp(-distance_power_matrix(ps, 1), np.ones((5, 1)))
    assert np.all(e.lam >= 0)
    proj = np.eye(e.n) - e.Q @ e.Q.T
    w = np.linalg.eigvalsh(proj @ e.L @ proj)
    assert w.min() >= -1e-10 * (1 + abs(w).max())


def test_asymmetric_L_rejected():
    L = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^L must be symmetric$"):
        make_nnp(L)
    with pytest.raises(ValueError, match="^L must be symmetric$"):
        make_nnp(np.array([[1.0, 2.0], [2.0 + 1e-9, 1.0]]))
    # L - L^T overflows to inf here; that is asymmetry, not a non-finite entry
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^L must be symmetric$"):
        make_nnp(np.array([[0.0, 1e308], [-1e308, 0.0]]))


@pytest.mark.parametrize("which, bad", [("L", math.nan), ("L", math.inf), ("V", math.nan),
                                        ("L", -math.inf)])
def test_non_finite_pair_rejected(which, bad):
    L, V = np.eye(3), np.ones((3, 1))
    (L if which == "L" else V)[0, 0] = bad
    with pytest.raises(ValueError, match=f"^{which} has a non-finite entry$"):
        make_nnp(L, V)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entry_off_the_diagonal_is_not_called_asymmetry(bad):
    L = np.eye(4)
    L[0, 2] = bad
    with pytest.raises(ValueError, match="^L has a non-finite entry$"):
        make_nnp(L)


def test_stored_L_is_the_symmetrized_input_bit_for_bit():
    rng = np.random.default_rng(7)
    for n in (1, 5, 40):
        A = rng.standard_normal((n, n))
        # positive definite, asymmetric within the 1e-10 tolerance
        L = A @ A.T + n * np.eye(n) + 1e-12 * rng.standard_normal((n, n))
        read_only = L.copy()
        read_only.setflags(write=False)
        expected = (0.5 * (L + L.T)).tobytes()
        for arr in (L, np.asfortranarray(L), read_only):
            stored = make_nnp(arr, np.ones((n, 1))).L
            assert stored.flags.c_contiguous and stored.tobytes() == expected
    assert make_nnp(np.zeros((0, 0))).L.shape == (0, 0)


_T = _numerics._TILE
SWEEP_SIZES = (1, _T - 1, _T, _T + 1, 2 * _T + 3)


def nearly_symmetric(n, seed):
    """Positive definite, asymmetric within make_nnp's 1e-10 tolerance."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return A @ A.T / n + np.eye(n) + 1e-13 * rng.standard_normal((n, n))


def layouts(L):
    """L as a C-ordered, a Fortran-ordered and a strided array."""
    wide = np.zeros((2 * L.shape[0], 2 * L.shape[1]))
    wide[::2, ::2] = L
    return {"C": L, "F": np.asfortranarray(L), "strided": wide[::2, ::2]}


@pytest.mark.parametrize("n", SWEEP_SIZES)
def test_sweep_matches_the_whole_matrix_passes(n):
    L = nearly_symmetric(n, seed=n)
    expected = (0.5 * (L + L.T)).tobytes()
    for name, arr in layouts(L).items():
        before = arr.copy()
        S, scale, asymmetry = _numerics._symmetrized(arr)
        assert S.flags.c_contiguous and S.tobytes() == expected, name
        assert scale == np.max(np.abs(L)) and asymmetry == np.max(np.abs(L - L.T))
        e = make_nnp(arr, np.ones((n, 1)))
        assert e.L.tobytes() == expected and not e.L.flags.writeable
        assert not np.shares_memory(e.L, arr) and np.array_equal(arr, before)
        assert arr.flags.writeable


# (row, column) of a bad entry, for n = 2T + 3: an off-diagonal tile, its
# mirror below the diagonal, the last partial tile and its corner
BAD_ENTRIES = [(1, _T + 5), (_T + 5, 1), (2 * _T + 2, 2 * _T + 1), (2 * _T + 2, 0)]


@pytest.mark.parametrize("where", BAD_ENTRIES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweep_finds_a_non_finite_entry_in_any_tile(where, bad):
    n = 2 * _T + 3
    for arr in layouts(nearly_symmetric(n, seed=3)).values():
        arr[where] = bad
        # an asymmetry elsewhere: the non-finite entry is still reported first
        arr[0, 1] += 1.0
        with pytest.raises(ValueError, match="^L has a non-finite entry$"):
            make_nnp(arr)


@pytest.mark.parametrize("where", BAD_ENTRIES)
def test_sweep_finds_an_asymmetry_in_any_tile(where):
    n = 2 * _T + 3
    for arr in layouts(nearly_symmetric(n, seed=4)).values():
        arr[where] += 1e-9 * np.max(np.abs(arr))
        with pytest.raises(ValueError, match="^L must be symmetric$"):
            make_nnp(arr)


def test_rank_deficient_V_rejected():
    V = np.column_stack([np.ones(4), 2 * np.ones(4)])
    with pytest.raises(RankDeficientError):
        make_nnp(np.eye(4), V)


def spectrum_bound(L, V):
    """beta = n eps (max |L| + ||N^T L N||_F), N an SVD complement of span(V)."""
    n = L.shape[0]
    N = np.linalg.svd(V, full_matrices=True)[0][:, V.shape[1]:] if V.shape[1] else np.eye(n)
    return n * np.finfo(float).eps * (np.max(np.abs(L)) + np.linalg.norm(N.T @ L @ N))


def test_cpd_violation_rejected():
    # the refusal test is the bound beta
    L, V = distance_power_matrix(PointSet([0.0, 0.3, 0.9, 1.4]), 1), np.ones((4, 1))
    beta = re.escape(f"{spectrum_bound(L, V):.3e}")
    with pytest.raises(CPDViolationError, match=rf"min eigenvalue -1\.733e\+00 < -{beta}$"):
        make_nnp(L, V)


@pytest.mark.parametrize("build", [
    lambda D: make_nnp(-D, np.ones((50, 1)), psd_tol=1e-6),
    lambda D: ensembles.make_factored_nnp(np.eye(50), -D, np.ones((50, 1)), psd_tol=1e-6),
    lambda D: nnp_from_dict(nnp_to_dict(make_nnp(-D, np.ones((50, 1)))), psd_tol=1e-6),
], ids=["make_nnp", "make_factored_nnp", "nnp_from_dict"])
def test_psd_tol_is_not_a_parameter(build):
    # beta alone decides: no constructor takes a tolerance
    with pytest.raises(TypeError, match="psd_tol"):
        build(distance_power_matrix(uniform_points(50, 2, seed=0), 1))


def test_eigenvector_projective_orthogonality():
    e = random_nnp(7, 3, seed=1)
    assert np.max(np.abs(e.U.T @ e.Q)) < 1e-10
    assert e.q <= e.n - e.p


# ---------------------------------------------------------------------------
# probabilities and normalization
# ---------------------------------------------------------------------------


def test_identity_two_point_probabilities():
    e = make_nnp(np.eye(2))
    assert math.exp(log_normalizer(e)) == pytest.approx(4.0, rel=1e-14)
    for X in ([], [0], [1], [0, 1]):
        assert math.exp(log_prob(e, X)) == pytest.approx(0.25, rel=1e-12)


def test_projective_two_point_probabilities():
    e = make_nnp(np.zeros((2, 2)), np.ones((2, 1)))
    assert math.exp(log_normalizer(e)) == pytest.approx(2.0, rel=1e-14)
    assert math.exp(log_prob(e, [0])) == pytest.approx(0.5, rel=1e-12)
    assert math.exp(log_prob(e, [1])) == pytest.approx(0.5, rel=1e-12)
    assert log_prob(e, []) == -math.inf
    assert log_prob(e, [0, 1]) == -math.inf  # duplicated bordered columns


def test_exponential_limit_bordered_value():
    ps = PointSet([0.0, 0.5, 1.0])
    e = make_nnp(-distance_power_matrix(ps, 1), np.ones((3, 1)))
    logabs, sign = log_unnorm_prob(e, [0, 1, 2])
    assert sign == 1.0
    assert math.exp(logabs) == pytest.approx(1.0, rel=1e-12)  # 2^2 * 0.5 * 0.5


def test_normalizer_matches_enumeration():
    for seed, (n, p) in enumerate([(6, 0), (6, 2), (5, 1), (7, 3)]):
        e = random_nnp(n, p, seed=seed)
        total = sum(enumerate_unnormalized(e).values())
        assert math.exp(log_normalizer(e)) == pytest.approx(total, rel=1e-8)


def test_unnormalized_signs_fold_nonnegative():
    e = random_nnp(6, 2, seed=9)
    oracle = enumerate_unnormalized(e)
    for X, val in oracle.items():
        logabs, sign = log_unnorm_prob(e, X)
        if sign == 0.0:
            assert abs(val) < 1e-8
        else:
            assert sign * math.exp(logabs) == pytest.approx(val, rel=1e-8)
            assert sign > 0 or abs(val) < 1e-8


def test_subset_index_validation():
    e = make_nnp(np.eye(2))
    with pytest.raises(IndexError):
        log_unnorm_prob(e, [5])


# ---------------------------------------------------------------------------
# marginal kernels
# ---------------------------------------------------------------------------


def test_marginal_kernel_halves_identity():
    np.testing.assert_allclose(marginal_kernel(make_nnp(np.eye(3))), np.eye(3) / 2,
                               atol=1e-14)


def test_marginal_kernel_projection_case():
    rng = np.random.default_rng(3)
    V = rng.standard_normal((5, 2))
    e = make_nnp(np.zeros((5, 5)), V)
    K = marginal_kernel(e)
    np.testing.assert_allclose(K, e.Q @ e.Q.T, atol=1e-12)


def test_marginal_kernel_bounds_and_unit_multiplicity():
    e = random_nnp(6, 2, seed=5)
    w = np.linalg.eigvalsh(marginal_kernel(e))
    assert w.min() >= -1e-10 and w.max() <= 1 + 1e-10
    assert np.sum(w > 1 - 1e-8) == 2


def test_marginal_kernel_inclusion_oracle():
    e = random_nnp(6, 1, seed=7)
    K = marginal_kernel(e)
    oracle = enumerate_unnormalized(e)
    Z = sum(oracle.values())
    for size in (1, 2, 3):
        for A in itertools.combinations(range(6), size):
            lhs = np.linalg.det(K[np.ix_(A, A)])
            rhs = sum(v for X, v in oracle.items() if set(A) <= set(X)) / Z
            assert lhs == pytest.approx(rhs, abs=1e-8)


# ---------------------------------------------------------------------------
# elementary symmetric polynomials and sizes
# ---------------------------------------------------------------------------


def test_elementary_symmetric_values():
    assert log_elementary_symmetric([], 0) == 0.0
    assert log_elementary_symmetric([3.0, 7.0], 0) == 0.0
    assert math.exp(log_elementary_symmetric([1.0, 2.0, 3.0], 2)) == pytest.approx(11.0)
    assert log_elementary_symmetric([1.0, 2.0, 3.0], 4) == -math.inf
    assert log_elementary_symmetric([1.0, 2.0], -1) == -math.inf
    values = np.random.default_rng(3).random(7)
    for k in range(8):
        ref = sum(math.prod(c) for c in itertools.combinations(values, k))
        assert math.exp(log_elementary_symmetric(values, k)) == pytest.approx(ref, rel=1e-12)
    with pytest.raises(ValueError, match="nonnegative"):
        log_elementary_symmetric([1.0, -2.0], 1)


def test_size_distribution_single_point():
    gamma = 0.7
    e = make_nnp(np.array([[gamma]]))
    np.testing.assert_allclose(size_distribution(e),
                               [1 / (1 + gamma), gamma / (1 + gamma)], rtol=1e-12)


def test_size_distribution_never_empty_with_projective_part():
    e = random_nnp(6, 2, seed=13)
    vec = size_distribution(e)
    assert vec[0] == 0.0 and vec[1] == 0.0
    assert vec.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(vec[e.p + e.q + 1:] == 0.0)


def test_size_distribution_matches_enumeration():
    e = random_nnp(6, 1, seed=17)
    oracle = enumerate_unnormalized(e)
    Z = sum(oracle.values())
    by_size = np.zeros(7)
    for X, v in oracle.items():
        by_size[len(X)] += v / Z
    np.testing.assert_allclose(size_distribution(e), by_size, atol=1e-10)


# ---------------------------------------------------------------------------
# fixed-size laws
# ---------------------------------------------------------------------------


def test_fixed_size_projection_equivalence():
    # L-ensemble on Q Q^T conditioned to rank size == projective pair law
    rng = np.random.default_rng(19)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    e_l = make_nnp(Q @ Q.T)
    e_v = make_nnp(np.zeros((5, 5)), Q)
    for X in itertools.combinations(range(5), 2):
        assert fixed_size_log_prob(e_l, X, 2) == pytest.approx(
            log_prob(e_v, X), abs=1e-9)


def test_fixed_size_at_projective_rank():
    e = make_nnp(np.zeros((2, 2)), np.ones((2, 1)))
    assert math.exp(fixed_size_log_prob(e, [0], 1)) == pytest.approx(0.5, rel=1e-12)
    assert math.exp(fixed_size_log_prob(e, [1], 1)) == pytest.approx(0.5, rel=1e-12)


def test_fixed_size_matches_conditioned_enumeration():
    e = random_nnp(6, 1, seed=23)
    m = 3
    oracle = enumerate_unnormalized(e)
    sel = {X: v for X, v in oracle.items() if len(X) == m}
    Zm = sum(sel.values())
    assert math.exp(log_fixed_size_normalizer(e, m)) == pytest.approx(Zm, rel=1e-8)
    for X, v in sel.items():
        assert math.exp(fixed_size_log_prob(e, X, m)) == pytest.approx(
            v / Zm, rel=1e-8)
    assert fixed_size_log_prob(e, [0, 1], m) == -math.inf


def test_fixed_size_out_of_range():
    e = make_nnp(np.zeros((3, 3)), np.ones((3, 1)))
    with pytest.raises(ValueError, match="below projective rank"):
        fixed_size_log_prob(e, [], 0)
    with pytest.raises(ValueError, match="support"):
        fixed_size_log_prob(e, [0, 1], 2)  # q = 0, only m = 1 possible


# ---------------------------------------------------------------------------
# structural invariances
# ---------------------------------------------------------------------------


def test_saddle_point_identity():
    rng = np.random.default_rng(29)
    for _ in range(5):
        n, p = 6, 2
        L = rng.standard_normal((n, n))
        L = L + L.T
        V = rng.standard_normal((n, p))
        B = np.zeros((n + p, n + p))
        B[:n, :n] = L
        B[:n, n:] = V
        B[n:, :n] = V.T
        lhs = np.linalg.det(B)
        Uv, _, _ = np.linalg.svd(V, full_matrices=True)
        Qc = Uv[:, p:]
        rhs = (-1.0) ** p * np.linalg.det(V.T @ V) * np.linalg.det(Qc.T @ L @ Qc)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_projection_special_case_squared_minors():
    rng = np.random.default_rng(31)
    V = rng.standard_normal((5, 2))
    e = make_nnp(np.zeros((5, 5)), V)
    Z = math.exp(log_normalizer(e))
    for size in range(4):
        for X in itertools.combinations(range(5), size):
            pr = math.exp(log_prob(e, X))
            if size != 2:
                assert pr == 0.0
            else:
                det2 = np.linalg.det(V[X, :]) ** 2
                assert pr == pytest.approx(det2 / Z, rel=1e-9)


def test_invariance_under_column_mixing():
    e = random_nnp(6, 2, seed=37)
    B = np.array([[2.0, 1.0], [-0.5, 3.0]])
    e2 = make_nnp(e.L, e.V @ B)
    for size in range(7):
        for X in itertools.combinations(range(6), size):
            assert math.exp(log_prob(e, X)) == pytest.approx(
                math.exp(log_prob(e2, X)), abs=1e-10)


def _assert_same_law(e, e2):
    lam, lam2 = (np.pad(x, (0, e.n - x.size)) for x in (e.lam, e2.lam))
    np.testing.assert_allclose(lam2, lam, atol=1e-10)
    np.testing.assert_allclose(size_distribution(e2), size_distribution(e), atol=1e-10)
    for size in range(e.n + 1):
        for X in itertools.combinations(range(e.n), size):
            lp, lp2 = log_prob(e, X), log_prob(e2, X)
            if lp == -math.inf:
                assert math.exp(lp2) <= 1e-10
            else:
                assert lp2 == pytest.approx(lp, abs=1e-10)


def test_law_invariant_under_symmetric_span_v_shift():
    # L + V A^T + A V^T has the bordered determinants of L for every A
    rng = np.random.default_rng(47)
    n = 6
    for p in (1, 3, 1, 3):
        A0 = rng.standard_normal((n, n))
        L = A0 @ A0.T / n
        V = rng.standard_normal((n, p))
        A = rng.standard_normal((n, p))
        _assert_same_law(make_nnp(L, V), make_nnp(L + V @ A.T + A @ V.T, V))
    # L = 0: the projection ensemble of span(V)
    V = rng.standard_normal((n, 2))
    A = rng.standard_normal((n, 2))
    e = make_nnp(np.zeros((n, n)), V)
    assert e.q == 0 and e.U.shape == (n, 0)
    _assert_same_law(e, make_nnp(V @ A.T + A @ V.T, V))
    # p = n: the sure full set, whatever L is
    V = rng.standard_normal((n, n))
    A = rng.standard_normal((n, n))
    L = A @ A.T
    e = make_nnp(L, V)
    assert e.q == 0 and size_distribution(e)[n] == pytest.approx(1.0)
    _assert_same_law(e, make_nnp(L + V @ A.T + A @ V.T, V))


def test_span_v_combinations_leave_no_spectrum():
    # N^T (V A^T + A V^T) N = 0: the eigensolver's rounding noise (up to
    # ~2e-15 here) must not count as spectrum, while a genuine eigenvalue
    # far above the n^2 eps max|L| floor must survive
    n = 6
    for seed in range(10):
        for p in (1, 2, 3):
            rng = np.random.default_rng(seed)
            V = rng.standard_normal((n, p))
            A = rng.standard_normal((n, p))
            L = V @ A.T + A @ V.T
            e = make_nnp(L, V)
            assert e.q == 0 and e.U.shape == (n, 0)
            assert size_distribution(e)[p] == 1.0
            b = rng.standard_normal(n)
            e2 = make_nnp(L + 1e-8 * np.outer(b, b), V)
            r = b - e2.Q @ (e2.Q.T @ b)
            assert e2.lam[0] == pytest.approx(1e-8 * (r @ r), rel=1e-6)


# ---------------------------------------------------------------------------
# one bound, beta = n eps (max |L| + ||N^T L N||_F), decides PSD and rank
# ---------------------------------------------------------------------------

#: scale factors of L (or C) under which no decision may change
SCALES = [1e-30, 1e-12, 1.0, 1e12, 1e30]


def _distances(n=50):
    return distance_power_matrix(uniform_points(n, 2, seed=0), 1)


def _noise_beside_one_eigenvalue():
    """V A^T + A V^T + 1e-8 b b^T at n = 6, p = 1: N^T L N has one genuine
    eigenvalue (6.9e-8); the other four are rounding noise."""
    rng = np.random.default_rng(0)
    V, A, b = rng.standard_normal((6, 1)), rng.standard_normal((6, 1)), rng.standard_normal(6)
    return V @ A.T + A @ V.T + 1e-8 * np.outer(b, b), V


def _decision(build):
    """(q, None) when build() accepts the pair, else (None, the error type)."""
    try:
        return build().q, None
    except CPDViolationError as err:
        return None, type(err)


@pytest.mark.parametrize("c", SCALES)
def test_a_wrong_sign_is_refused_at_every_scale(c):
    # +D is not CPD with respect to ones at any scale; -D gives q = n - 1
    D, V = _distances(), np.ones((50, 1))
    with pytest.raises(CPDViolationError):
        make_nnp(c * D, V)
    assert make_nnp(-c * D, V).q == 49


@pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
def test_noise_beside_a_genuine_eigenvalue_is_unresolved(c, caplog):
    L, V = _noise_beside_one_eigenvalue()
    with caplog.at_level(logging.DEBUG, logger="flatdpp.ensembles"):
        e = make_nnp(c * L, V, spectrum="values")
    assert e.q == 1 and e.lam[0] == pytest.approx(6.879e-8 * c, rel=1e-3)
    assert "; q = 1, 4 unresolved (n=6, p=1, " in caplog.records[-1].getMessage()


def test_genuine_eigenvalues_above_the_bound_are_kept():
    # (3+3d+d^2)exp(-d) at m = 8 on 2000 points: L = -D^5 with p = 6,
    # so q = 1994 exactly. All 1994 eigenvalues of N^T L N are positive, the
    # smallest near 3e-13; the 1e-12 relative cut kept 1963 of them
    e = fixed_size_limit(uniform_points(2000, 2, seed=11), builtin_kernel("(3+3d+d^2)exp(-d)"),
                         8).process
    assert e.p == 6 and 1967 <= e.q <= 1994
    assert e.lam[-1] > e._bound.beta


def _pairs():
    """(name, build(c)): pairs whose L, or factor C, is scaled by c."""
    D, ones = _distances(), np.ones((50, 1))
    noisy, V = _noise_beside_one_eigenvalue()
    g = fixed_size_limit(uniform_points(300, 2, seed=11), builtin_kernel("gaussian"), 13).process
    B, C = g.factor
    w, Z = np.linalg.eigh(C)
    w[0] = -1e-9
    C_negative = (Z * w) @ Z.T
    yield "-D", lambda c: make_nnp(-c * D, ones)
    yield "+D", lambda c: make_nnp(c * D, ones)
    yield "noise", lambda c: make_nnp(c * noisy, V, spectrum="values")
    yield "dense-wronskian", lambda c: make_nnp(c * g.L, g.V)
    yield "factor", lambda c: ensembles.make_factored_nnp(B, c * C, g.V)
    yield "factor-negative", lambda c: ensembles.make_factored_nnp(B, c * C_negative, g.V)


@pytest.mark.parametrize("name", [name for name, _ in _pairs()])
def test_scaling_l_changes_no_decision(name):
    build = dict(_pairs())[name]
    decisions = {c: _decision(lambda: build(c)) for c in SCALES}
    assert len(set(decisions.values())) == 1, decisions


def test_eigenvectors_column_major_orthonormal_and_orthogonal_to_v():
    for n, p in ((7, 0), (7, 1), (7, 3), (40, 5)):
        e = random_nnp(n, p, seed=n + p)
        assert e.U.flags.f_contiguous and e.q == n - p
        np.testing.assert_allclose(e.U.T @ e.U, np.eye(e.q), atol=1e-12)
        assert np.max(np.abs(e.U.T @ e.Q), initial=0.0) < 1e-12
        # L U = U diag(lam) up to span(V): the compressed eigenproblem
        R = e.L @ e.U - e.U * e.lam
        np.testing.assert_allclose(R - e.Q @ (e.Q.T @ R), 0.0, atol=1e-10)


def eager_spectrum(L, V):
    """Reference: an SVD complement N of span(V), then eigh of N^T L N, with
    make_nnp's one cut: eigenvalues above beta = n eps (max|L| + ||N^T L N||_F)."""
    n = L.shape[0]
    N = np.linalg.svd(V, full_matrices=True)[0][:, V.shape[1]:] if V.shape[1] else np.eye(n)
    w, W = np.linalg.eigh(N.T @ L @ N)
    keep = w > spectrum_bound(L, V)
    return w[keep][::-1], (N @ W)[:, keep][:, ::-1]


def spectral_projectors(lam, U):
    """One (eigenvalue, U_g U_g^T) per cluster of eigenvalues closer than 1e-8."""
    cuts = np.flatnonzero(np.diff(lam) < -1e-8) + 1
    return [(lam[g[0]], U[:, g] @ U[:, g].T)
            for g in np.split(np.arange(lam.size), cuts) if g.size]


def _lazy_cases():
    rng = np.random.default_rng(53)
    for n, p in ((7, 0), (7, 1), (7, 3), (30, 5), (6, 6)):
        A = rng.standard_normal((n, n))
        yield A @ A.T / n, rng.standard_normal((n, p))
    V = rng.standard_normal((8, 2))
    yield np.zeros((8, 8)), V  # L = 0
    A = rng.standard_normal((5, 5))
    yield A @ A.T, np.eye(5)  # V = I
    # repeated eigenvalues: N^T L N = diag(3, 3, 3, 1, 1, 0, 0)
    N = np.linalg.svd(V, full_matrices=True)[0][:, 2:]
    yield (N * [3.0, 3.0, 3.0, 1.0, 1.0, 0.0]) @ N.T + V @ V.T, V


def test_lazy_spectrum_matches_eager_reference():
    for L, V in _lazy_cases():
        lam, U = eager_spectrum(L, V)
        for first in ("lam", "U"):
            e = make_nnp(L, V)
            getattr(e, first)
            assert e.q == lam.size <= e.n - e.p
            np.testing.assert_allclose(e.lam, lam, rtol=0, atol=1e-10)
            assert e.U.shape == (e.n, e.q) and e.U.flags.f_contiguous
            got, want = spectral_projectors(e.lam, e.U), spectral_projectors(lam, U)
            assert len(got) == len(want)
            for (_, P), (_, P0) in zip(got, want):
                np.testing.assert_allclose(P, P0, rtol=0, atol=1e-10)


def test_read_order_does_not_change_q():
    # eigvalsh then eigh, or eigh alone, must agree on how many eigenvalues count
    for L, V in _lazy_cases():
        e1, e2 = make_nnp(L, V), make_nnp(L, V)
        e1.lam, e2.U
        assert e1.U.shape == e2.U.shape and e1.q == e2.q
        np.testing.assert_allclose(e1.lam, e2.lam, rtol=0, atol=1e-12)


def test_compression_noise_stays_below_the_bound():
    # Gaussian m = 13 in the plane: the Wronskian limit has q = H_{4,2} = 5.
    # On the dense path its other eigenvalues are rounding noise of N^T L N,
    # below 1e-14, under beta (5e-13 to 6e-13 here)
    for seed in (1, 2, 3):
        e = fixed_size_limit(uniform_points(300, 2, seed=seed), builtin_kernel("gaussian"), 13)
        assert e.process.q == make_nnp(e.process.L, e.process.V).q == 5


def test_validation_only_construction_memory():
    n = 2000
    L = -distance_power_matrix(uniform_points(n, 2, seed=59), 1)
    V = np.ones((n, 1))

    def peak():
        tracemalloc.start()
        try:
            make_nnp(L, V)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # L's symmetrized copy and N^T L N, factored in place by blocks of 256
    # rows (3.0 n^2 when np.linalg.cholesky made the whole factor)
    assert peak() <= 2.5 * n * n * 8
    # a frozen, bit-symmetric L is kept: N^T L N is the only n x n array
    L.setflags(write=False)
    assert peak() <= 1.25 * n * n * 8


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def _symmetric(n, seed):
    """A positive semi-definite L, symmetric bit for bit."""
    X = np.random.default_rng(seed).standard_normal((n, n))
    A = X @ X.T / n
    return 0.5 * (A + A.T)


def test_a_frozen_bit_symmetric_l_is_kept():
    S = _symmetric(300, 60)
    V = np.ones((300, 1))
    copied = make_nnp(S.copy(), V)
    L = _frozen(S.copy())
    e = make_nnp(L, V)
    assert e.L is L and e.L.tobytes() == copied.L.tobytes()
    # a Fortran-ordered one is held as its C-ordered transpose
    F = _frozen(np.asfortranarray(S))
    e = make_nnp(F, V)
    assert e.L.base is F and e.L.flags.c_contiguous and e.L.tobytes() == copied.L.tobytes()
    np.testing.assert_array_equal(e.lam, copied.lam)


def _copied_cases():
    """(name, L): Ls that make_nnp must replace by 0.5 (L + L^T)."""
    S = _symmetric(300, 61)
    yield "writable", S.copy()
    view = S.copy()[:]
    view.setflags(write=False)
    yield "read-only-view-of-writable", view
    signed = S.copy()
    signed[0, 1], signed[1, 0] = 0.0, -0.0
    yield "signed-zero-pair", _frozen(signed)
    ulp = S.copy()
    ulp[5, 3] = np.nextafter(ulp[3, 5], np.inf)
    yield "one-ulp", _frozen(ulp)
    wide = np.zeros((300, 600))
    wide[:, ::2] = S
    yield "not-contiguous", _frozen(wide)[:, ::2]


@pytest.mark.parametrize("name", [c[0] for c in _copied_cases()])
def test_any_other_l_gets_the_symmetrized_copy(name):
    L = dict(_copied_cases())[name]
    writeable = L.flags.writeable
    e = make_nnp(L, np.ones((300, 1)))
    assert not np.shares_memory(e.L, L) and e.L.flags.c_contiguous
    assert e.L.tobytes() == (0.5 * (L + L.T)).tobytes()
    assert L.flags.writeable is writeable


def test_constructors_leave_the_callers_arrays_as_they_were():
    L, V = np.eye(4), np.ones((4, 1))
    e = make_nnp(L, V)
    assert L.flags.writeable and V.flags.writeable and e.V is not V
    S = _symmetric(8, 62)
    L, V = S + np.eye(8), np.random.default_rng(62).standard_normal((8, 2))
    B, C = np.random.default_rng(63).standard_normal((8, 3)), np.diag([1.0, 2.0, 3.0])
    dense, factored = make_nnp(L, V), ensembles.make_factored_nnp(B, C, V)
    before = [(log_unnorm_prob(x, [0, 2, 5]), x.lam.tolist()) for x in (dense, factored)]
    for arr in (L, V, B, C):
        assert arr.flags.writeable
        arr[...] = 7.0
    assert [(log_unnorm_prob(x, [0, 2, 5]), x.lam.tolist()) for x in (dense, factored)] == before
    # a frozen V is kept, and stays as the caller froze it
    V = _frozen(np.ones((4, 1)))
    e = make_nnp(np.eye(4), V)
    assert e.V is V and not V.flags.writeable


def _spectrum_with_smallest(spectrum, smallest):
    """M + tau I: M symmetric with the eigenvalues spectrum (an order gives
    that many in [1, 2]) but for the first set to smallest(tau), for the
    shift tau = 1e-10 (1 + max diag M). The order seeds the rotation."""
    order = spectrum if isinstance(spectrum, int) else len(spectrum)
    rng = np.random.default_rng(order)
    Z = np.linalg.qr(rng.standard_normal((order, order)))[0]
    w = rng.uniform(1.0, 2.0, order) if isinstance(spectrum, int) else spectrum.copy()
    w[0] = 0.0
    tau = 1e-10 * (1.0 + float(np.max(np.einsum("ij,j,ij->i", Z, w, Z))))
    w[0] = smallest(tau)
    M = (Z * w) @ Z.T
    M = 0.5 * (M + M.T)
    M.flat[:: order + 1] += tau
    return M


# four blocks, the last of one row, and eigenvalues from 1e-9 to 1 (M + tau I
# has a condition number near 1e10): the margin is decided in the one-row
# Schur complement, reached through three panels multiplied by inverse
# factors whose condition numbers are 1e2 to 4e2
_LOG_SPACED = np.logspace(-9.0, 0.0, 3 * 256 + 1)


@pytest.mark.parametrize("spectrum", [1, 255, 256, 257, 515,
                                      pytest.param(_LOG_SPACED, id="769-log-spaced")])
@pytest.mark.parametrize("smallest,passes", [(lambda t: -2.0 * t, False),
                                             (lambda t: -0.5 * t, True),
                                             (lambda t: t, True)],
                         ids=["-2tau", "-tau/2", "+tau"])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_in_place_cholesky_decides_as_lapack(spectrum, smallest, passes, layout, decompositions):
    M = _spectrum_with_smallest(spectrum, smallest)
    order = M.shape[0]
    try:
        np.linalg.cholesky(M)
        lapack = True
    except np.linalg.LinAlgError:
        lapack = False
    decompositions.orders.clear()
    A = np.array(M, order=layout)
    assert _numerics._cholesky_in_place(A) is lapack is passes
    # only diagonal blocks reach LAPACK; a success factors every block
    blocks = [min(256, order - k) for k in range(0, order, 256)]
    orders = [o for _, o in decompositions.orders]
    assert orders == (blocks if passes else blocks[:len(orders)])


@pytest.mark.parametrize("order", [1, 32, 33, 255, 256])
@pytest.mark.parametrize("log_spaced", [False, True], ids=["1..2", "1e-9..1"])
def test_lower_inverse_inverts_the_factor(order, log_spaced):
    # eigenvalues in [1, 2], or log-spaced over 1e-9..1 (cond F = 3e4 at order 32)
    spectrum, smallest = (np.logspace(-9.0, 0.0, order), 1e-9) if log_spaced else (order, 1.0)
    F = np.linalg.cholesky(_spectrum_with_smallest(spectrum, lambda t: smallest))
    G = _numerics._lower_inverse(F)
    bound = order * np.finfo(float).eps * np.linalg.cond(F)
    assert np.abs(G @ F - np.eye(order)).max() <= bound


def test_failed_cholesky_falls_back_to_a_fresh_compression(monkeypatch, decompositions):
    # N^T L N (order 515) has one eigenvalue of -1e-3 in a direction spread
    # over all rows, so the blocked Cholesky gets past its first block, having
    # overwritten M, before it fails; the eigvalsh that decides must read the
    # compression of L, not that partly factored M
    n = 516
    rng = np.random.default_rng(7)
    V = np.ones((n, 1))
    N = np.linalg.qr(np.hstack((V, rng.standard_normal((n, n - 1)))))[0][:, 1:]
    w = rng.uniform(1.0, 2.0, n - 1)
    w[0] = -1e-3
    L = (N * w) @ N.T
    L = 0.5 * (L + L.T)
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    with pytest.raises(CPDViolationError, match="min eigenvalue -1.000e-03"):
        make_nnp(L, V)
    assert decompositions["cholesky"] >= 2 and len(seen) == 1
    Q = ensembles._projective_part(V, n)[1]
    np.testing.assert_array_equal(seen[0], _numerics._compress(L, Q)[0])


def test_requested_spectrum_matches_the_lazy_one():
    # make_nnp(spectrum=...) keeps what the lazy properties compute
    for L, V in _lazy_cases():
        eigvalsh_first, eigh_first = make_nnp(L, V), make_nnp(L, V)
        eigvalsh_first.lam, eigh_first.U
        values = make_nnp(L, V, spectrum="values")
        vectors = make_nnp(L, V, spectrum="vectors")
        np.testing.assert_array_equal(values.lam, eigvalsh_first.lam)
        np.testing.assert_array_equal(vectors.lam, eigh_first.lam)
        np.testing.assert_array_equal(vectors.U, eigh_first.U)
        assert vectors.U.flags.f_contiguous
    with pytest.raises(ValueError, match="spectrum must be"):
        make_nnp(np.eye(3), spectrum="eigh")


def test_deciding_path_is_logged(caplog, decompositions):
    kernel = builtin_kernel("gaussian")
    ps = uniform_points(300, 2, seed=11)

    def logged(build):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="flatdpp.ensembles"):
            out = build()
        return out, [r.getMessage() for r in caplog.records if r.name == "flatdpp.ensembles"]

    # the Wronskian limit decides from its 5 x 5 factor: no n x n decomposition
    e, msgs = logged(lambda: fixed_size_limit(ps, kernel, 13).process)
    assert len(msgs) == 1 and "make_factored_nnp: eigh of the 5x5 factor" in msgs[0]
    assert "q = 5" in msgs[0]
    assert e.q == 5 and e.U.shape == (300, 5)
    assert decompositions == {"eigh": 1, "eigvalsh": 0, "cholesky": 0}
    assert decompositions.orders == [("eigh", 5)]
    # beta, its two terms and the unresolved count
    assert re.search(r"min eigenvalue \S+; beta \S+ = n eps \(max \|L\| \S+ \+ \|\|M\|\|_F \S+\); "
                     r"q = 5, 0 unresolved \(n=300, p=10\)$", msgs[0])
    # the translated cloud: q = 5 with the centred cloud's eigenvalues
    centred = fixed_size_limit(PointSet(ps.coords - ps.coords.mean(axis=0)), kernel, 13)
    t, msgs = logged(lambda: fixed_size_limit(PointSet(ps.coords + 10.0), kernel, 13).process)
    assert t.q == 5 and t.U.shape == (300, 5)
    np.testing.assert_allclose(t.lam, centred.process.lam, rtol=1e-8)
    assert "q = 5, 0 unresolved" in msgs[0]
    assert decompositions["eigh"] == 3 and max(o for _, o in decompositions.orders) == 5
    # the dense path on the same L, formed from the factor before the logs
    # are read: a blocked Cholesky of N^T L N (order n - p = 290, so blocks
    # of 256 and 34 rows) accepts the untranslated pair
    L, tL = e.L, t.L
    decompositions.orders.clear()
    _, msgs = logged(lambda: make_nnp(L, e.V))
    assert len(msgs) == 1 and "blocked Cholesky" in msgs[0]
    assert "in 2 blocks accepted the pair; beta " in msgs[0]
    # with the deciding step's wall time: compression plus decomposition
    assert re.search(r"\(n=300, p=10, \d+\.\d ms\)$", msgs[0])
    assert decompositions.orders == [("cholesky", 256), ("cholesky", 34)]
    # a caller that needs the spectrum has its one decomposition decide
    for spectrum, name in (("values", "eigvalsh"), ("vectors", "eigh")):
        decompositions.orders.clear()
        r, msgs = logged(lambda: make_nnp(L, e.V, spectrum=spectrum))
        assert len(msgs) == 1
        assert f"{name} (requested by the caller) decided with min eigenvalue" in msgs[0]
        assert "q = 5" in msgs[0] and decompositions.orders == [(name, 290)]
        assert re.search(r"\(n=300, p=10, \d+\.\d ms\)$", msgs[0])
        np.testing.assert_allclose(r.lam, e.lam, rtol=1e-8)
        assert r._bound.beta == pytest.approx(spectrum_bound(L, e.V), rel=1e-6)
        assert re.search(r"; q = 5, 285 unresolved \(n=300, p=10, \d+\.\d ms\)$", msgs[0])
    # the dense path on the translated L decides by the same rule as its
    # factor: the Cholesky accepts, and q = 5 with the centred eigenvalues,
    # each within beta, the bound that max |L| ~ 2e9 sets
    decompositions.orders.clear()
    d, msgs = logged(lambda: make_nnp(tL, t.V))
    assert decompositions.orders == [("cholesky", 256), ("cholesky", 34)]
    assert len(msgs) == 1 and "in 2 blocks accepted the pair" in msgs[0]
    _, msgs = logged(lambda: d.lam)
    assert d.q == 5 and d.U.shape == (300, 5)
    np.testing.assert_allclose(d.lam, centred.process.lam, rtol=0, atol=d._bound.beta)
    assert len(msgs) == 1 and msgs[0].startswith("NNP: eigvalsh of N^T L N read with min ")
    assert msgs[0].endswith("; q = 5, 285 unresolved (n=300, p=10)")


def test_scaling_leaves_minimal_fixed_size_law_invariant():
    e = random_nnp(6, 2, seed=41)
    e2 = make_nnp(5.0 * e.L, e.V)
    for X in itertools.combinations(range(6), 2):
        assert math.exp(fixed_size_log_prob(e, X, 2)) == pytest.approx(
            math.exp(fixed_size_log_prob(e2, X, 2)), abs=1e-10)


# ---------------------------------------------------------------------------
# subset distributions and serialization
# ---------------------------------------------------------------------------


def test_mask_round_trip():
    assert indices_of(mask_of([0, 3, 5])) == (0, 3, 5)
    assert mask_of(indices_of(41)) == 41


def test_subset_distribution_utilities():
    d = SubsetDistribution(2, [mask_of([0]), mask_of([1]), mask_of([0, 1])],
                           [0.5, 0.25, 0.25])
    np.testing.assert_allclose(d.size_marginal(), [0, 0.75, 0.25])
    np.testing.assert_allclose(d.inclusion_vector(), [0.75, 0.5])
    cond = d.conditioned_on_size(1)
    assert cond.prob([0]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        d.conditioned_on_size(0)


def test_subset_distribution_is_sorted_positive_and_read_only():
    d = SubsetDistribution(3, [6, 1, 4, 3], [0.25, 0.5, 0.0, 0.25])
    assert d.masks.tolist() == [1, 3, 6] and d.values.tolist() == [0.5, 0.25, 0.25]
    assert list(d.probs.items()) == [(1, 0.5), (3, 0.25), (6, 0.25)]
    assert d.prob([2]) == 0.0 and 4 not in d.probs
    with pytest.raises(TypeError):
        d.probs[4] = 0.5
    with pytest.raises(ValueError):
        d.values[0] = 1.0
    for masks in ([1, 1], [8], [-1]):
        with pytest.raises(ValueError, match="distinct subsets"):
            SubsetDistribution(3, masks, [0.5] * len(masks))


def test_subset_distribution_holds_index_62():
    # mask 2^62 is the largest bit an int64 bitmask holds
    top = 1 << 62
    d = SubsetDistribution(63, [top | 1, top, 1], [0.5, 0.25, 0.25])
    assert d.masks.tolist() == [1, top, top | 1]
    assert d.prob([62]) == 0.25 and d.prob([0, 62]) == 0.5
    incl = d.inclusion_vector()
    assert incl[62] == 0.75 and incl[0] == 0.75 and not incl[1:62].any()
    np.testing.assert_array_equal(d.size_marginal()[:3], [0, 0.5, 0.5])
    assert d.conditioned_on_size(1).prob([62]) == 0.5


def json_text(e) -> str:
    """The JSON text of e as limit writes it: streamed through write_json."""
    parts: list[bytes] = []
    write_json(nnp_to_dict(e), parts.append)
    return b"".join(parts).decode("ascii")


def b64_block(arr) -> dict:
    """The file format's block of arr, encoded here rather than by the
    library: base64 of its float64 entries in column-major order."""
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes("F")).decode()}


def text_record(e) -> dict:
    """e's record with each array as its block, for json.dumps."""
    rec = {**nnp_to_dict(e), "L": b64_block(e.L), "V": b64_block(e.V)}
    if e.factor is not None:
        rec["factor"] = {"B": b64_block(e.factor[0]), "C": b64_block(e.factor[1])}
    return rec


def reread(obj, tmp_path):
    """obj written by write_json to a file and read back by read_json."""
    path = tmp_path / "record.json"
    with path.open("wb") as fh:
        write_json(obj, fh.write)
    return read_json(path)


def test_json_round_trip(tmp_path):
    e = random_nnp(5, 2, seed=43)
    e2 = nnp_from_dict(reread(nnp_to_dict(e), tmp_path))
    np.testing.assert_array_equal(e2.L, e.L)
    np.testing.assert_array_equal(e2.V, e.V)
    for X in ([0], [1, 3], [0, 2, 4]):
        assert log_prob(e2, X) == pytest.approx(log_prob(e, X), abs=1e-12)


def test_json_stores_no_tolerance(tmp_path):
    e = random_nnp(5, 2, seed=43)
    obj = reread(nnp_to_dict(e), tmp_path)
    assert obj.keys() == {"n", "p", "L", "V"}
    # older records hold a psd_tol, null or a number; it is not read
    for tol in (None, 1e-6, 1.5e-10):
        e2 = nnp_from_dict({**obj, "psd_tol": tol})
        assert (e2.q, e2._bound) == (e.q, e._bound)


@pytest.mark.parametrize("key,value", [("n", 7), ("n", 30.0), ("p", "x"), ("p", 4)])
@pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
def test_record_n_and_p_must_be_the_pairs(key, value, factored):
    kernel, m = ("gaussian", 4) if factored else ("exponential", 5)
    e = fixed_size_limit(uniform_points(30, 2, seed=5), builtin_kernel(kernel), m).process
    assert (e.factor is not None) == factored
    obj = nnp_to_dict(e)
    with pytest.raises(ValueError, match=rf"^ensemble record: {key} {re.escape(repr(value))} "
                                         rf"does not match the pair's {getattr(e, key)}$"):
        nnp_from_dict({**obj, key: value})
    # a record may omit either
    del obj[key]
    assert nnp_from_dict(obj).q == e.q


def test_json_text_is_json_dumps_of_the_dict(monkeypatch):
    e = random_nnp(30, 2, seed=44)
    text = json.dumps(text_record(e))
    # any chunk size that is a multiple of 3 writes the same text
    for chunk in (3, 24, 8 * 30 * 30 + 3, 3 << 16):
        monkeypatch.setattr(store, "_CHUNK_BYTES", chunk)
        assert json_text(e) == text


def test_write_json_needs_str_keys():
    with pytest.raises(TypeError, match="not a str"):
        write_json({1: 2}, lambda b: None)


def test_reload_hands_make_nnp_the_decoded_bytes_without_a_copy(monkeypatch, decompositions,
                                                                tmp_path):
    """At make_nnp's entry only the decoded bytes of L and V are new, the
    file's bytes aside: no str copy of the base64 text and no copy of the
    decoded arrays. The requested spectrum reaches make_nnp, whose one
    eigvalsh decides."""
    e = random_nnp(1000, 2, seed=45)
    path = tmp_path / "e.json"
    path.write_text(json_text(e))
    seen = {}

    def spy(L, V, *, spectrum=None):
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        seen["writeable"] = (L.flags.writeable, V.flags.writeable)
        seen["spectrum"] = spectrum
        return make_nnp(L, V, spectrum=spectrum)

    monkeypatch.setattr(ensembles, "make_nnp", spy)
    decompositions.orders.clear()
    tracemalloc.start()
    try:
        e2 = nnp_from_dict(read_json(path), spectrum="values")
    finally:
        tracemalloc.stop()
    assert seen["writeable"] == (False, False) and seen["spectrum"] == "values"
    assert decompositions.orders == [("eigvalsh", 998)]
    # a decode through base64.b64decode and a copy peaked at 2.3 times this
    assert seen["peak"] - path.stat().st_size < 1.25 * (e.L.nbytes + e.V.nbytes)
    assert e2.L.tobytes() == e.L.tobytes() and e2.V.tobytes() == e.V.tobytes()
    assert e2.L.flags.writeable is False
    np.testing.assert_array_equal(e2.lam, e.lam)


def decoded_bytes(block: np.ndarray) -> np.ndarray:
    """The bytes a decoded block views, as a uint8 array over them."""
    base = block
    while isinstance(base, np.ndarray):
        base = base.base
    assert isinstance(base, bytes)
    return np.frombuffer(base, dtype=np.uint8)


#: A dense limit (L = -D, V = 1) and a Wronskian one (a 5 x 5 factor, p = 10).
LIMITS = {"dense": ("exponential", 10), "factored": ("gaussian", 13)}


@pytest.mark.parametrize("kind", LIMITS)
def test_reload_keeps_the_decoded_blocks(tmp_path, kind):
    kernel, m = LIMITS[kind]
    e = fixed_size_limit(uniform_points(60, 2, seed=64), builtin_kernel(kernel), m).process
    record = reread(nnp_to_dict(e), tmp_path)
    e2 = nnp_from_dict(record)
    if kind == "dense":
        kept = {"L": e2.L, "V": e2.V}
        assert e2.L.tobytes() == e.L.tobytes()
        np.testing.assert_array_equal(e2.lam, e.lam)
    else:
        kept = {"V": e2.V, "B": e2.factor[0], "C": e2.factor[1]}
        # the factored pair's L is its own product B C B^T
        assert not np.shares_memory(e2.L, record["L"])
    blocks = {**record, **record.get("factor", {})}
    for key, arr in kept.items():
        assert np.shares_memory(arr, decoded_bytes(blocks[key])), key


@pytest.mark.parametrize("kind", LIMITS)
def test_rewriting_a_reloaded_record_copies_nothing(tmp_path, kind):
    """A reloaded record is written again from the blocks it kept: less than
    an eighth of one n x n float64 array is allocated besides the L that a
    factored pair, which keeps only its factor, forms once for the record;
    and the bytes are the file's."""
    n = 1000
    kernel, m = LIMITS[kind]
    e = fixed_size_limit(uniform_points(n, 2, seed=65), builtin_kernel(kernel), m).process
    path = tmp_path / "e.json"
    with path.open("wb") as fh:
        write_json(nnp_to_dict(e), fh.write)
    e2 = nnp_from_dict(read_json(path))
    digest = hashlib.sha256()
    tracemalloc.start()
    try:
        write_json(nnp_to_dict(e2), digest.update)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    formed = n * n * 8 if kind == "factored" else 0
    assert peak < formed + n * n * 8 / 8
    assert digest.digest() == hashlib.sha256(path.read_bytes()).digest()


def test_read_json_decodes_each_block_as_it_parses(tmp_path):
    e = ensembles.make_factored_nnp(np.arange(12.0).reshape(6, 2), np.eye(2),
                                    np.ones((6, 1)))
    path = tmp_path / "e.json"
    text = {"nnp": text_record(e), "fixed_size": 3}
    path.write_text(json.dumps(text))
    obj = read_json(path)
    assert obj["fixed_size"] == 3 and "psd_tol" not in obj["nnp"]
    for parsed, raw, keys in ((obj["nnp"], text["nnp"], "LV"),
                              (obj["nnp"]["factor"], text["nnp"]["factor"], "BC")):
        for key in keys:
            assert isinstance(parsed[key], np.ndarray) and not parsed[key].flags.writeable
            assert parsed[key].tobytes("F") == base64.b64decode(raw[key]["data"])
    # the record reloads, twice, to the pair it was written from
    for _ in range(2):
        e2 = nnp_from_dict(obj["nnp"])
        assert e2.L.tobytes() == e.L.tobytes()
        np.testing.assert_array_equal(e2.lam, e.lam)
    # blocks are arrays: a record of text blocks is malformed
    with pytest.raises(ValueError, match="^ensemble record: 'L' is not a block"):
        nnp_from_dict(text["nnp"])


def test_encode_writes_column_major_whatever_the_layout(tmp_path):
    A = np.arange(12.0).reshape(3, 4)
    column_major = base64.b64encode(A.T.copy().tobytes()).decode()
    wide = np.zeros((3, 8))
    wide[:, ::2] = A
    for arr in (A, np.asfortranarray(A), wide[:, ::2]):
        parts: list[bytes] = []
        write_json(arr, parts.append)
        assert json.loads(b"".join(parts)) == {"shape": [3, 4], "data": column_major}
        view = reread({"A": arr}, tmp_path)["A"]
        assert not view.flags.writeable
        np.testing.assert_array_equal(view, A)


class Rows:
    """A block source of a symmetric array: its row blocks of r rows."""

    def __init__(self, A, r):
        self.A, self.r, self.shape = A, r, A.shape

    def row_blocks(self):
        for lo in range(0, self.shape[0], self.r):
            yield self.A[lo:lo + self.r]


@pytest.mark.parametrize("chunk", [3, 24, 3 << 16])
def test_a_block_source_writes_the_bytes_of_its_array(monkeypatch, chunk):
    # rows of 7 or 5 entries hold 56 or 40 bytes: 2 or 1 left over per block
    monkeypatch.setattr(store, "_CHUNK_BYTES", chunk)
    for n, r in ((7, 1), (7, 3), (5, 2), (5, 5), (40, 9)):
        A = np.random.default_rng(n).standard_normal((n, n))
        A += A.T
        expected, parts = [], []
        write_json({"L": A}, expected.append)
        write_json({"L": Rows(A, r)}, parts.append)
        assert b"".join(parts) == b"".join(expected)


def test_a_distance_record_streams_row_blocks_of_at_most_2_mib(monkeypatch):
    e = fixed_size_limit(uniform_points(1000, 2, seed=3), builtin_kernel("exponential"), 10).process
    rows = ensembles._Distance.rows
    seen = []

    def spy(self, lo, hi, scale=1.0):
        block = rows(self, lo, hi, scale)
        seen.append(block.nbytes)
        return block

    monkeypatch.setattr(ensembles._Distance, "rows", spy)
    parts = []
    write_json(nnp_to_dict(e), parts.append)
    assert sum(seen) == 8 * 1000 * 1000 and max(seen) <= 2 << 20 and len(seen) == 4
    assert b"".join(parts) == json_text(make_nnp(e.L, e.V)).encode()


# ---------------------------------------------------------------------------
# the skeleton reader and the zero kind of L
# ---------------------------------------------------------------------------


def assert_same(a, b):
    """a and b are the same reading: equal values, and arrays with equal
    shape, column-major bytes and write flag."""
    assert type(a) is type(b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert (a.shape, a.flags.writeable) == (b.shape, b.flags.writeable)
        assert a.tobytes("F") == b.tobytes("F")
    else:
        assert a == b


def whole_parse(raw: bytes):
    """The reference reading of raw: one json.loads of the whole text, each
    block {"shape", "data"} decoded here by base64.b64decode."""
    def block(obj):
        if obj.keys() != {"shape", "data"}:
            return obj
        return np.frombuffer(base64.b64decode(obj["data"])).reshape(obj["shape"], order="F")

    return json.loads(raw, object_hook=block)


def _record_corpus():
    """(name, text, outcome): the outcome is "ok" (read_json returns the
    reference reading), "record" (a ValueError starting "ensemble record:")
    or "json" (json.loads's own error)."""
    e = random_nnp(60, 3, seed=50)
    rec = text_record(e)
    L, V = rec["L"]["data"], rec["V"]["data"]
    other = text_record(random_nnp(60, 3, seed=51))["L"]["data"]
    zero = base64.b64encode(bytes(8 * 3600)).decode()
    negative_zero = base64.b64encode(np.array([-0.0] + [0.0] * 3599).tobytes()).decode()
    dumps = json.dumps
    block = '{"shape": [60, 60], "data": "%s"}'
    # records as limit writes them, and as other writers may
    yield "limit", json_text(e), "ok"
    yield "compact", dumps({"nnp": rec, "fixed_size": 3}, separators=(",", ":")), "ok"
    yield "indented", dumps({"nnp": rec, "fixed_size": None}, indent=2), "ok"
    yield "data-before-shape", dumps({"L": {"data": L, "shape": [60, 60]},
                                      "V": {"data": V, "shape": [60, 3]}}), "ok"
    yield "spaced-colon", '{"L": {"shape": [60, 60], "data" \n:\t "%s"}}' % L, "ok"
    yield "repeated-data", '{"L": {"shape": [60, 60], "data": "%s", "data": "%s"}}' % (
        other, L), "record"
    yield "repeated-shape", dumps({"L": {"shape": [60, 60], "data": L}})[:-2] + \
        ', "shape": [60, 60]}}', "record"
    yield "repeated-short-last", ('{"L": {"shape": [60, 60], "data": "%s", "data": "AAAA"}}'
                                  % L), "record"
    yield "repeated-block", '{"L": %s, "L": %s}' % (block % other, block % L), "ok"
    yield "long-label", dumps({"label": "x" * 10240, "nnp": rec}), "ok"
    yield "long-data-outside-a-block", dumps({"data": L, "nnp": rec}), "record"
    yield "long-data-beside-other-keys", dumps({"L": {"shape": [60, 60], "data": L,
                                                      "note": 1}}), "record"
    yield "data-as-a-value", dumps({"kind": "data", "x": L, "data2": L,
                                    "data": ["data", L]}), "record"
    yield "data-in-a-list", dumps([{"data": L}, {"shape": [60, 60], "data": L}]), "record"
    yield "escapes-beside-a-block", dumps({"a\\\"": "q \" \\ \\\" \\\\", "nnp": rec,
                                           "b": "\\", "data": "\\\" x" + L}), "record"
    yield "escapes-beside-a-non-ascii-block", dumps(
        {"b": "\\", "L": {"shape": [60, 60], "data": L[:100] + "é" + L[100:]}},
        ensure_ascii=False), "record"
    yield "quoted-data-in-a-string", dumps({"note": '"data": "' + L + '"', "nnp": rec}), "ok"
    yield "nul-escape-elsewhere", dumps({"note": "\0", "nnp": rec}), "ok"
    yield "unicode-beside-a-block", dumps({"note": "é\u2603", "nnp": rec},
                                          ensure_ascii=False), "ok"
    yield "zero", dumps({"L": {"shape": [60, 60], "data": zero}}), "ok"
    yield "negative-zero", dumps({"L": {"shape": [60, 60], "data": negative_zero}}), "ok"
    yield "wrong-shape", dumps({"L": {"shape": [60, 61], "data": L}}), "record"
    yield "zero-wrong-shape", dumps({"L": {"shape": [59, 60], "data": zero}}), "record"
    yield "shape-not-a-list", dumps({"L": {"shape": "60x60", "data": L}}), "record"
    # blocks that strict base64 refuses, and one it takes
    yield "truncated", dumps({"L": {"shape": [60, 60], "data": L[:-3]}}), "record"
    yield "truncated-by-four", dumps({"L": {"shape": [60, 60], "data": L[:-4]}}), "record"
    yield "non-alphabet", dumps({"L": {"shape": [60, 60],
                                       "data": L[:100] + "*!" + L[100:]}}), "record"
    yield "space-inside", dumps({"L": {"shape": [60, 60],
                                       "data": L[:100] + " " + L[100:]}}), "record"
    yield "excess-padding", dumps({"L": {"shape": [60, 60], "data": L + "===="}}), "ok"
    yield "non-ascii", dumps({"L": {"shape": [60, 60], "data": L[:100] + "é" + L[100:]}},
                             ensure_ascii=False), "record"
    # documents json.loads refuses
    yield "cut-short", json_text(e)[:-10], "json"
    yield "missing-comma", '{"L": {"shape": [60, 60] "data": "%s"}}' % L, "json"
    yield "extra-data", '{"L": {"shape": [60, 60], "data": "%s"}} 1' % L, "json"
    yield "control-character", '{"L": {"shape": [60, 60], "data": "%s\t%s"}}' % (L, L), "json"
    yield "dropped-control-character", '{"data": "%s\t", "data": 1}' % L, "json"
    yield "dropped-control-character-in-a-block", ('{"L": {"shape": [1, 1], "data": "x\ty", '
                                                   '"data": "AAAAAAAA8D8="}}'), "json"
    yield "data-after-a-string", '{"a": "x"data": "%s"}' % L, "json"
    yield "unterminated", '{"L": {"shape": [60, 60], "data": "%s' % L, "json"


@pytest.mark.parametrize("name,text,outcome", list(_record_corpus()),
                         ids=[c[0] for c in _record_corpus()])
def test_read_json_returns_what_a_whole_parse_returns(tmp_path, name, text, outcome):
    path = tmp_path / "r.json"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    raw = path.read_bytes()
    if outcome == "json":
        with pytest.raises(ValueError) as whole:
            json.loads(raw)
        with pytest.raises(ValueError) as read:
            read_json(path)
        assert (type(read.value), str(read.value)) == (type(whole.value), str(whole.value))
        return
    if outcome == "record":
        json.loads(raw)
        with pytest.raises(ValueError, match="^ensemble record: "):
            read_json(path)
        return
    expected, got = whole_parse(raw), read_json(path)
    assert_same(got, expected)
    # a record reloads to the pair of the reference reading
    record = got.get("nnp", got)
    if "V" in record:
        assert nnp_from_dict(record).L.tobytes() == \
            nnp_from_dict(expected.get("nnp", expected)).L.tobytes()


@pytest.mark.parametrize("encoding", ["utf-16", "utf-32", "utf-8-sig"])
def test_read_json_reads_other_encodings_as_utf8(tmp_path, encoding):
    path = tmp_path / "r.json"
    path.write_bytes(json.dumps({"nnp": text_record(random_nnp(60, 3, seed=52)),
                                 "note": "é\u2603"}, ensure_ascii=False).encode(encoding))
    got = read_json(path)
    assert_same(got, whole_parse(path.read_bytes()))
    assert isinstance(got["nnp"]["L"], np.ndarray)


def test_read_json_parses_only_the_skeleton(tmp_path, monkeypatch):
    """json.loads sees a few hundred characters of a 60-point record, not its
    17 kB base64 text, and each block is decoded once, from the file's bytes."""
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"nnp": text_record(random_nnp(60, 3, seed=53))}))
    parsed, decoded = [], []
    loads, a2b = json.loads, binascii.a2b_base64
    monkeypatch.setattr(json, "loads", lambda s, **kw: parsed.append(len(s)) or loads(s, **kw))
    monkeypatch.setattr(binascii, "a2b_base64",
                        lambda data, **kw: decoded.append(type(data)) or a2b(data, **kw))
    obj = read_json(path)
    assert isinstance(obj["nnp"]["L"], np.ndarray) and len(parsed) == 1 and parsed[0] < 300
    assert decoded == [memoryview, memoryview]


def test_zero_block_reads_as_the_zero_kind(tmp_path, caplog):
    V = np.ones((50, 1))
    path = tmp_path / "z.json"
    path.write_text(json.dumps(text_record(make_nnp(np.zeros((50, 50)), V))))
    with caplog.at_level(logging.DEBUG, logger="flatdpp.store"):
        record = read_json(path)
    assert any("read as the zero kind" in r.getMessage() for r in caplog.records)
    L = record["L"]
    assert L.shape == (50, 50) and L.strides == (0, 0) and not L.flags.writeable
    assert L.tobytes() == bytes(8 * 2500)
    e = nnp_from_dict(record)
    assert e.L.strides == (0, 0) and (e.p, e.q) == (1, 0)
    # a -0.0 entry keeps the block dense, as does one nonzero bit
    for first in (-0.0, 5e-324):
        L = np.zeros((50, 50))
        L[0, 0] = first
        path.write_text(json.dumps(text_record(make_nnp(L, V))))
        block = read_json(path)["L"]
        assert block.strides == (8, 400) and block.tobytes("F") == L.tobytes("F")


def test_zero_kind_skips_the_sweep(monkeypatch, caplog, decompositions):
    def no_sweep(L, out=None):
        raise AssertionError("swept the zero kind")

    zero = np.broadcast_to(0.0, (300, 300))
    V = np.random.default_rng(54).standard_normal((300, 4))
    dense = make_nnp(np.zeros((300, 300)), V)
    monkeypatch.setattr(ensembles, "_symmetrized", no_sweep)
    with caplog.at_level(logging.DEBUG, logger="flatdpp.ensembles"):
        e = make_nnp(zero, V, spectrum="vectors")
    assert "L is the zero kind" in caplog.records[0].getMessage()
    # beta = n eps (max |L| + ||M||_F) is 0 for L = 0
    assert e.L is zero and (e.p, e.q, e._bound.beta) == (4, 0, 0.0)
    assert e.U.shape == (300, 0) and decompositions.orders == []
    assert log_unnorm_prob(e, [0, 1, 2, 3]) == log_unnorm_prob(dense, [0, 1, 2, 3])
    # -0.0 or any other constant is no zero kind: the sweep reads it
    for value in (-0.0, 1.0):
        with pytest.raises(AssertionError, match="swept"):
            make_nnp(np.broadcast_to(value, (300, 300)), V)


def test_projection_limits_hold_the_zero_kind():
    ps = uniform_points(40, 2, seed=55)
    gaussian = builtin_kernel("gaussian")
    for res in (fixed_size_limit(ps, gaussian, 10), fixed_size_limit(ps, gaussian, 40),
                varying_size_limit(ps, gaussian, 3)):
        assert res.process.L.strides == (0, 0) and res.process.q == 0


@pytest.mark.parametrize("chunk", [3, 24, 8 * 7 * 7 + 3, 3 << 16])
def test_zero_kind_writes_the_bytes_of_a_dense_zero(monkeypatch, chunk):
    monkeypatch.setattr(store, "_CHUNK_BYTES", chunk)
    for n in (1, 7, 40):
        V = np.ones((n, 1))
        dense = json_text(make_nnp(np.zeros((n, n)), V))
        zero_kind = make_nnp(np.broadcast_to(0.0, (n, n)), V)
        assert json_text(zero_kind) == dense


def test_zero_kind_limit_and_reload_stay_small(tmp_path):
    """A 2000-point projection limit, and the reload of its record, allocate
    less than an eighth of one n x n float64 array (the file's bytes aside);
    its record is the one a dense zero L writes."""
    n = 2000
    ps = uniform_points(n, 2, seed=56)
    gaussian = builtin_kernel("gaussian")
    tracemalloc.start()
    try:
        res = fixed_size_limit(ps, gaussian, 10)
        peak_limit = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = json_text(res.process)
    assert text == json.dumps(text_record(make_nnp(np.zeros((n, n)), res.process.V)))
    path = tmp_path / "z.json"
    path.write_text(text)
    del text
    tracemalloc.start()
    try:
        e = nnp_from_dict(read_json(path))
        peak_file = tracemalloc.get_traced_memory()[1] - path.stat().st_size
    finally:
        tracemalloc.stop()
    assert e.L.strides == (0, 0) and (e.p, e.q) == (10, 0)
    assert max(peak_limit, peak_file) < n * n * 8 / 8
