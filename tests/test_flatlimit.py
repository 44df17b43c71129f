import gc
import itertools
import math

import numpy as np
import pytest

from flatdpp import _numerics, flatlimit
from flatdpp.diagnostics import brute_force_distribution, tv_distance
from flatdpp.ensembles import CPDViolationError, log_unnorm_prob, make_nnp, size_distribution
from flatdpp.flatlimit import (
    FINITE_SMOOTHNESS,
    FULL_SET,
    NONMAGIC_WRONSKIAN,
    PROJECTION_SMOOTH,
    VARYING_FINITE,
    VARYING_PROJECTION,
    VARYING_WRONSKIAN,
    classify_fixed,
    default_ensemble,
    fixed_size_limit,
    limit_size_distribution,
    scaled_ensemble,
    varying_size_limit,
)
from flatdpp.geometry import PointSet, distance_power_matrix, uniform_points
from flatdpp.kernels import builtin_kernel, custom_kernel, kernel_matrix
from flatdpp.polybasis import count_poly, orthonormal_basis, vandermonde, vandermonde_block
from flatdpp.wronskian import schur_block, wronskian_matrix

GAUSS = builtin_kernel("gaussian")
EXPO = builtin_kernel("exponential")
R2A = builtin_kernel("(1+d)exp(-d)")
R2B = builtin_kernel("sin(d+pi/4)exp(-d)")
R3 = builtin_kernel("(3+3d+d^2)exp(-d)")


# ---------------------------------------------------------------------------
# regime dispatch
# ---------------------------------------------------------------------------


def test_dispatch_is_total_and_unique():
    for d in (1, 2, 3):
        for r in (1, 2, 3, 5, math.inf):
            for m in range(1, 30):
                regime, k = classify_fixed(d, r, m)
                assert regime in (PROJECTION_SMOOTH, NONMAGIC_WRONSKIAN,
                                  FINITE_SMOOTHNESS)


def test_dispatch_d1_never_hits_wronskian():
    for r in range(1, 13):
        for m in range(1, 13):
            regime, _ = classify_fixed(1, r, m)
            assert regime != NONMAGIC_WRONSKIAN
            assert regime == (PROJECTION_SMOOTH if m <= r else FINITE_SMOOTHNESS)


def test_dispatch_magic_boundary_routes_to_projection():
    # d=2: sizes 1, 3, 6, 10 are magic
    for m, k in [(1, 0), (3, 1), (6, 2), (10, 3)]:
        regime, kk = classify_fixed(2, math.inf, m)
        assert regime == PROJECTION_SMOOTH and kk == k
    regime, k = classify_fixed(2, math.inf, 4)
    assert regime == NONMAGIC_WRONSKIAN and k == 2
    regime, k = classify_fixed(2, 2, 4)
    assert regime == FINITE_SMOOTHNESS and k == 2  # 4 > P_{1,2} = 3


# ---------------------------------------------------------------------------
# fixed-size limits
# ---------------------------------------------------------------------------


def test_smooth_univariate_limit_is_squared_vandermonde():
    ps = uniform_points(8, 1, seed=42)
    res = fixed_size_limit(ps, GAUSS, 5)
    assert res.regime == PROJECTION_SMOOTH and res.metadata["k"] == 4
    dist = brute_force_distribution(res.process, 5)
    x = ps.coords[:, 0]
    weights = {}
    for X in itertools.combinations(range(8), 5):
        weights[X] = np.prod([(x[i] - x[j]) ** 2
                              for i, j in itertools.combinations(X, 2)])
    Z = sum(weights.values())
    for X, w in weights.items():
        assert dist.prob(X) == pytest.approx(w / Z, rel=1e-10)


def test_finite_smoothness_univariate_limit_is_gap_product():
    ps = uniform_points(8, 1, seed=42)
    res = fixed_size_limit(ps, EXPO, 5)
    assert res.regime == FINITE_SMOOTHNESS and res.metadata["r"] == 1
    np.testing.assert_allclose(res.process.L, -distance_power_matrix(ps, 1))
    x = np.sort(ps.coords[:, 0])
    for X in itertools.combinations(range(8), 5):
        logabs, sign = log_unnorm_prob(res.process, X)
        gaps = np.diff(np.sort(ps.coords[list(X), 0]))
        assert sign * math.exp(logabs) == pytest.approx(
            2.0 ** 4 * np.prod(gaps), rel=1e-10)


def test_bivariate_magic_size_is_projection():
    ps = uniform_points(7, 2, seed=3)
    res = fixed_size_limit(ps, GAUSS, 6)
    assert res.regime == PROJECTION_SMOOTH and res.metadata["k"] == 2
    assert res.process.p == 6


def test_bivariate_nonmagic_uses_wronskian_block():
    ps = uniform_points(7, 2, seed=3)
    res = fixed_size_limit(ps, GAUSS, 4)
    assert res.regime == NONMAGIC_WRONSKIAN
    assert res.metadata["bracket"] == (3, 6)
    Wbar = schur_block(wronskian_matrix(GAUSS, 2, 2), 3)
    V2 = np.column_stack([ps.coords[:, 0] ** 2,
                          ps.coords[:, 0] * ps.coords[:, 1],
                          ps.coords[:, 1] ** 2])
    np.testing.assert_allclose(res.process.L, V2 @ Wbar @ V2.T, atol=1e-12)
    assert res.process.p == 3


def test_parabola_set_has_zero_probability_in_smooth_limit():
    xs = np.array([-1.0, -0.6, -0.2, 0.2, 0.6, 1.0])
    pts = np.vstack([np.stack([xs, xs**2], axis=1), [[0.5, 0.6]]])
    ps = PointSet(pts)
    res = fixed_size_limit(ps, GAUSS, 6)
    dist = brute_force_distribution(res.process, 6)
    assert dist.prob([0, 1, 2, 3, 4, 5]) <= 1e-12
    assert dist.prob([1, 2, 3, 4, 5, 6]) > 0


def test_produced_ensembles_are_cpd():
    ps1 = uniform_points(8, 1, seed=0)
    ps2 = uniform_points(8, 2, seed=1)
    cases = [(ps1, GAUSS, 4), (ps1, EXPO, 3), (ps1, R2A, 5), (ps1, R3, 6),
             (ps2, GAUSS, 4), (ps2, GAUSS, 6), (ps2, EXPO, 5), (ps2, R2A, 7)]
    for ps, kern, m in cases:
        e = fixed_size_limit(ps, kern, m).process
        assert np.all(e.lam >= 0)
        proj = np.eye(e.n) - e.Q @ e.Q.T
        w = np.linalg.eigvalsh(proj @ e.L @ proj)
        assert w.min() >= -1e-10 * (1 + abs(w).max())


def test_full_set_short_circuit():
    ps = uniform_points(5, 1, seed=2)
    res = fixed_size_limit(ps, GAUSS, 5)
    assert res.regime == FULL_SET
    dist = brute_force_distribution(res.process, 5)
    assert dist.prob(range(5)) == pytest.approx(1.0)


def test_size_bounds_checked():
    ps = uniform_points(4, 1, seed=3)
    with pytest.raises(ValueError):
        fixed_size_limit(ps, GAUSS, 5)
    with pytest.raises(ValueError):
        fixed_size_limit(ps, GAUSS, 0)


def test_truncation_shorter_than_needed_degree():
    k = custom_kernel([1.0, 0.0, -1.0, 0.0, 0.5])  # J = 4, completely smooth
    ps = uniform_points(9, 2, seed=4)
    with pytest.raises(ValueError, match="Taylor"):
        fixed_size_limit(ps, k, 8)  # needs the degree-3 Wronskian, f_6


def test_bivariate_regimes_converge():
    from flatdpp.diagnostics import brute_force_distribution as bf
    from flatdpp.diagnostics import eps_ensemble_distribution, tv_distance
    ps = uniform_points(8, 2, seed=21)
    cases = [(GAUSS, 3), (GAUSS, 6), (EXPO, 5), (R2A, 4)]
    for kern, m in cases:
        target = bf(fixed_size_limit(ps, kern, m).process, m)
        coarse = tv_distance(eps_ensemble_distribution(ps, kern, 4.0, m=m), target)
        fine = tv_distance(eps_ensemble_distribution(ps, kern, 1e-3, m=m), target)
        assert fine <= coarse
        assert fine <= 2e-2


def test_universality_of_equal_smoothness_kernels():
    ps = uniform_points(8, 1, seed=42)
    for m in (3, 5):
        d1 = brute_force_distribution(fixed_size_limit(ps, R2A, m).process, m)
        d2 = brute_force_distribution(fixed_size_limit(ps, R2B, m).process, m)
        keys = set(d1.probs) | set(d2.probs)
        gap = max(abs(d1.probs.get(k, 0) - d2.probs.get(k, 0)) for k in keys)
        assert gap <= 1e-8


# ---------------------------------------------------------------------------
# varying-size limits
# ---------------------------------------------------------------------------


def test_varying_smooth_odd_scaling_is_fixed_pair_law():
    ps = uniform_points(5, 1, seed=7)
    res = varying_size_limit(ps, GAUSS, 3)
    assert res.regime == VARYING_PROJECTION and res.fixed_size == 2
    dist = brute_force_distribution(res.process, 2)
    x = ps.coords[:, 0]
    weights = {X: (x[X[0]] - x[X[1]]) ** 2
               for X in itertools.combinations(range(5), 2)}
    Z = sum(weights.values())
    for X, w in weights.items():
        assert dist.prob(X) == pytest.approx(w / Z, rel=1e-10)


def test_varying_critical_scaling_exponential():
    ps = uniform_points(5, 1, seed=7)
    alpha = 1.3
    res = varying_size_limit(ps, EXPO, 1, alpha)
    assert res.regime == VARYING_FINITE
    # law proportional to (2 alpha)^m * product of consecutive gaps: the
    # bordered determinant is alpha^(m-1) * 2^(m-1) * prod(gaps), so the
    # ratio to (2 alpha)^m * prod(gaps) is constant 1/(2 alpha)
    x = ps.coords[:, 0]
    ratios = []
    for size in (1, 2, 3, 4):
        for X in itertools.combinations(range(5), size):
            logabs, sign = log_unnorm_prob(res.process, X)
            gaps = np.prod(np.diff(np.sort(x[list(X)])))
            ratios.append(sign * math.exp(logabs) / ((2 * alpha) ** size * gaps))
    np.testing.assert_allclose(ratios, np.full(len(ratios), 1 / (2 * alpha)),
                               rtol=1e-9)


def test_varying_rough_kernel_oversized_scaling_gives_full_set():
    ps = uniform_points(5, 1, seed=7)
    res = varying_size_limit(ps, EXPO, 3)
    assert res.regime == FULL_SET
    vec = limit_size_distribution(ps, EXPO, 3)
    assert vec[5] == 1.0


def test_varying_small_ground_set_gives_full_set():
    ps = uniform_points(5, 1, seed=8)
    res = varying_size_limit(ps, GAUSS, 13)  # l = 7, P_{6,1} = 7 >= 5
    assert res.regime == FULL_SET


def test_varying_even_scaling_uses_wronskian():
    ps = uniform_points(5, 1, seed=9)
    res = varying_size_limit(ps, GAUSS, 2, alpha=0.7)
    assert res.regime == VARYING_WRONSKIAN and res.fixed_size is None
    # l = 1: L = alpha * V_1 Wbar V_1^T with Wbar = [[2]] for the gaussian
    x = ps.coords[:, :1]
    np.testing.assert_allclose(res.process.L, 0.7 * 2.0 * (x @ x.T), atol=1e-12)
    assert res.process.p == 1


def test_varying_zero_scaling_keeps_constant_feature():
    ps = uniform_points(4, 1, seed=10)
    res = varying_size_limit(ps, GAUSS, 0, alpha=2.0)
    assert res.regime == VARYING_WRONSKIAN and res.process.p == 0
    np.testing.assert_allclose(res.process.L, 2.0 * np.ones((4, 4)), atol=1e-12)


def test_varying_sign_condition_violation_raises():
    k = custom_kernel([1.0, 1.0])  # f_1 = +1 breaks sign(f_1) = -1
    ps = uniform_points(4, 1, seed=11)
    with pytest.raises(CPDViolationError, match="sign"):
        varying_size_limit(ps, k, 1)


def test_varying_param_validation():
    ps = uniform_points(4, 1, seed=12)
    with pytest.raises(ValueError):
        varying_size_limit(ps, GAUSS, -1)
    with pytest.raises(ValueError):
        varying_size_limit(ps, GAUSS, 1, alpha=0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
@pytest.mark.parametrize("kernel, p, regime", [
    (GAUSS, 3, VARYING_PROJECTION), (GAUSS, 2, VARYING_WRONSKIAN),
    (EXPO, 1, VARYING_FINITE), (EXPO, 5, FULL_SET)])
def test_alpha_that_is_not_finite_is_refused(kernel, p, regime, alpha):
    ps = uniform_points(4, 1, seed=12)
    assert varying_size_limit(ps, kernel, p).regime == regime
    with pytest.raises(ValueError, match="alpha must be a finite positive number"):
        varying_size_limit(ps, kernel, p, alpha=alpha)


# ---------------------------------------------------------------------------
# limiting size distributions
# ---------------------------------------------------------------------------


def test_limit_size_point_masses():
    ps = uniform_points(6, 1, seed=13)
    vec = limit_size_distribution(ps, EXPO, 5)  # r = 1 < 3
    assert vec[6] == 1.0
    vec = limit_size_distribution(ps, GAUSS, 3)  # p odd, fixed size P_{1,1} = 2
    assert vec[2] == 1.0


def _projected_size_law(ps, kern, p, alpha):
    """Size law of a non-point-mass varying limit, from the regime formula for
    L and eigvalsh((I - QQ^T) L (I - QQ^T)), independently of make_nnp."""
    l = (p + 1) // 2
    if kern.smoothness > (p + 1) / 2:
        Vl = vandermonde_block(ps, l)
        W = wronskian_matrix(kern, l, ps.d)
        L = alpha * (Vl @ schur_block(W, count_poly(l - 1, ps.d)) @ Vl.T)
    else:
        L = alpha * kern.coeff(p) * distance_power_matrix(ps, p)
    Q = orthonormal_basis(vandermonde(ps, l - 1))
    proj = np.eye(ps.n) - Q @ Q.T
    w = np.linalg.eigvalsh(proj @ L @ proj)
    w = w[w > 1e-12 * np.abs(w).max()]
    law = np.zeros(ps.n + 1)
    law[Q.shape[1]] = 1.0
    for incl in w / (1.0 + w):  # one Bernoulli(incl) per eigenvalue
        law = law * (1.0 - incl) + np.concatenate(([0.0], law[:-1])) * incl
    return law


def test_limit_size_matches_process_spectrum():
    ps = uniform_points(5, 1, seed=14)
    for kern, p, alpha in [(EXPO, 1, 1.0), (GAUSS, 2, 0.5), (R2A, 3, 2.0)]:
        vec = limit_size_distribution(ps, kern, p, alpha)
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(vec, _projected_size_law(ps, kern, p, alpha), atol=1e-10)


def test_limit_size_large_alpha_stays_finite():
    # prod(1 + w) over the spectrum overflows float64 at this n and alpha
    ps = uniform_points(200, 2, seed=7)
    vec = limit_size_distribution(ps, EXPO, 1, 1000.0)
    assert np.all(np.isfinite(vec))
    assert vec.sum() == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(vec, _projected_size_law(ps, EXPO, 1, 1000.0), atol=1e-8)


def test_limit_size_support_bracket():
    ps = uniform_points(6, 1, seed=15)
    vec = limit_size_distribution(ps, GAUSS, 2)  # l = 1: support {1, 2}
    assert vec[0] == 0.0
    assert vec[1] > 0 and vec[2] > 0
    assert np.all(vec[3:] == 0.0)


# ---------------------------------------------------------------------------
# pre-limit ensembles and the default family
# ---------------------------------------------------------------------------


def test_scaled_ensemble_is_plain_kernel_matrix():
    ps = uniform_points(5, 1, seed=16)
    e = scaled_ensemble(ps, GAUSS, eps=0.8, p=0, alpha=1.0)
    np.testing.assert_allclose(e.L, kernel_matrix(GAUSS, ps, 0.8), atol=1e-14)
    e2 = scaled_ensemble(ps, GAUSS, eps=1.0, p=3, alpha=2.5)
    np.testing.assert_allclose(e2.L, 2.5 * kernel_matrix(GAUSS, ps, 1.0), atol=1e-14)


def test_scaled_ensemble_size_law_approaches_limit():
    ps = uniform_points(5, 1, seed=17)
    e = scaled_ensemble(ps, EXPO, eps=1e-3, p=1, alpha=1.0)
    vec = size_distribution(e)
    target = limit_size_distribution(ps, EXPO, 1, 1.0)
    assert tv_distance(vec, target) <= 0.05


def test_default_ensemble_matches_critical_limits():
    ps = uniform_points(6, 1, seed=18)
    e = default_ensemble(ps, beta=1, gamma=0.9)
    lim = varying_size_limit(ps, EXPO, 1, alpha=0.9)  # f_1 = -1
    np.testing.assert_array_equal(e.L, lim.process.L)
    np.testing.assert_array_equal(e.V, lim.process.V)
    e3 = default_ensemble(ps, beta=3, gamma=1.0)
    assert e3.p == 2
    assert np.all(e3.lam >= 0)


def test_default_ensemble_validation():
    ps = uniform_points(4, 1, seed=19)
    with pytest.raises(ValueError):
        default_ensemble(ps, beta=2, gamma=1.0)
    with pytest.raises(ValueError):
        default_ensemble(ps, beta=3, gamma=-1.0)


# ---------------------------------------------------------------------------
# one validated unit pair per PointSet and beta
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gamma", [0.0, 1e-5, 0.1, 1.0, 7.0])
@pytest.mark.parametrize("beta", [1, 3, 5])
def test_default_ensemble_is_make_nnp_of_the_same_matrix(beta, gamma):
    ps = uniform_points(10, 2, seed=21)
    e = default_ensemble(ps, beta, gamma)
    L = distance_power_matrix(ps, beta)
    L *= gamma * (-1.0) ** ((beta + 1) // 2)
    direct = make_nnp(L, vandermonde(ps, (beta + 1) // 2 - 1))
    assert e.L.tobytes() == direct.L.tobytes()
    # (q, unresolved): every eigenvalue of N^T L N not above beta is unresolved
    assert (e.q, e.n - e.p - e.q) == (direct.q, direct.n - direct.p - direct.q)
    assert tv_distance(brute_force_distribution(e), brute_force_distribution(direct)) <= 1e-12


def counted(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_limits_that_differ_only_by_gamma_share_one_validation(monkeypatch):
    distances = counted(monkeypatch, flatlimit, "distance_power_matrix")
    choleskys = counted(monkeypatch, _numerics, "_cholesky_in_place")
    ps = uniform_points(12, 2, seed=22)
    fixed = fixed_size_limit(ps, EXPO, 10)
    vary = varying_size_limit(ps, EXPO, 1, 0.1)
    assert (len(distances), len(choleskys)) == (1, 1)
    assert vary.process.L is not fixed.process.L
    assert vary.process.V is fixed.process.V and vary.process.Q is fixed.process.Q
    # gamma = alpha |f_1| = 1 is the unit pair itself
    assert varying_size_limit(ps, EXPO, 1, 1.0).process is fixed.process
    assert (len(distances), len(choleskys)) == (1, 1)


def test_varying_then_fixed_builds_one_distance_matrix_and_one_cholesky(monkeypatch):
    distances = counted(monkeypatch, flatlimit, "distance_power_matrix")
    choleskys = counted(monkeypatch, _numerics, "_cholesky_in_place")
    ps = uniform_points(12, 2, seed=22)
    vary = varying_size_limit(ps, EXPO, 1, 0.1)
    fixed = fixed_size_limit(ps, EXPO, 10)
    assert (len(distances), len(choleskys)) == (1, 1)
    # the derived pair holds the unit pair, which the fixed-size limit is
    assert vary.process._L.unit is fixed.process
    assert list(ps._unit_pairs.values()) == [fixed.process]


def test_limits_built_in_either_order_have_the_same_laws():
    first, second = uniform_points(12, 2, seed=22), uniform_points(12, 2, seed=22)
    fixed = fixed_size_limit(first, EXPO, 10).process
    vary = varying_size_limit(first, EXPO, 1, 0.1).process
    vary_first = varying_size_limit(second, EXPO, 1, 0.1).process
    fixed_second = fixed_size_limit(second, EXPO, 10).process
    for a, b, m in ((fixed, fixed_second, 10), (vary, vary_first, None)):
        assert a.L.tobytes() == b.L.tobytes()
        np.testing.assert_array_equal(a.lam, b.lam)
        assert tv_distance(brute_force_distribution(a, m), brute_force_distribution(b, m)) == 0.0


def test_the_unit_pair_lives_only_while_a_limit_holds_it():
    ps = uniform_points(12, 2, seed=23)
    fixed = fixed_size_limit(ps, EXPO, 10)
    vary = varying_size_limit(ps, EXPO, 1, 0.1)
    assert list(ps._unit_pairs.values()) == [fixed.process]
    del fixed, vary
    gc.collect()
    assert len(ps._unit_pairs) == 0


def test_point_sets_with_equal_coordinates_share_nothing(monkeypatch):
    distances = counted(monkeypatch, flatlimit, "distance_power_matrix")
    coords = uniform_points(12, 2, seed=24).coords
    a = fixed_size_limit(PointSet(coords), EXPO, 10).process
    b = fixed_size_limit(PointSet(coords), EXPO, 10).process
    assert len(distances) == 2 and a is not b
    for x, y in ((a.L, b.L), (a.V, b.V), (a.Q, b.Q)):
        assert not np.shares_memory(x, y)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_default_ensemble_refuses_a_gamma_that_is_not_finite_and_nonnegative(gamma):
    with pytest.raises(ValueError, match="gamma"):
        default_ensemble(uniform_points(4, 1, seed=19), beta=1, gamma=gamma)


@pytest.mark.parametrize("points, gamma", [
    # max |L| = 3e308 is past float64
    ([0.0, 3.0], 1e308),
    # max |L| = 1.3e307 is not, but ||N^T L N||_F = 6.4e308 is: beta would be
    # infinite, and compressing L on the first read of lam overflows
    (uniform_points(300, 2, seed=1).coords, 1e307)])
def test_default_ensemble_refuses_a_gamma_past_the_float64_range(points, gamma):
    ps = PointSet(points)
    default_ensemble(ps, beta=1, gamma=1e300)
    with pytest.raises(ValueError, match="past the float64 range"):
        default_ensemble(ps, beta=1, gamma=gamma)


def test_result_serialization():
    ps = uniform_points(5, 1, seed=20)
    res = fixed_size_limit(ps, GAUSS, 3)
    obj = res.to_dict()
    assert obj["regime"] == PROJECTION_SMOOTH
    assert obj["label"] == "ProjectionSmooth(k=2)"
    assert obj["metadata"]["r"] is None  # infinity is not a JSON number
    assert obj["fixed_size"] == 3
