import itertools
import logging
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from mpmath import mp

from flatdpp import diagnostics, ensembles, flatlimit
from flatdpp.diagnostics import (
    ConvergenceCurve,
    _mp_conditional_logdets,
    _mp_digits,
    _mp_kernel_matrix,
    _mp_points,
    _mp_subset_dets,
    _slogdets_by_size,
    brute_force_distribution,
    conditional_density,
    convergence_curve,
    empirical_check,
    eps_ensemble_distribution,
    inclusion_probabilities,
    tv_distance,
)
from flatdpp.ensembles import (
    RankDeficientError,
    SubsetDistribution,
    bordered_matrix,
    indices_of,
    log_unnorm_prob,
    make_nnp,
    mask_of,
    size_distribution,
)
from flatdpp.flatlimit import (
    FINITE_SMOOTHNESS,
    NONMAGIC_WRONSKIAN,
    PROJECTION_SMOOTH,
    _fixed_size_dispatch,
    classify_fixed,
    fixed_size_limit,
    scaled_ensemble,
)
from flatdpp.geometry import PointSet, uniform_points
from flatdpp.kernels import _is_builtin_exponential, builtin_kernel, custom_kernel, kernel_matrix
from flatdpp.polybasis import vandermonde
from flatdpp.sampling import sample_projection
from flatdpp.wronskian import schur_block, wronskian_matrix

GAUSS = builtin_kernel("gaussian")
EXPO = builtin_kernel("exponential")
BUILTIN_NAMES = ("gaussian", "exponential", "(1+d)exp(-d)", "sin(d+pi/4)exp(-d)",
                 "(3+3d+d^2)exp(-d)")


def random_nnp(n, p, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    V = rng.standard_normal((n, p)) if p else None
    return make_nnp(A @ A.T / n, V)


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------


def test_brute_force_identity_is_uniform():
    dist = brute_force_distribution(make_nnp(np.eye(2)))
    assert len(dist.probs) == 4
    for pr in dist.probs.values():
        assert pr == pytest.approx(0.25, rel=1e-12)


def test_brute_force_projection_pairs():
    ps = PointSet([0.0, 1.0, 2.0])
    V = vandermonde(ps, 1)
    dist = brute_force_distribution(make_nnp(np.zeros((3, 3)), V), 2)
    x = ps.coords[:, 0]
    weights = {X: (x[X[1]] - x[X[0]]) ** 2
               for X in itertools.combinations(range(3), 2)}
    Z = sum(weights.values())
    for X, w in weights.items():
        assert dist.prob(X) == pytest.approx(w / Z, rel=1e-12)


def test_brute_force_mass_sums_to_one():
    dist = brute_force_distribution(random_nnp(8, 2, seed=0))
    assert dist.total() == pytest.approx(1.0, abs=1e-10)


def test_brute_force_size_marginal_consistency():
    e = random_nnp(7, 1, seed=1)
    np.testing.assert_allclose(brute_force_distribution(e).size_marginal(),
                               size_distribution(e), atol=1e-10)


def test_enumerated_mass_discrepancy_is_logged(caplog, monkeypatch):
    e = random_nnp(6, 1, seed=2)
    with caplog.at_level(logging.DEBUG, logger="flatdpp.diagnostics"):
        brute_force_distribution(e)
        brute_force_distribution(e, 3)
    msgs = [r.getMessage() for r in caplog.records if r.name == "flatdpp.diagnostics"]
    assert len(msgs) == 2
    assert msgs[0].startswith("brute_force_distribution: enumerated mass - 1 = ")
    assert msgs[0].endswith("(n=6, m=None)") and msgs[1].endswith("(n=6, m=3)")
    for msg in msgs:
        assert abs(float(msg.split(" = ")[1].split()[0])) <= 1e-8
    # a normalizer off by a factor e^(1e-6): logged, then refused
    logZ = diagnostics.log_normalizer
    monkeypatch.setattr(diagnostics, "log_normalizer", lambda e: logZ(e) + 1e-6)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="flatdpp.diagnostics"), \
            pytest.raises(RuntimeError, match="analytic normalizer"):
        brute_force_distribution(e)
    assert caplog.records[-1].getMessage().startswith(
        "brute_force_distribution: enumerated mass - 1 = -1.000e-06")


def test_enumeration_guards():
    with pytest.raises(ValueError, match="enumeration"):
        brute_force_distribution(make_nnp(np.eye(17)))


# ---------------------------------------------------------------------------
# pre-limit enumeration backends
# ---------------------------------------------------------------------------


def test_eps_backends_agree_at_moderate_eps():
    ps = uniform_points(6, 1, seed=2)
    a = eps_ensemble_distribution(ps, GAUSS, 0.6, m=3, precision="float")
    b = eps_ensemble_distribution(ps, GAUSS, 0.6, m=3, precision="mp")
    assert tv_distance(a, b) <= 1e-9


def test_eps_varying_matches_spectral_size_law():
    # independent route: eigenvalues of the scaled matrix drive the size law
    ps = uniform_points(5, 1, seed=3)
    eps, p, alpha = 0.7, 1, 1.4
    dist = eps_ensemble_distribution(ps, EXPO, eps, p=p, alpha=alpha)
    e = scaled_ensemble(ps, EXPO, eps, p=p, alpha=alpha)
    np.testing.assert_allclose(dist.size_marginal(), size_distribution(e),
                               atol=1e-9)


def test_eps_fixed_size_matches_plain_minor_ratio():
    ps = uniform_points(5, 1, seed=4)
    L = kernel_matrix(EXPO, ps, 0.9)
    dist = eps_ensemble_distribution(ps, EXPO, 0.9, m=2)
    dets = {X: np.linalg.det(L[np.ix_(X, X)])
            for X in itertools.combinations(range(5), 2)}
    Z = sum(dets.values())
    for X, v in dets.items():
        assert dist.prob(X) == pytest.approx(v / Z, rel=1e-10)


def test_deep_flat_regime_uses_mp_and_stays_normalized():
    ps = uniform_points(6, 1, seed=5)
    dist = eps_ensemble_distribution(ps, GAUSS, 1e-3, m=4)
    assert dist.total() == pytest.approx(1.0, abs=1e-10)
    assert min(dist.probs.values()) >= 0.0


def test_batched_slogdets_equal_per_subset_calls():
    ps = uniform_points(7, 2, seed=17)
    L = kernel_matrix(EXPO, ps, 0.7)
    for m in (None, 3):
        size = 7 if m is None else m
        minors = diagnostics._backend("eps_ensemble_distribution", EXPO, ps, size, 0.7, "float")
        masks, sizes, logabs, sign = _slogdets_by_size(7, m, lambda idx: minors(ps.coords[idx]))
        subsets = ([indices_of(k) for k in range(1 << 7)] if m is None
                   else list(itertools.combinations(range(7), m)))
        assert masks.tolist() == [mask_of(X) for X in subsets]
        for X, k, s, la in zip(subsets, sizes, sign, logabs):
            ref = np.linalg.slogdet(L[np.ix_(X, X)])
            assert (k, s, la) == (len(X), ref.sign, ref.logabsdet)
    # log_unnorm_prob on a stack of index rows, against one subset at a time
    # and against the bordered matrix with the (-1)^p fold and the border's
    # 2 log det S taken out here
    for p in (1, 2):
        e = random_nnp(7, p, seed=18 + p)
        masks, _, logabs, sign = _slogdets_by_size(7, None, lambda idx: log_unnorm_prob(e, idx))
        for k, s, la in zip(masks.tolist(), sign, logabs):
            X = indices_of(k)
            assert log_unnorm_prob(e, X) == (la, s)
            if len(X) >= p:
                B, logdet_s = bordered_matrix(e, np.array(X))
                ref = np.linalg.slogdet(B)
                assert (la, s) == (ref.logabsdet - logdet_s, (-1) ** p * ref.sign)
            else:
                assert (la, s) == (-math.inf, 0.0)


def _direct_dets(K, masks):
    """Reference: one mpmath.det per subset."""
    out = {}
    for k in masks:
        idx = indices_of(k)
        out[k] = (mpmath.det(mpmath.matrix([[K[a][b] for b in idx] for a in idx]))
                  if idx else mp.mpf(1))
    return out


def _enumerated_masks(n, m):
    if m is None:
        return set(range(1 << n))
    return {mask_of(X) for X in itertools.combinations(range(n), m)}


@pytest.mark.parametrize("d", [1, 2])
def test_mp_schur_enumeration_matches_per_subset_det(d):
    ps = uniform_points(6, d, seed=30 + d)
    for name in BUILTIN_NAMES:
        for eps in (0.5, 1e-2, 1e-3):
            for m in (None, 3):
                with mp.workdps(_mp_digits(6 if m is None else m, eps)):
                    K = _mp_kernel_matrix(builtin_kernel(name), _mp_points(ps.coords),
                                          mp.mpf(eps))
                    dets = _mp_subset_dets(K, m)
                    assert set(dets) == _enumerated_masks(6, m)
                    big = max(abs(v) for v in dets.values())
                    ref = _direct_dets(K, dets)
                    assert max(abs(dets[k] - ref[k]) for k in dets) <= 1e-20 * big


def test_mp_zero_pivot_falls_back_to_direct_det():
    # f(d) = d: every diagonal pivot is exactly zero
    kern = custom_kernel([0, 1])
    ps = uniform_points(6, 1, seed=33)
    with mp.workdps(60):
        K = _mp_kernel_matrix(kern, _mp_points(ps.coords), mp.mpf(0.5))
        for m in (None, 2, 3):
            dets = _mp_subset_dets(K, m)
            assert set(dets) == _enumerated_masks(6, m)
            assert dets == _direct_dets(K, dets)
    # conditional density: zero diagonal in K_Y, and a singular K_Y
    grid = np.linspace(0.0, 1.0, 9)[1:-1]
    Y = np.array([[0.05], [0.97]])
    with mp.workdps(60):
        got = _mp_conditional_logdets(kern, Y, grid[:, None], 0.5)
        for x, lg in zip(grid, got):
            K = _mp_kernel_matrix(kern, _mp_points(np.vstack([Y, [[x]]])), mp.mpf(0.5))
            assert lg == pytest.approx(float(mp.log(_direct_dets(K, [7])[7])), rel=1e-14)
        assert _mp_conditional_logdets(kern, Y[:1], grid[:, None], 0.5) == [-math.inf] * 7


def test_mp_rank_deficient_kernel_law():
    # f(d) = 1 - d^2 has rank 3 on the line: minors of size >= 4 are noise
    # under both methods and must not carry mass
    kern = custom_kernel([1, 0, -1])
    ps = uniform_points(6, 1, seed=34)
    with mp.workdps(_mp_digits(6, 0.5)):
        K = _mp_kernel_matrix(kern, _mp_points(ps.coords), mp.mpf(0.5))
        dets = _mp_subset_dets(K, None)
        ref = _direct_dets(K, dets)

        def law(w):
            pos = {k: v for k, v in w.items() if v > 0}
            total = mpmath.fsum(pos.values())
            return {k: v / total for k, v in pos.items()}

        a, b = law(dets), law(ref)
        assert mpmath.fsum(abs(a.get(k, 0) - b.get(k, 0)) for k in dets) <= 1e-20


def test_auto_backend_reads_clustered_cloud():
    # two of these 8 points are 2.3e-3 apart: at eps = 0.1 the eps rule alone
    # kept float64 for m = 5 (TV 1.03e-2 against 3.66e-4 on mp) and the
    # curve rose; the kernel matrix's condition number sends it to mp
    rng = np.random.default_rng(np.random.SeedSequence(3).spawn(2)[0])
    ps = PointSet(rng.uniform(size=(8, 1)))
    curve = convergence_curve(ps, GAUSS, [4.0, 1.5, 0.5, 0.1, 0.01, 1e-3], "full-law", m=5)
    assert all(b <= a for a, b in zip(curve.values, curve.values[1:]))
    target = brute_force_distribution(fixed_size_limit(ps, GAUSS, 5).process, 5)
    auto = tv_distance(eps_ensemble_distribution(ps, GAUSS, 0.1, m=5), target)
    exact = tv_distance(eps_ensemble_distribution(ps, GAUSS, 0.1, m=5, precision="mp"),
                        target)
    assert abs(auto - exact) <= 1e-8


def test_backend_choice_is_logged(caplog):
    ps = uniform_points(5, 1, seed=3)
    # the exponential kernel's enumeration takes the float backend off the line
    with caplog.at_level(logging.DEBUG, logger="flatdpp.diagnostics"):
        eps_ensemble_distribution(uniform_points(5, 2, seed=3), EXPO, 0.9, m=2)
        eps_ensemble_distribution(ps, GAUSS, 1e-3, m=4)
        conditional_density(EXPO, [0.2, 0.6], np.linspace(0, 1, 5), eps=1e-3)
        eps_ensemble_distribution(ps, EXPO, 1e-3, m=4)
    msgs = [r.getMessage() for r in caplog.records if r.name == "flatdpp.diagnostics"]
    assert len(msgs) == 4 and all("digits at risk" in msg for msg in msgs[:3])
    assert msgs[0].startswith("eps_ensemble_distribution: float backend, dps=None")
    assert msgs[1].startswith(
        f"eps_ensemble_distribution: mp backend, dps={_mp_digits(4, 1e-3)}")
    assert msgs[2].startswith(f"conditional_density: mp backend, dps={_mp_digits(3, 1e-3)}")
    assert msgs[3].startswith("eps_ensemble_distribution: closed-form backend, dps=None")
    assert "exponential kernel on the line" in msgs[3]
    # one line per call, the flat limit's included
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="flatdpp.diagnostics"):
        conditional_density(GAUSS, [0.2, 0.6], np.linspace(0, 1, 5))
    assert [r.getMessage() for r in caplog.records] == [
        "conditional_density: flat-limit backend, dps=None (m=3)"]


#: Inverse scales of the closed-form checks, from the float range of the
#: kernel matrix down to where only mp held the law before.
CLOSED_EPS = [4.0, 1.5, 0.5, 0.1, 1e-2, 1e-3, 1e-6]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_closed_form_matches_mp_on_the_line(seed):
    # full laws at m = 2..6, and varying laws at p = 0, 1, 2 with alpha = 0.1, 1, 10
    ps = uniform_points(8, 1, seed=seed)
    for eps in CLOSED_EPS:
        for kw in [{"m": m} for m in range(2, 7)] + [
                {"p": p, "alpha": alpha} for p in (0, 1, 2) for alpha in (0.1, 1.0, 10.0)]:
            closed = eps_ensemble_distribution(ps, EXPO, eps, **kw)
            assert tv_distance(closed, eps_ensemble_distribution(
                ps, EXPO, eps, precision="mp", **kw)) <= 1e-12, (eps, kw)


@pytest.mark.parametrize("eps", [1e-300, 5e-324])
def test_closed_form_at_the_smallest_eps_is_the_limit_law(eps):
    # 2 eps h underflows here, and the law is the flat limit's gap product
    ps = uniform_points(8, 1, seed=3)
    for m in range(2, 8):
        limit = brute_force_distribution(fixed_size_limit(ps, EXPO, m).process, m)
        closed = eps_ensemble_distribution(ps, EXPO, eps, m=m)
        assert np.all(np.isfinite(closed.values)) and tv_distance(closed, limit) <= 1e-12
    limit = brute_force_distribution(flatlimit.varying_size_limit(ps, EXPO, 1).process)
    assert tv_distance(eps_ensemble_distribution(ps, EXPO, eps, p=1), limit) <= 1e-12


def test_closed_form_builds_no_kernel_matrix(monkeypatch):
    monkeypatch.setattr(diagnostics, "kernel_matrix", lambda *a, **kw: pytest.fail("a matrix"))
    ps = uniform_points(6, 1, seed=8)
    eps_ensemble_distribution(ps, EXPO, 1e-3, m=3)
    eps_ensemble_distribution(ps, EXPO, 1e-3, p=1)


def test_only_the_builtin_exponential_on_the_line_takes_the_closed_form(caplog):
    # a kernel named "exponential" by its caller, with the same series and
    # profile, keeps the float and mp backends; so do the plane, an explicit
    # precision and the conditional density
    named = custom_kernel(EXPO.taylor, evaluator=lambda x: np.exp(-x), name="exponential")
    ps = uniform_points(5, 1, seed=3)
    with caplog.at_level(logging.DEBUG, logger="flatdpp.diagnostics"):
        eps_ensemble_distribution(ps, named, 0.9, m=2)
        eps_ensemble_distribution(uniform_points(5, 2, seed=3), EXPO, 0.9, m=2)
        eps_ensemble_distribution(ps, EXPO, 0.9, m=2, precision="float")
        conditional_density(EXPO, [0.2, 0.6], np.linspace(0, 1, 5), eps=1e-3)
    msgs = [r.getMessage() for r in caplog.records if r.name == "flatdpp.diagnostics"]
    assert len(msgs) == 4 and not any("closed-form" in msg for msg in msgs)
    # the conditional density's exception is named, with its reason
    assert msgs[3].startswith("conditional_density: mp backend")
    assert msgs[3].endswith("; closed form withheld for the exponential kernel on the line: "
                            "the bench self-test needs this density's mpmath.det span "
                            "(ROADMAP item 20)")
    assert not any("withheld" in msg for msg in msgs[:3])
    assert _is_builtin_exponential(EXPO) and not _is_builtin_exponential(named)
    assert _is_builtin_exponential(builtin_kernel("exponential", truncation=5))
    assert not any(_is_builtin_exponential(builtin_kernel(name)) for name in
                   ("gaussian", "(1+d)exp(-d)", "sin(d+pi/4)exp(-d)", "(3+3d+d^2)exp(-d)"))


def _gathered_slogdets(kernel, ps, eps, idx):
    """Reference: np.linalg.slogdet of the gathered blocks of the kernel matrix."""
    L = kernel_matrix(kernel, ps, eps)
    ref = np.linalg.slogdet(L[idx[:, :, None], idx[:, None, :]])
    return ref.logabsdet, ref.sign


def _gap_sums(x, eps, idx):
    """Reference: log of the gap product of the exponential kernel on the line,
    one subset at a time."""
    return (np.array([np.sum(np.log(-np.expm1(-2.0 * eps * np.diff(np.sort(x[X])))))
                      for X in idx]), np.ones(len(idx)))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_coordinate_minors_equal_gathered_kernel_blocks(name, d):
    # the kernel at eps on gathered coordinates, bit for bit, at every size
    # from 0 to n (varying) and at a fixed size; and the closed form on the line
    kernel = builtin_kernel(name)
    ps = uniform_points(7, d, seed=40 + d)
    for eps in (1.5, 0.5, 0.1):
        for m in (None, 3):
            size = ps.n if m is None else m
            minors = diagnostics._backend("eps_ensemble_distribution", kernel, ps, size, eps,
                                          "float")
            closed = (diagnostics._backend("eps_ensemble_distribution", kernel, ps, size, eps,
                                           "auto") if d == 1 and name == "exponential" else None)
            got = _slogdets_by_size(ps.n, m, lambda idx: minors(ps.coords[idx]))
            ref = _slogdets_by_size(ps.n, m, lambda idx: _gathered_slogdets(kernel, ps, eps, idx))
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref)), (eps, m)
            if closed is not None:
                got = _slogdets_by_size(ps.n, m, lambda idx: closed(ps.coords[idx]))
                ref = _slogdets_by_size(ps.n, m,
                                        lambda idx: _gap_sums(ps.coords[:, 0], eps, idx))
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref)), (eps, m)
        # rows of size 0 and 1 on their own: the empty minor is 1, and det [f(0)]
        for k in (0, 1):
            idx = np.arange(3 * k).reshape(3, k)
            logabs, sign = minors(ps.coords[idx])
            ref = _gathered_slogdets(kernel, ps, eps, idx)
            assert (logabs.tolist(), sign.tolist()) == (ref[0].tolist(), ref[1].tolist())
            assert k == 1 or (logabs.tolist(), sign.tolist()) == ([0.0] * 3, [1.0] * 3)
            if closed is not None:
                assert [a.tolist() for a in closed(ps.coords[idx])] == [[0.0] * 3, [1.0] * 3]


@pytest.mark.parametrize("precision", ["MP", "exact", "Float", ""])
def test_an_unknown_precision_is_refused_before_any_work(monkeypatch, precision):
    # "MP" ran the float path, off by TV 1.9e-3 against "mp" on this cloud
    ps = uniform_points(6, 1, seed=1)
    for name in ("kernel_matrix", "_fixed_size_minors", "_mp_subset_dets",
                 "_mp_conditional_logdets", "_line_minors"):
        monkeypatch.setattr(diagnostics, name, lambda *a, **kw: pytest.fail("work began"))
    message = f"precision must be 'auto', 'float' or 'mp', not {precision!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        eps_ensemble_distribution(ps, GAUSS, 1e-3, m=3, precision=precision)
    for eps in (1e-3, None):
        with pytest.raises(ValueError, match=re.escape(message)):
            conditional_density(GAUSS, [0.2, 0.6], np.linspace(0, 1, 5), eps=eps,
                                precision=precision)


# ---------------------------------------------------------------------------
# tv distance
# ---------------------------------------------------------------------------


def test_tv_identical_is_zero():
    d = brute_force_distribution(random_nnp(5, 1, seed=6))
    assert tv_distance(d, d) == 0.0


def test_tv_disjoint_point_masses_is_two():
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 2.0


def test_tv_half_mass():
    assert tv_distance([0.5, 0.5], [1.0, 0.0]) == pytest.approx(1.0)


def test_tv_mismatched_spaces():
    with pytest.raises(ValueError):
        tv_distance([1.0], [0.5, 0.5])


def test_tv_of_laws_with_partly_overlapping_supports():
    rng = np.random.default_rng(17)
    P, Q = (SubsetDistribution(10, rng.choice(np.arange(lo, lo + 600), 300, replace=False),
                               rng.dirichlet(np.ones(300))) for lo in (0, 200))
    assert 0 < len(P.probs.keys() & Q.probs.keys()) < 300
    ref = sum(abs(P.probs.get(k, 0.0) - Q.probs.get(k, 0.0))
              for k in P.probs.keys() | Q.probs.keys())
    assert tv_distance(P, Q) == pytest.approx(ref, rel=1e-14)
    assert tv_distance(Q, P) == pytest.approx(ref, rel=1e-14)
    with pytest.raises(ValueError, match="ground sets"):
        tv_distance(P, SubsetDistribution(11, P.masks, P.values))


# ---------------------------------------------------------------------------
# conditional densities
# ---------------------------------------------------------------------------


def test_conditional_smooth_limit_closed_form():
    Y = np.array([0.1, 0.3, 0.5, 0.9])
    grid = np.linspace(0, 1, 101)
    dens = conditional_density(GAUSS, Y, grid, eps=None)
    ref = np.array([np.prod((x - Y) ** 2) for x in grid])
    ref /= ref.sum()
    np.testing.assert_allclose(dens, ref, atol=1e-12)


def test_conditional_vanishes_on_conditioning_points():
    Y = np.array([0.1, 0.3, 0.5, 0.9])
    grid = np.array([0.3, 0.42])
    dens = conditional_density(GAUSS, Y, grid, eps=None)
    assert dens[0] == 0.0 and dens[1] == pytest.approx(1.0)


def test_conditional_rough_limit_is_adjacent_gap_product():
    Y = np.array([0.1, 0.3, 0.5, 0.9])
    grid = np.linspace(0.0, 1.0, 87)
    dens = conditional_density(EXPO, Y, grid, eps=None)
    ref = []
    for x in grid:
        if np.min(np.abs(x - Y)) < 1e-12:
            ref.append(0.0)
        else:
            ref.append(np.prod(np.diff(np.sort(np.append(Y, x)))))
    ref = np.array(ref)
    ref /= ref.sum()
    np.testing.assert_allclose(dens, ref, atol=1e-12)


def test_conditional_eps_tends_to_limit():
    Y = np.array([0.1, 0.3, 0.5, 0.9])
    grid = np.linspace(0, 1, 60)
    target = conditional_density(EXPO, Y, grid, eps=None)
    gaps = [tv_distance(conditional_density(EXPO, Y, grid, eps=e), target)
            for e in (4.0, 0.5, 0.01)]
    assert gaps[2] <= gaps[0]
    assert gaps[2] <= 5e-3


def test_conditional_mp_backend_tracks_smooth_limit():
    # the mp backend must see the points' exact distances: float64-rounded
    # ones leave a TV of about 0.77 here
    Y = np.array([0.1, 0.3, 0.5, 0.9])
    grid = np.linspace(0, 1, 200)
    target = conditional_density(GAUSS, Y, grid, eps=None)
    dens = conditional_density(GAUSS, Y, grid, eps=0.01)
    assert tv_distance(dens, target) <= 1e-3


def _reference_density(kernel, Y, grid, eps=None):
    """One PointSet, flat limit or kernel matrix and determinant per grid point."""
    Y = np.asarray(Y, dtype=float).reshape(len(Y), -1)
    grid = np.asarray(grid, dtype=float).reshape(len(grid), -1)
    m = Y.shape[0] + 1
    logvals = np.full(grid.shape[0], -math.inf)
    for g, x in enumerate(grid):
        if np.min(np.linalg.norm(Y - x, axis=1)) <= 1e-12:
            continue
        ps = PointSet(np.vstack([Y, x]))
        if eps is None:
            try:
                logabs, sign = log_unnorm_prob(_fixed_size_dispatch(ps, kernel, m).process,
                                               range(m))
            except RankDeficientError:
                continue
        else:
            sign, logabs = np.linalg.slogdet(kernel_matrix(kernel, ps, eps))
        if sign > 0:
            logvals[g] = logabs
    vals = np.exp(logvals - np.max(logvals))
    return vals / vals.sum()


def _grid_2d(k):
    ax = np.linspace(0.0, 1.0, k)
    return np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("d", [1, 2])
def test_conditional_density_matches_per_point_reference(d):
    # every limit regime the dimension has; the grids span two chunks,
    # repeat points and hit a point of Y
    rng = np.random.default_rng(40 + d)
    if d == 1:
        grid = np.linspace(0.0, 1.0, 300)[:, None]
        cases = [(GAUSS, 4), (EXPO, 3), (builtin_kernel("(1+d)exp(-d)"), 1),
                 (builtin_kernel("(1+d)exp(-d)"), 3)]
    else:
        grid = _grid_2d(18)
        cases = [(GAUSS, 2), (GAUSS, 4), (EXPO, 3), (builtin_kernel("(1+d)exp(-d)"), 1),
                 (builtin_kernel("(1+d)exp(-d)"), 3)]
    regimes = {classify_fixed(d, kernel.smoothness, k + 1)[0] for kernel, k in cases}
    assert regimes == ({PROJECTION_SMOOTH, FINITE_SMOOTHNESS} if d == 1 else
                       {PROJECTION_SMOOTH, NONMAGIC_WRONSKIAN, FINITE_SMOOTHNESS})
    for kernel, k in cases:
        Y = rng.uniform(size=(k, d))
        pts = np.vstack([grid, grid[::7], Y[-1:]])
        assert pts.shape[0] > 2 * 128
        for eps in (None, 1.5, 0.5):
            dens = conditional_density(kernel, Y, pts, eps=eps, precision="float")
            ref = _reference_density(kernel, Y, pts, eps)
            np.testing.assert_allclose(dens, ref, rtol=1e-12, atol=0)
            assert dens[-1] == 0.0
            np.testing.assert_array_equal(dens[grid.shape[0]:-1], dens[:grid.shape[0]:7])


def test_conditional_density_builds_no_limit(monkeypatch, decompositions):
    # the minors come from the rows' coordinates: no flat limit, no PointSet
    # of grid points, no n x n spectrum. The Gaussian m = 5 limit in the plane
    # is a Wronskian one: its 3 x 3 Schur block is decided once per call
    calls, sizes = [], []
    for module in (ensembles, flatlimit):
        for name in ("make_nnp", "make_factored_nnp"):
            monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(1))
    monkeypatch.setattr(diagnostics, "PointSet",
                        lambda coords, _f=PointSet: sizes.append(len(coords)) or _f(coords))
    Y = np.array([[0.2, 0.3], [0.7, 0.4], [0.5, 0.9], [0.1, 0.8]])
    dens = conditional_density(GAUSS, Y, _grid_2d(50), eps=None)
    assert dens.sum() == pytest.approx(1.0, abs=1e-12)
    assert decompositions.orders == [("eigvalsh", 3)]
    conditional_density(GAUSS, Y, _grid_2d(50), eps=0.5, precision="float")
    conditional_density(EXPO, [0.1, 0.3, 0.5, 0.9], np.linspace(0.0, 1.0, 300), eps=None)
    assert calls == [] and sizes == [4, 4, 4]
    assert decompositions == {"eigh": 0, "eigvalsh": 1, "cholesky": 0}


def test_conditional_density_refuses_a_wronskian_schur_block_that_is_not_psd():
    # the Gaussian series with f_2 -> -3 f_2: its degree-2 Schur block in the
    # plane has eigenvalues -14, 2 and 4
    taylor = np.array(GAUSS.taylor)
    taylor[2] *= -3
    kernel = custom_kernel(taylor)
    C = schur_block(wronskian_matrix(kernel, 2, 2), 3)
    np.testing.assert_allclose(np.linalg.eigvalsh(C), [-14, 2, 4], rtol=1e-12)
    Y = np.array([[0.2, 0.3], [0.7, 0.4], [0.5, 0.9], [0.1, 0.8]])
    with pytest.raises(ensembles.CPDViolationError, match="Wronskian Schur block"):
        conditional_density(kernel, Y, _grid_2d(10), eps=None)


@pytest.mark.parametrize("eps", [None, 0.5])
def test_conditional_near_duplicate_grid_points_share_a_value(eps):
    # 0.4 and 0.4 + 1e-13 are closer than their coincidence radius (7.3e-13),
    # yet each is a grid point of its own: both take the value the grid point
    # 0.4 has on its own, within rounding
    dens = conditional_density(GAUSS, [0.2, 0.6], [0.4, 0.4 + 1e-13, 0.8], eps=eps)
    a, b = conditional_density(GAUSS, [0.2, 0.6], [0.4, 0.8], eps=eps)
    np.testing.assert_allclose(dens, np.array([a, a, b]) / (2 * a + b), rtol=1e-12)
    if eps is None:
        np.testing.assert_allclose(dens, [1 / 11, 1 / 11, 9 / 11], rtol=1e-10)


@pytest.mark.parametrize("side, megabytes", [(50, 4), (200, 8), (200, 5)])
def test_conditional_density_memory_is_bounded_by_chunks(side, megabytes):
    # one ground set of 2504 points would hold a 2504 x 2504 L (50 MB) and more
    Y = np.array([[0.2, 0.3], [0.7, 0.4], [0.5, 0.9], [0.1, 0.8]])
    grid = _grid_2d(side)
    conditional_density(GAUSS, Y, grid, eps=None)
    tracemalloc.start()
    try:
        conditional_density(GAUSS, Y, grid, eps=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= megabytes * 2**20


def test_conditional_singular_grid_points_get_no_mass():
    # V_{Y+x} = [1, x, y] is singular for the grid's 11 diagonal points
    Y = np.array([[0.05, 0.05], [0.45, 0.45]])
    grid = _grid_2d(11)
    diag = grid[:, 0] == grid[:, 1]
    dens = conditional_density(GAUSS, Y, grid, eps=None)
    assert diag.sum() == 11 and dens[diag].max() <= 1e-12
    assert dens.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(dens[~diag], _reference_density(GAUSS, Y, grid)[~diag],
                               rtol=1e-12)
    # the 12 points on the line x = 0.9 through Y each have a singular V_X:
    # no mass, no error
    Y = np.array([[0.9, 0.1], [0.9, 0.5]])
    left = np.stack(np.meshgrid(np.linspace(0.0, 0.8, 8), np.linspace(0.0, 1.0, 16),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    line = np.column_stack([np.full(12, 0.9), np.linspace(0.0, 1.0, 12)])
    pts = np.vstack([left, line])
    dens = conditional_density(GAUSS, Y, pts, eps=None)
    assert left.shape[0] == 128 and dens[128:].max() == 0.0
    np.testing.assert_allclose(dens, _reference_density(GAUSS, Y, pts), rtol=1e-12, atol=0)


def test_conditional_auto_backend_reads_conditioning_points():
    # 0.3 and 0.302 make log10 cond(K_Y) = 13.7 at eps = 0.1, where the eps
    # rule alone says 9.0 and float64 gave TV 0.156 to the limit
    Y = [0.3, 0.302, 0.6, 0.9]
    grid = np.linspace(0.0, 1.0, 200)
    target = conditional_density(GAUSS, Y, grid, eps=None)
    auto = tv_distance(conditional_density(GAUSS, Y, grid, eps=0.1), target)
    exact = tv_distance(conditional_density(GAUSS, Y, grid, eps=0.1, precision="mp"), target)
    assert abs(auto - exact) <= 1e-8


# ---------------------------------------------------------------------------
# inclusion probabilities
# ---------------------------------------------------------------------------


def test_inclusion_projection_sums_to_rank():
    ps = uniform_points(6, 1, seed=7)
    e = make_nnp(np.zeros((6, 6)), vandermonde(ps, 2))
    incl = inclusion_probabilities(e, m=3)
    assert incl.sum() == pytest.approx(3.0, abs=1e-8)
    np.testing.assert_allclose(incl, np.diag(e.Q @ e.Q.T), atol=1e-8)


def test_inclusion_projective_direction_is_sure():
    e = make_nnp(np.zeros((4, 4)), np.eye(4)[:, :1])
    incl = inclusion_probabilities(e)
    assert incl[0] == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(incl[1:], 0.0, atol=1e-12)


def test_inclusion_varying_matches_enumeration():
    e = random_nnp(6, 2, seed=8)
    np.testing.assert_allclose(inclusion_probabilities(e),
                               brute_force_distribution(e).inclusion_vector(),
                               atol=1e-8)


def _varying_limits():
    """One limit per varying-size regime on 12 points in the plane."""
    ps = uniform_points(12, 2, seed=9)
    for kernel, p in ((GAUSS, 3), (GAUSS, 2), (EXPO, 1), (EXPO, 5)):
        yield flatlimit.varying_size_limit(ps, kernel, p).process


@pytest.mark.parametrize("e", [
    *_varying_limits(), random_nnp(12, 0, seed=3), make_nnp(np.zeros((12, 12)), np.ones(12)),
    random_nnp(12, 3, seed=4)], ids=["projection", "wronskian", "critical", "full-set",
                                     "p=0", "q=0", "p=3"])
def test_inclusion_is_the_diagonal_of_the_marginal_kernel(e):
    np.testing.assert_allclose(inclusion_probabilities(e), np.diag(ensembles.marginal_kernel(e)),
                               rtol=0, atol=1e-12)


def test_inclusion_forms_no_n_by_n_array():
    ps = uniform_points(2000, 2, seed=1)
    e = flatlimit.varying_size_limit(ps, GAUSS, 4).process
    assert e.U.shape[1] < 50
    tracemalloc.start()
    try:
        incl = inclusion_probabilities(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 2000 * 8
    assert incl.sum() == pytest.approx(e.p + np.sum(e.lam / (1 + e.lam)), rel=1e-12)


def _tally_inclusion(dist) -> np.ndarray:
    out = np.zeros(dist.n)
    for mask, pr in dist.probs.items():
        for i in indices_of(mask):
            out[i] += pr
    return out


def test_inclusion_of_a_fixed_size_law_on_30_points():
    # C(30, 4) = 27405 subsets, on more points than a varying-size law allows
    kernel = builtin_kernel("(3+3d+d^2)exp(-d)")
    e = fixed_size_limit(uniform_points(30, 1, seed=7), kernel, 4).process
    dist = brute_force_distribution(e, 4)
    incl = dist.inclusion_vector()
    assert incl.sum() == pytest.approx(4.0, abs=1e-12)
    np.testing.assert_allclose(incl, _tally_inclusion(dist), rtol=0, atol=1e-15)
    np.testing.assert_array_equal(inclusion_probabilities(e, 4), incl)


def test_fixed_size_law_on_63_points_holds_index_62():
    # mask 2^62 is the largest bit an int64 bitmask holds
    e = random_nnp(63, 0, seed=18)
    dist = brute_force_distribution(e, 2)
    assert len(dist.probs) == math.comb(63, 2)
    assert dist.masks[-1] == (1 << 62) | (1 << 61)
    incl = dist.inclusion_vector()
    assert incl.sum() == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(incl, _tally_inclusion(dist), rtol=0, atol=1e-15)
    L = e.L
    e2 = (np.trace(L) ** 2 - np.trace(L @ L)) / 2
    assert dist.prob([0, 62]) == pytest.approx(np.linalg.det(L[np.ix_([0, 62], [0, 62])]) / e2,
                                               rel=1e-10)


def test_inclusion_sweep_converges_for_rough_kernels():
    # 20 random unit-interval points, size 5, decreasing-smoothness catalog
    ps = uniform_points(20, 1, seed=7)
    for name in ("exponential", "(1+d)exp(-d)", "(3+3d+d^2)exp(-d)"):
        kern = builtin_kernel(name)
        target = inclusion_probabilities(fixed_size_limit(ps, kern, 5).process, 5)
        incl = eps_ensemble_distribution(ps, kern, 0.1, m=5).inclusion_vector()
        assert np.max(np.abs(incl - target)) <= 0.05


# ---------------------------------------------------------------------------
# convergence curves
# ---------------------------------------------------------------------------


def test_convergence_full_law_last_below_first():
    ps = uniform_points(6, 1, seed=9)
    curve = convergence_curve(ps, GAUSS, [2.0, 0.5, 0.05], "full-law", m=3)
    assert curve.epsilons == [2.0, 0.5, 0.05]
    assert curve.values[-1] <= curve.values[0]


def test_convergence_near_limit_surrogate():
    ps = uniform_points(5, 1, seed=10)
    curve = convergence_curve(ps, GAUSS, [1e-6], "full-law", m=3)
    assert curve.values[0] <= 1e-3


def test_convergence_size_law_mode():
    ps = uniform_points(5, 1, seed=11)
    curve = convergence_curve(ps, EXPO, [1.0, 0.1, 1e-3], "size-law", p=1)
    assert curve.values[-1] <= 0.05
    assert curve.values[-1] <= curve.values[0]


def test_convergence_conditional_mode():
    curve = convergence_curve(
        uniform_points(4, 1, seed=12), EXPO, [2.0, 0.05], "conditional",
        Y=np.array([0.2, 0.5, 0.8]), x_grid=np.linspace(0, 1, 40))
    assert curve.values[1] <= curve.values[0]


def test_convergence_inclusion_mode():
    ps = uniform_points(6, 1, seed=13)
    curve = convergence_curve(ps, EXPO, [2.0, 0.1], "inclusion", m=3)
    assert curve.values[1] <= curve.values[0]
    assert curve.mode == "inclusion"


def test_equal_smoothness_targets_coincide():
    ps = uniform_points(7, 1, seed=14)
    r2a = builtin_kernel("(1+d)exp(-d)")
    r2b = builtin_kernel("sin(d+pi/4)exp(-d)")
    ta = brute_force_distribution(fixed_size_limit(ps, r2a, 4).process, 4)
    tb = brute_force_distribution(fixed_size_limit(ps, r2b, 4).process, 4)
    assert tv_distance(ta, tb) <= 1e-8


def test_convergence_mode_validation():
    ps = uniform_points(4, 1, seed=15)
    with pytest.raises(ValueError):
        convergence_curve(ps, GAUSS, [1.0], "nonsense")
    with pytest.raises(ValueError):
        convergence_curve(ps, GAUSS, [1.0], "full-law")
    with pytest.raises(ValueError):
        ConvergenceCurve([1.0], [0.1, 0.2], "full-law")


NOT_FINITE_EPS = "eps must be a finite positive number, not nan"


@pytest.mark.parametrize("kwargs, message", [
    ({"alpha": math.nan}, "alpha must be a finite positive number, not nan"),
    ({"alpha": math.inf}, "alpha must be a finite positive number, not inf"),
    ({"alpha": -1.0}, "alpha must be a finite positive number, not -1.0"),
    ({"alpha": 0.0}, "alpha must be a finite positive number, not 0.0"),
    ({"p": -1}, "scaling exponent p must be a nonnegative integer"),
    ({"p": math.nan}, "scaling exponent p must be a nonnegative integer"),
    ({"eps": math.nan}, NOT_FINITE_EPS), ({"eps": math.inf}, "not inf"), ({"eps": 0.0}, "not 0.0")])
def test_pre_limit_ensembles_refuse_bad_inputs(kwargs, message):
    # checked before any matrix is formed or any logarithm taken
    given = {"eps": 0.5, "p": 2, "alpha": 1.0, **kwargs}
    ps = uniform_points(6, 1, seed=15)
    with pytest.raises(ValueError, match=message):
        eps_ensemble_distribution(ps, GAUSS, **given)
    with pytest.raises(ValueError, match=message):
        scaled_ensemble(ps, GAUSS, **given)


@pytest.mark.parametrize("eps", [None, 0.5])
@pytest.mark.parametrize("Y, grid, message", [
    ([0.2, 0.6], [0.1, math.nan, 0.9], "x_grid has a coordinate that is not finite"),
    ([0.2, 0.6], [0.1, math.inf], "x_grid has a coordinate that is not finite"),
    ([0.2, math.nan], [0.1, 0.9], "conditioning points Y: coordinates must be finite"),
    ([0.2, 0.2], [0.1, 0.9], "conditioning points Y: points are not pairwise distinct"),
    ([], [0.1, 0.9], "conditioning points Y: need n >= 1 points"),
    ([0.2, 0.6], [], "x_grid must hold one or more points of dimension 1"),
    ([[0.2, 0.3], [0.6, 0.1]], [0.1, 0.9],
     "x_grid must hold one or more points of dimension 2, as Y does, not an array of shape (2,)"),
])
def test_conditional_density_refuses_bad_points_before_any_work(monkeypatch, Y, grid, message,
                                                                  eps):
    for name in ("kernel_matrix", "_fixed_size_minors"):
        monkeypatch.setattr(diagnostics, name, lambda *a, **kw: pytest.fail("work began"))
    with pytest.raises(ValueError, match=re.escape(message)):
        conditional_density(GAUSS, Y, grid, eps=eps)


def test_conditional_density_and_curves_refuse_a_nan_eps():
    Y, grid = np.array([0.2, 0.5, 0.8]), np.linspace(0, 1, 40)
    with pytest.raises(ValueError, match=NOT_FINITE_EPS):
        conditional_density(EXPO, Y, grid, eps=math.nan)
    ps = uniform_points(4, 1, seed=12)
    for mode, kwargs in (("full-law", {"m": 2}), ("size-law", {"p": 1}),
                         ("conditional", {"Y": Y, "x_grid": grid}), ("inclusion", {"m": 2})):
        with pytest.raises(ValueError, match=NOT_FINITE_EPS):
            convergence_curve(ps, EXPO, [0.5, math.nan], mode, **kwargs)


#: Every step of convergence_curve that enumerates or builds a limit.
CURVE_WORK = ["fixed_size_limit", "limit_size_distribution", "brute_force_distribution",
              "eps_ensemble_distribution", "conditional_density", "inclusion_probabilities"]
CURVE_MODES = {"full-law": {"m": 4}, "size-law": {"p": 1}, "inclusion": {"m": 4},
               "conditional": {"Y": np.array([0.2, 0.5]), "x_grid": np.linspace(0, 1, 9)}}


@pytest.fixture
def curve_work(monkeypatch):
    """The names of the curve's work steps as they are called; none runs."""
    calls = []
    for name in CURVE_WORK:
        monkeypatch.setattr(diagnostics, name, lambda *a, _name=name, **k: calls.append(_name))
    return calls


@pytest.mark.parametrize("mode", CURVE_MODES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-3])
def test_convergence_curve_refuses_a_bad_eps_before_any_work(curve_work, mode, bad):
    ps = uniform_points(10, 2, seed=17)
    with pytest.raises(ValueError, match=f"eps must be a finite positive number, not {bad}"):
        convergence_curve(ps, GAUSS, [0.5, 0.1, 1e-3, bad], mode, **CURVE_MODES[mode])
    assert curve_work == []


@pytest.mark.parametrize("mode, needs", [
    ("full-law", "the fixed size m"), ("size-law", "the scaling exponent p"),
    ("inclusion", "the fixed size m"), ("conditional", "Y and x_grid")])
def test_convergence_curve_refuses_a_missing_input_before_any_work(curve_work, mode, needs):
    ps = uniform_points(10, 2, seed=17)
    # conditional is given Y alone; the other modes nothing
    given = {"Y": CURVE_MODES[mode]["Y"]} if mode == "conditional" else {}
    with pytest.raises(ValueError, match=f"^{mode} mode needs {needs}$"):
        convergence_curve(ps, GAUSS, [0.5, math.nan], mode, **given)
    assert curve_work == []


# ---------------------------------------------------------------------------
# empirical checks
# ---------------------------------------------------------------------------


def test_empirical_check_deterministic_process():
    U = np.eye(3)[:, :1]
    e = make_nnp(np.zeros((3, 3)), U)
    exact = brute_force_distribution(e)
    tv, size_tv = empirical_check(lambda r: sample_projection(U, r), exact,
                                  500, seed=16)
    assert tv == 0.0 and size_tv == 0.0
