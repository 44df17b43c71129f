"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import itertools
import math
import time

import numpy as np

from flatdpp.diagnostics import (
    brute_force_distribution,
    eps_ensemble_distribution,
    tv_distance,
)
from flatdpp.ensembles import (
    log_normalizer,
    log_unnorm_prob,
    make_nnp,
    marginal_kernel,
    mask_of,
)
from flatdpp.flatlimit import fixed_size_limit, limit_size_distribution, varying_size_limit
from flatdpp.geometry import PointSet, distance_power_matrix, uniform_points
from flatdpp.kernels import BUILTIN_NAMES, builtin_kernel, custom_kernel
from flatdpp.polybasis import count_homogeneous, count_poly, magic_numbers
from flatdpp.sampling import rng_from_seed, sample, sample_fixed
from flatdpp.wronskian import schur_block, wronskian_matrix

GAUSS = builtin_kernel("gaussian")
EXPO = builtin_kernel("exponential")

EPS_GRID = [4.0, 1.5, 0.5, 0.1, 0.01, 1e-3]


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d}: {status} - {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _random_ensembles():
    """20 seeded ensembles with n in 4..10 and projective rank p in 0..3."""
    out = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(4, 11))
        p = int(rng.integers(0, 4))
        A = rng.standard_normal((n, n))
        V = rng.standard_normal((n, p)) if p else None
        out.append(make_nnp(A @ A.T / n, V))
    return out


def test_criterion_01_oracle_normalization():
    t0 = time.time()
    worst = 0.0
    for e in _random_ensembles():
        logZ = log_normalizer(e)
        total = 0.0
        for size in range(e.n + 1):
            for X in itertools.combinations(range(e.n), size):
                logabs, sign = log_unnorm_prob(e, X)
                if sign != 0.0:
                    total += sign * math.exp(logabs - logZ)
        worst = max(worst, abs(total - 1.0))
    elapsed = time.time() - t0
    _report(1, "enumerated bordered determinants sum to the normalizer",
            worst <= 1e-8 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_marginal_kernel_equivalence():
    t0 = time.time()
    worst = 0.0
    for e in _random_ensembles():
        K = marginal_kernel(e)
        dist = brute_force_distribution(e)
        masks = list(dist.probs.items())
        for size in range(4):
            for A in itertools.combinations(range(e.n), size):
                amask = mask_of(A)
                lhs = np.linalg.det(K[np.ix_(A, A)]) if size else 1.0
                rhs = sum(pr for msk, pr in masks if msk & amask == amask)
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.time() - t0
    _report(2, "det K_A equals the enumerated containment probability",
            worst <= 1e-8 and elapsed < 30.0,
            f"worst abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_closed_forms():
    rng = np.random.default_rng(300)
    ps = uniform_points(8, 1, seed=301)
    x = ps.coords[:, 0]
    ele = make_nnp(-distance_power_matrix(ps, 1), np.ones((8, 1)))
    smooth_dists = {m: brute_force_distribution(fixed_size_limit(ps, GAUSS, m).process, m)
                    for m in range(2, 7)}
    worst_gap, worst_vdm = 0.0, 0.0
    for trial in range(100):
        m = int(rng.integers(2, 7))
        X = tuple(sorted(rng.choice(8, size=m, replace=False)))
        xs = np.sort(x[list(X)])
        # (i) bordered determinant of (-D^(1); ones) against the gap product
        logabs, sign = log_unnorm_prob(ele, X)
        closed = 2.0 ** (m - 1) * np.prod(np.diff(xs))
        worst_gap = max(worst_gap, abs(sign * math.exp(logabs) - closed) / closed)
        # (ii) smooth-limit law against normalized squared differences
        weights = {Y: np.prod([(x[i] - x[j]) ** 2
                               for i, j in itertools.combinations(Y, 2)])
                   for Y in itertools.combinations(range(8), m)}
        expect = weights[X] / sum(weights.values())
        worst_vdm = max(worst_vdm, abs(smooth_dists[m].prob(X) - expect) / expect)
    _report(3, "gap-product and squared-difference closed forms",
            worst_gap <= 1e-10 and worst_vdm <= 1e-10,
            f"gap form {worst_gap:.2e}, squared form {worst_vdm:.2e}")


def test_criterion_04_fixed_size_convergence():
    t0 = time.time()
    ps = uniform_points(8, 1, seed=42)
    ok = True
    details = []
    for name in BUILTIN_NAMES:
        kern = builtin_kernel(name)
        for m in (3, 5):
            target = brute_force_distribution(fixed_size_limit(ps, kern, m).process, m)
            tvs = [tv_distance(eps_ensemble_distribution(ps, kern, eps, m=m), target)
                   for eps in EPS_GRID]
            monotone = all(tvs[i + 1] <= tvs[i] for i in range(len(tvs) - 1))
            ok = ok and monotone and tvs[-1] <= 2e-2
            details.append(f"{name} m={m}: final {tvs[-1]:.1e}")
    elapsed = time.time() - t0
    _report(4, "TV to the limit decreases along the eps grid for all kernels",
            ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_05_universality_of_r2_kernels():
    ps = uniform_points(8, 1, seed=42)
    worst = 0.0
    for m in (3, 5):
        d1 = brute_force_distribution(
            fixed_size_limit(ps, builtin_kernel("(1+d)exp(-d)"), m).process, m)
        d2 = brute_force_distribution(
            fixed_size_limit(ps, builtin_kernel("sin(d+pi/4)exp(-d)"), m).process, m)
        keys = set(d1.probs) | set(d2.probs)
        worst = max(worst, max(abs(d1.probs.get(k, 0.0) - d2.probs.get(k, 0.0))
                               for k in keys))
    _report(5, "equal-smoothness kernels share one limiting law",
            worst <= 1e-8, f"max prob gap {worst:.2e}")


def test_criterion_06_bivariate_nonmagic_regime():
    ps = uniform_points(7, 2, seed=3)
    res = fixed_size_limit(ps, GAUSS, 4)
    target = brute_force_distribution(res.process, 4)
    dist = eps_ensemble_distribution(ps, GAUSS, 1e-3, m=4)
    tv = tv_distance(dist, target)
    _report(6, "non-magic bivariate limit matches the eps-ensemble",
            res.regime == "NonMagicWronskian" and tv <= 2e-2, f"tv {tv:.2e}")


def test_criterion_07_teaser_reproduction():
    xs = np.array([-1.0, -0.6, -0.2, 0.2, 0.6, 1.0])
    ps = PointSet(np.vstack([np.stack([xs, xs**2], axis=1), [[0.5, 0.6]]]))
    parab, alt = [0, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6]
    gd = brute_force_distribution(fixed_size_limit(ps, GAUSS, 6).process, 6)
    ed = brute_force_distribution(fixed_size_limit(ps, EXPO, 6).process, 6)
    ok = (gd.prob(parab) <= 1e-12 and gd.prob(alt) > 0.0
          and ed.prob(parab) > ed.prob(alt))
    _report(7, "smooth limit kills the parabola set, rough limit favors it", ok,
            f"gauss {gd.prob(parab):.1e} vs {gd.prob(alt):.1e}; "
            f"exp {ed.prob(parab):.3f} vs {ed.prob(alt):.3f}")


def test_criterion_08_varying_size_laws():
    ps = uniform_points(6, 1, seed=11)
    # critical scaling of the rough kernel: full size law
    target = limit_size_distribution(ps, EXPO, 1, 1.0)
    sizes = eps_ensemble_distribution(ps, EXPO, 1e-3, p=1, alpha=1.0).size_marginal()
    tv_exp = tv_distance(sizes, target)
    # smooth kernel at p = 3: pair law with squared-difference weights
    dist_g = eps_ensemble_distribution(ps, GAUSS, 1e-3, p=3, alpha=1.0)
    mass2 = dist_g.size_marginal()[2]
    res = varying_size_limit(ps, GAUSS, 3, 1.0)
    tv_law = tv_distance(dist_g, brute_force_distribution(res.process, res.fixed_size))
    _report(8, "varying-size laws approach the limiting size formulas",
            tv_exp <= 0.05 and mass2 >= 0.99 and tv_law <= 2e-2,
            f"size tv {tv_exp:.3f}, pair mass {mass2:.4f}, law tv {tv_law:.3f}")


def test_criterion_09_sampler_exactness():
    t0 = time.time()
    rng0 = np.random.default_rng(5)
    A = rng0.standard_normal((6, 6))
    V = rng0.standard_normal((6, 2))
    e = make_nnp(A @ A.T / 6, V)
    nsamples = 200000

    exact = brute_force_distribution(e)
    rng = rng_from_seed(123)
    counts: dict[int, int] = {}
    min_size = 6
    for _ in range(nsamples):
        X = sample(e, rng)
        min_size = min(min_size, len(X))
        msk = mask_of(X)
        counts[msk] = counts.get(msk, 0) + 1
    tv_var = sum(abs(counts.get(msk, 0) / nsamples - pr)
                 for msk, pr in exact.probs.items())
    tv_var += sum(c / nsamples for msk, c in counts.items()
                  if msk not in exact.probs)

    exact3 = brute_force_distribution(e, 3)
    rng = rng_from_seed(124)
    counts3: dict[int, int] = {}
    for _ in range(nsamples):
        msk = mask_of(sample_fixed(e, 3, rng))
        counts3[msk] = counts3.get(msk, 0) + 1
    tv_fix = sum(abs(counts3.get(msk, 0) / nsamples - pr)
                 for msk, pr in exact3.probs.items())
    elapsed = time.time() - t0
    _report(9, "samplers match enumeration at 2e5 draws",
            tv_var <= 0.02 and tv_fix <= 0.02 and min_size >= e.p
            and elapsed < 60.0,
            f"varying tv {tv_var:.4f}, fixed tv {tv_fix:.4f}, "
            f"min size {min_size}, {elapsed:.0f}s")


def test_criterion_10_combinatorics():
    ok = True
    for d in range(1, 5):
        for k in range(7):
            homog = [a for a in itertools.product(range(k + 1), repeat=d)
                     if sum(a) == k]
            ok = ok and count_homogeneous(k, d) == len(homog)
            total = sum(len([a for a in itertools.product(range(j + 1), repeat=d)
                             if sum(a) == j]) for j in range(k + 1))
            ok = ok and count_poly(k, d) == total
    ok = ok and magic_numbers(2, 21) == [1, 3, 6, 10, 15, 21]
    _report(10, "monomial counts and magic sizes match explicit enumeration", ok)


def test_criterion_11_wronskian_identities():
    smooth = custom_kernel([1.0, 0, -0.8, 0, 0.37, 0, -0.15, 0, 0.052, 0,
                            -0.017, 0, 0.005])
    worst_closed = 0.0
    for kern in (GAUSS, smooth):
        W = wronskian_matrix(kern, 6, 1)
        for a in range(7):
            for b in range(7):
                expect = 0.0
                if (a + b) % 2 == 0:
                    expect = (-1.0) ** b * math.comb(a + b, a) * kern.taylor[a + b]
                worst_closed = max(worst_closed, abs(W[a, b] - expect))
    worst_det = 0.0
    for d, k in [(1, 2), (1, 3), (2, 2), (3, 2)]:
        W = wronskian_matrix(GAUSS, k, d)
        p = count_poly(k - 1, d)
        lhs = np.linalg.det(W)
        rhs = np.linalg.det(W[:p, :p]) * np.linalg.det(schur_block(W, p))
        worst_det = max(worst_det, abs(lhs - rhs) / abs(rhs))
    _report(11, "univariate closed form and block-determinant identity",
            worst_closed <= 1e-12 and worst_det <= 1e-8,
            f"closed {worst_closed:.1e}, block-det {worst_det:.1e}")
