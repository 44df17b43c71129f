"""Brute-force oracles, total-variation distances and convergence sweeps.

Everything here evaluates probability laws by exhaustive enumeration so the
constructors and samplers can be verified against them. Subset determinants of
near-flat kernel matrices are badly conditioned (relative accuracy degrades
like eps^(-2(m-1))), so the enumeration of pre-limit ensembles switches to
arbitrary precision (mpmath) once float64 would return noise; builtin kernels
evaluate their closed forms at working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import mpmath
import numpy as np
from mpmath import mp

from .ensembles import (
    NNP,
    SubsetDistribution,
    log_fixed_size_normalizer,
    log_normalizer,
    log_unnorm_prob,
    marginal_kernel,
    mask_of,
)
from .flatlimit import _fixed_size_dispatch, fixed_size_limit, limit_size_distribution
from .geometry import DISTINCT_TOL, PointSet
from .kernels import StationaryKernel, kernel_matrix

#: Enumeration guards: 2^16 subsets for varying size, 1e6 combinations fixed.
MAX_GROUND_VARYING = 16
MAX_COMBINATIONS = 10**6

#: Estimated decimal digits float64 may lose before the mp backend kicks in.
FLOAT_DIGIT_BUDGET = 10


def _all_masks(n: int):
    if n > MAX_GROUND_VARYING:
        raise ValueError(f"varying-size enumeration limited to n <= {MAX_GROUND_VARYING}")
    return range(1 << n)


def _fixed_subsets(n: int, m: int):
    if math.comb(n, m) > MAX_COMBINATIONS:
        raise ValueError(f"C({n},{m}) exceeds the enumeration guard {MAX_COMBINATIONS}")
    return combinations(range(n), m)


def brute_force_distribution(e: NNP, m: int | None = None) -> SubsetDistribution:
    """Exact law of an ensemble by enumerating bordered determinants.

    The enumerated total is cross-checked against the analytic normalizer
    (rel. 1e-8) before renormalizing, so a silent inconsistency between the
    determinant path and the spectral path cannot pass through.
    """
    if m is None:
        subsets = ([i for i in range(e.n) if mask >> i & 1] for mask in _all_masks(e.n))
        logZ = log_normalizer(e)
    else:
        subsets = _fixed_subsets(e.n, m)
        logZ = log_fixed_size_normalizer(e, m)
    probs: dict[int, float] = {}
    total = 0.0
    for X in subsets:
        logabs, sign = log_unnorm_prob(e, X)
        val = sign * math.exp(logabs - logZ) if sign != 0.0 else 0.0
        total += val
        if val > 0.0:
            probs[mask_of(X)] = val
    if abs(total - 1.0) > 1e-8:
        raise RuntimeError(
            f"enumerated mass {total!r} disagrees with the analytic normalizer"
        )
    return SubsetDistribution(e.n, {k: v / total for k, v in probs.items()})


# ---------------------------------------------------------------------------
# Pre-limit ensembles: exact subset laws of (scaled) kernel matrices.
# ---------------------------------------------------------------------------


def _digits_lost(m: int, eps: float) -> float:
    """Decimal digits a float64 subset determinant loses in the flat regime.

    The relative error of an LU determinant is governed by the condition
    number, which grows like eps^(-2(m-1)) for a size-m minor of a smooth
    kernel matrix (singular values 1, eps^2, ..., eps^(2(m-1))).
    """
    if eps >= 1.0:
        return 0.0
    return 2 * (m - 1) * math.log10(1.0 / eps) + 1.0


def _mp_digits(m: int, eps: float) -> int:
    """Working precision for the mp backend: dynamic range plus head room.

    The determinant value itself collapses like eps^(m(m-1)), so the partial
    LU pivots span that many digits; carry them all plus a safety margin.
    """
    span = m * (m - 1) * math.log10(1.0 / eps) if eps < 1.0 else 0.0
    return int(math.ceil(span)) + 30


def _needs_mp(mmax: int, eps: float) -> bool:
    return _digits_lost(mmax, eps) > FLOAT_DIGIT_BUDGET


def _mp_kernel_matrix(kernel: StationaryKernel, ps: PointSet, eps: float):
    # distances at working precision from the exact coordinates: a distance
    # rounded to float64 perturbs its entry by far more than the flat-regime
    # minors, which collapse like eps^(m(m-1)), can absorb
    coords = [[mp.mpf(float(c)) for c in row] for row in ps.coords]
    eps_mp = mp.mpf(eps)
    n = ps.n
    M = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(i, n):
            dist = mp.sqrt(mp.fsum((a - b) ** 2 for a, b in zip(coords[i], coords[j])))
            v = kernel.eval_mp(eps_mp * dist)
            M[i, j] = v
            M[j, i] = v
    return M


def _mp_subdet(M, idx) -> mpmath.mpf:
    k = len(idx)
    if k == 0:
        return mp.mpf(1)
    S = mpmath.matrix(k, k)
    for a, ia in enumerate(idx):
        for b, ib in enumerate(idx):
            S[a, b] = M[ia, ib]
    return mpmath.det(S)


def eps_ensemble_distribution(ps: PointSet, kernel: StationaryKernel, eps: float,
                              m: int | None = None, p: int = 0, alpha: float = 1.0,
                              precision: str = "auto",
                              dps: int | None = None) -> SubsetDistribution:
    """Exact subset law of DPP(alpha * eps^{-p} L(eps)), by enumeration.

    With m given, the law is conditioned on |X| = m (the scaling then cancels).
    precision is one of "auto", "float", "mp".
    """
    n = ps.n
    mmax = n if m is None else m
    use_mp = precision == "mp" or (precision == "auto" and _needs_mp(mmax, eps))
    if m is None:
        subsets = [tuple(i for i in range(n) if mask >> i & 1) for mask in _all_masks(n)]
    else:
        subsets = list(_fixed_subsets(n, m))

    if use_mp:
        wanted = _mp_digits(mmax, eps) if dps is None else dps
        with mp.workdps(wanted):
            M = _mp_kernel_matrix(kernel, ps, eps)
            scale = mp.mpf(alpha) * mp.mpf(eps) ** (-p)
            weights = [_mp_subdet(M, idx) * scale ** len(idx) for idx in subsets]
            total = mpmath.fsum(weights)
            probs = {mask_of(idx): float(w / total)
                     for idx, w in zip(subsets, weights) if w > 0}
        return SubsetDistribution(n, probs)

    L = kernel_matrix(kernel, ps, eps)
    log_scale = math.log(alpha) - p * math.log(eps)
    logvals, signs = [], []
    for idx in subsets:
        if len(idx) == 0:
            logvals.append(0.0)
            signs.append(1.0)
            continue
        sign, logabs = np.linalg.slogdet(L[np.ix_(idx, idx)])
        logvals.append(logabs + len(idx) * log_scale)
        signs.append(sign)
    positive = [lv for lv, s in zip(logvals, signs) if s > 0]
    if not positive:
        raise ValueError("no subset has positive mass; kernel matrix indefinite")
    ref = max(positive)
    weights = [s * math.exp(lv - ref) if s > 0 else 0.0
               for lv, s in zip(logvals, signs)]
    total = sum(weights)
    probs = {mask_of(idx): w / total for idx, w in zip(subsets, weights) if w > 0}
    return SubsetDistribution(n, probs)


# ---------------------------------------------------------------------------
# Distances and derived summaries.
# ---------------------------------------------------------------------------


def tv_distance(P, Q) -> float:
    """Sum of |P(A) - Q(A)| over outcomes (no 1/2 factor); lies in [0, 2]."""
    if isinstance(P, SubsetDistribution) and isinstance(Q, SubsetDistribution):
        if P.n != Q.n:
            raise ValueError("distributions live on different ground sets")
        keys = set(P.probs) | set(Q.probs)
        return float(sum(abs(P.probs.get(k, 0.0) - Q.probs.get(k, 0.0)) for k in keys))
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise ValueError("outcome spaces do not match")
    return float(np.sum(np.abs(P - Q)))


def conditional_density(kernel: StationaryKernel, Y, x_grid,
                        eps: float | None = None, m: int | None = None,
                        precision: str = "auto") -> np.ndarray:
    """Density of the last point given the others, over the evaluation grid.

    Each grid point is appended to Y in turn; the value is the unnormalized
    mass of the full augmented set, either under the kernel matrix at inverse
    scale eps or (eps=None) under the flat-limit process built on those
    points. Values are normalized to sum to one over the grid and vanish at
    grid points coinciding with an element of Y.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim == 1:
        x_grid = x_grid[:, None]
    if m is None:
        m = Y.shape[0] + 1
    if m != Y.shape[0] + 1:
        raise ValueError("conditioning set must have m - 1 points")

    use_mp = eps is not None and (
        precision == "mp" or (precision == "auto" and _needs_mp(m, eps)))
    logvals = np.full(x_grid.shape[0], -math.inf)
    for g, x in enumerate(x_grid):
        if np.min(np.linalg.norm(Y - x[None, :], axis=1)) <= DISTINCT_TOL:
            continue
        pts = PointSet(np.vstack([Y, x[None, :]]))
        if eps is None:
            res = _fixed_size_dispatch(pts, kernel, m)
            logabs, sign = log_unnorm_prob(res.process, range(m))
            if sign > 0:
                logvals[g] = logabs
        elif use_mp:
            with mp.workdps(_mp_digits(m, eps)):
                det = _mp_subdet(_mp_kernel_matrix(kernel, pts, eps), list(range(m)))
                if det > 0:
                    logvals[g] = float(mp.log(det))
        else:
            sign, logabs = np.linalg.slogdet(kernel_matrix(kernel, pts, eps))
            if sign > 0:
                logvals[g] = logabs
    ref = np.max(logvals)
    if not math.isfinite(ref):
        raise ValueError("conditional density vanished on the whole grid")
    vals = np.exp(logvals - ref)
    return vals / vals.sum()


def inclusion_probabilities(e: NNP, m: int | None = None) -> np.ndarray:
    """P(i in X) per ground index; diagonal of K, or enumeration when m is fixed."""
    if m is None:
        return np.clip(np.diag(marginal_kernel(e)), 0.0, 1.0)
    return brute_force_distribution(e, m).inclusion_vector()


@dataclass
class ConvergenceCurve:
    """TV (or max-abs) distance to the flat-limit target per inverse scale."""

    epsilons: list[float]
    values: list[float]
    mode: str
    target: str = ""

    def __post_init__(self):
        if len(self.epsilons) != len(self.values):
            raise ValueError("epsilons and values must have matching lengths")
        if any(v < 0 for v in self.values):
            raise ValueError("distances must be nonnegative")


def convergence_curve(ps: PointSet, kernel: StationaryKernel, eps_list,
                      mode: str, m: int | None = None, p: int | None = None,
                      alpha: float = 1.0, Y=None, x_grid=None) -> ConvergenceCurve:
    """Measure the approach of pre-limit ensembles to their flat limit.

    Modes: "full-law" (TV of the size-m subset law), "size-law" (TV of the
    size distribution under alpha * eps^{-p} scaling), "conditional" (TV of
    conditional densities over a grid), "inclusion" (max-abs gap of inclusion
    probabilities at fixed size m).
    """
    eps_list = sorted((float(x) for x in eps_list), reverse=True)
    values = []
    if mode == "full-law":
        if m is None:
            raise ValueError("full-law mode needs the fixed size m")
        lim = fixed_size_limit(ps, kernel, m)
        target = brute_force_distribution(lim.process, m)
        for eps in eps_list:
            values.append(tv_distance(
                eps_ensemble_distribution(ps, kernel, eps, m=m), target))
        desc = lim.label
    elif mode == "size-law":
        if p is None:
            raise ValueError("size-law mode needs the scaling exponent p")
        target_vec = limit_size_distribution(ps, kernel, p, alpha)
        for eps in eps_list:
            dist = eps_ensemble_distribution(ps, kernel, eps, p=p, alpha=alpha)
            values.append(tv_distance(dist.size_marginal(), target_vec))
        desc = f"size law, p={p}, alpha={alpha}"
    elif mode == "conditional":
        if Y is None or x_grid is None:
            raise ValueError("conditional mode needs Y and x_grid")
        target_vec = conditional_density(kernel, Y, x_grid, eps=None)
        for eps in eps_list:
            values.append(tv_distance(
                conditional_density(kernel, Y, x_grid, eps=eps), target_vec))
        desc = "conditional density"
    elif mode == "inclusion":
        if m is None:
            raise ValueError("inclusion mode needs the fixed size m")
        lim = fixed_size_limit(ps, kernel, m)
        target_vec = inclusion_probabilities(lim.process, m)
        for eps in eps_list:
            incl = eps_ensemble_distribution(ps, kernel, eps, m=m).inclusion_vector()
            values.append(float(np.max(np.abs(incl - target_vec))))
        desc = lim.label
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ConvergenceCurve(eps_list, values, mode, desc)


def empirical_check(sampler, exact: SubsetDistribution, nsamples: int,
                    seed: int) -> tuple[float, float]:
    """TV between sampled frequencies and an exact law; also TV of size laws.

    sampler is a callable rng -> subset (list of indices).
    """
    rng = np.random.default_rng(seed)
    counts: dict[int, int] = {}
    for _ in range(nsamples):
        msk = mask_of(sampler(rng))
        counts[msk] = counts.get(msk, 0) + 1
    emp = SubsetDistribution.from_counts(exact.n, counts)
    return (tv_distance(emp, exact),
            tv_distance(emp.size_marginal(), exact.size_marginal()))
