"""Brute-force oracles, total-variation distances and convergence sweeps.

Everything here evaluates probability laws by exhaustive enumeration so the
constructors and samplers can be verified against them. Both pre-limit
oracles take their minors from _backend: a float function of coordinate
stacks, one per subset size or per chunk of ``CONDITIONAL_BLOCK`` grid
points (each row the minor of Y + x), or the mp working precision.

Subset determinants of near-flat kernel matrices are badly conditioned
(relative accuracy degrades like eps^(-2(m-1)) at size m), so the pre-limit
oracles switch to arbitrary precision (mpmath) once float64 would return
noise: when that eps rule, or log10 of a float64 kernel matrix's condition
number, exceeds ``FLOAT_DIGIT_BUDGET`` digits. For a positive-definite kernel,
cond(L) bounds that of every principal minor of L and cond(K_Y) is a lower
bound on every cond(K_{Y+x}): the enumeration reads the whole kernel matrix,
the conditional density reads K_Y. The mp backend evaluates builtin kernels'
closed forms at working-precision distances and walks the subsets depth-first:
a subset's determinant is its prefix's times one Schur-complement pivot, and
each prefix's Schur complement is formed once for all its descendants.

On the line the builtin exponential kernel e^(-eps|x-y|) is Markov, so
det K_X is the product of 1 - exp(-2 eps h) over the gaps h of sorted X.
For that kernel in d = 1 "auto" takes this closed form, in float64 at every
eps > 0 and with no kernel matrix; "float" and "mp" keep their own backends,
and mp is the referee the tests hold it to. The conditional density's
"auto" withholds it: verify-small's only mpmath.det call is that density's
det K_Y, whose span the bench self-test needs (ROADMAP item 20). The choice
is logged at DEBUG level on the ``flatdpp.diagnostics`` logger, once per call.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations

import mpmath
import numpy as np
from mpmath import mp

from .ensembles import (
    NNP,
    SubsetDistribution,
    indices_of,
    log_fixed_size_normalizer,
    log_normalizer,
    log_unnorm_prob,
    mask_of,
)
from .flatlimit import (_fixed_size_minors, _varying_params, fixed_size_limit,
                        limit_size_distribution)
from .geometry import PointSet, _sq_dists, coincidence_radius
from .kernels import StationaryKernel, _check_eps, _is_builtin_exponential, kernel_matrix

logger = logging.getLogger(__name__)

#: Enumeration guards: 2^16 subsets for varying size, 1e6 combinations fixed.
MAX_GROUND_VARYING = 16
MAX_COMBINATIONS = 10**6

#: Estimated decimal digits float64 may lose before the mp backend kicks in.
FLOAT_DIGIT_BUDGET = 10

#: Grid points per batched determinant stack of a float conditional density;
#: bounds each chunk's matrices to 256 (m + p)^2 entries for minors of order m + p.
CONDITIONAL_BLOCK = 256


def _check_enumerable(n: int, m: int | None) -> None:
    if m is None and n > MAX_GROUND_VARYING:
        raise ValueError(f"varying-size enumeration limited to n <= {MAX_GROUND_VARYING}")
    if m is not None and math.comb(n, m) > MAX_COMBINATIONS:
        raise ValueError(f"C({n},{m}) exceeds the enumeration guard {MAX_COMBINATIONS}")


def _slogdets_by_size(n: int, m: int | None, slogdets):
    """(masks, sizes, log|det|, sign) over every enumerated subset.

    The subsets are every subset of range(n) in increasing mask order when m
    is None, else the m-subsets in lexicographic order. slogdets maps a
    (count, k) array of index rows to (log|det|, sign) of the wanted
    determinants, one per row; it is called once per subset size, so each
    size costs one batched slogdet.
    """
    if m is not None:
        combos = list(combinations(range(n), m))
        idx = np.array(combos, dtype=np.intp).reshape(len(combos), m)
        masks = (1 << idx).sum(axis=1)
        sizes = np.full(masks.size, m)
        stacks = [(slice(None), idx)]
    else:
        masks = np.arange(1 << n)
        bits = (masks[:, None] >> np.arange(n)) & 1
        sizes = bits.sum(axis=1)
        rows = [np.flatnonzero(sizes == k) for k in range(n + 1)]
        stacks = [(r, np.nonzero(bits[r])[1].reshape(r.size, k)) for k, r in enumerate(rows)]
    logabs, sign = np.full(masks.size, -math.inf), np.zeros(masks.size)
    for rows, idx in stacks:
        logabs[rows], sign[rows] = slogdets(idx)
    return masks, sizes, logabs, sign


def brute_force_distribution(e: NNP, m: int | None = None) -> SubsetDistribution:
    """Exact law of an ensemble by enumerating bordered determinants.

    The enumerated total is cross-checked against the analytic normalizer
    (rel. 1e-8) before renormalizing, so a silent inconsistency between the
    determinant path and the spectral path cannot pass through; its
    discrepancy is logged at DEBUG on the ``flatdpp.diagnostics`` logger.
    """
    _check_enumerable(e.n, m)
    logZ = log_normalizer(e) if m is None else log_fixed_size_normalizer(e, m)
    masks, _, logabs, sign = _slogdets_by_size(e.n, m, lambda idx: log_unnorm_prob(e, idx))
    vals = sign * np.exp(logabs - logZ)
    total = float(np.sum(vals))
    logger.debug("brute_force_distribution: enumerated mass - 1 = %.3e "
                 "(n=%d, m=%s)", total - 1.0, e.n, m)
    if abs(total - 1.0) > 1e-8:
        raise RuntimeError(
            f"enumerated mass {total!r} disagrees with the analytic normalizer"
        )
    return SubsetDistribution(e.n, masks, vals / total)


# ---------------------------------------------------------------------------
# Pre-limit ensembles: exact subset laws of (scaled) kernel matrices.
# ---------------------------------------------------------------------------


def _backend(caller: str, kernel: StationaryKernel, ps: PointSet, m: int,
             eps: float | None, precision: str):
    """caller's size-m minors, logged at DEBUG: a float function of coordinate
    stacks (..., k, d) -> (log|det|, sign), or the mp working precision (dps).

    ps holds the points whose conditioning is read (the cloud, or Y). eps=None
    gives the fixed-size flat limit's bordered minors; otherwise the choice is
    the module docstring's, where the eps rule reads about 2(m-1) log10(1/eps)
    digits lost by a size-m minor of a smooth kernel matrix at unit spacing
    (singular values 1, eps^2, ..., eps^(2(m-1))).
    """
    if precision not in ("auto", "float", "mp"):
        raise ValueError(f"precision must be 'auto', 'float' or 'mp', not {precision!r}")
    if eps is None:
        logger.debug("%s: flat-limit backend, dps=None (m=%d)", caller, m)
        return _fixed_size_minors(kernel, m, ps.d)
    _check_eps(eps)
    line = precision == "auto" and ps.d == 1 and _is_builtin_exponential(kernel)
    if line and caller == "eps_ensemble_distribution":
        logger.debug("%s: closed-form backend, dps=None, det K_X = prod(1 - exp(-2 eps h)) "
                     "over the gaps h of sorted X (exponential kernel on the line, m=%d, "
                     "eps=%g)", caller, m, eps)
        return _line_minors(eps)
    with np.errstate(all="ignore"):
        cond = float(np.linalg.cond(kernel_matrix(kernel, ps, eps)))
    lost = 2 * (m - 1) * math.log10(1.0 / eps) + 1.0 if eps < 1.0 else 0.0
    risk = max(lost, math.log10(cond) if cond < math.inf else math.inf)
    use_mp = precision == "mp" or (precision == "auto" and risk > FLOAT_DIGIT_BUDGET)
    wanted = _mp_digits(m, eps) if use_mp else None
    logger.debug("%s: %s backend, dps=%s, %.1f digits at risk (m=%d, eps=%g, condition "
                 "number of a %d-point kernel matrix)%s", caller, "mp" if use_mp else "float",
                 wanted, risk, m, eps, ps.n, "; closed form withheld for the exponential "
                 "kernel on the line: the bench self-test needs this density's mpmath.det "
                 "span (ROADMAP item 20)" if line else "")
    if use_mp:
        return wanted

    def kernel_minors(X):
        sign, logabs = np.linalg.slogdet(kernel(eps * np.sqrt(_sq_dists(X, X))))
        return logabs, sign
    return kernel_minors


def _line_minors(eps: float):
    """X -> (log det K_X, 1) of the exponential kernel on the line at inverse
    scale eps, for stacks X of shape (..., k, 1): the sum of log(1 - exp(-2 eps
    h)) over the gaps h of the sorted row, with no kernel matrix. Where 2 eps h
    underflows, log 2 + log eps + log h is taken, so every eps > 0 gives a
    finite log det."""
    def minors(X):
        h = np.diff(np.sort(X[..., 0], axis=-1), axis=-1)
        t = 2.0 * eps * h
        with np.errstate(divide="ignore"):
            logs = np.where(t < np.finfo(float).tiny,
                            math.log(2.0) + math.log(eps) + np.log(h), np.log(-np.expm1(-t)))
        return logs.sum(axis=-1), np.ones(X.shape[:-2])
    return minors


def _mp_digits(m: int, eps: float) -> int:
    """Working precision for the mp backend: dynamic range plus head room.

    The determinant value itself collapses like eps^(m(m-1)), so the
    Schur-complement pivots span that many digits; carry them all plus a
    safety margin.
    """
    span = m * (m - 1) * math.log10(1.0 / eps) if eps < 1.0 else 0.0
    return int(math.ceil(span)) + 30


def _mp_points(coords: np.ndarray) -> list[list]:
    return [[mp.mpf(float(c)) for c in row] for row in coords]


def _mp_dist(a, b):
    # distances at working precision from the exact coordinates: a distance
    # rounded to float64 perturbs its entry by far more than the flat-regime
    # minors, which collapse like eps^(m(m-1)), can absorb
    return mp.sqrt(mp.fsum((u - v) ** 2 for u, v in zip(a, b)))


def _mp_kernel_matrix(kernel: StationaryKernel, pts: list, eps_mp) -> list[list]:
    """[f(eps * ||x_i - x_j||)] at working precision, as lists of mpf rows."""
    n = len(pts)
    K = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            K[i][j] = K[j][i] = kernel.eval_mp(eps_mp * _mp_dist(pts[i], pts[j]))
    return K


def _mp_direct_det(K: list[list], idx) -> mpmath.mpf:
    return mpmath.det(mpmath.matrix([[K[a][b] for b in idx] for a in idx]))


def _mp_subset_dets(K: list[list], m: int | None = None) -> dict[int, mpmath.mpf]:
    """Principal minors det K_S keyed by mask: every S, or every |S| = m.

    Depth-first over S in increasing index order, at the working precision:
    det K_{S+i} = det K_S * C_ii, where C is the Schur complement of K_S over
    the indices after max(S). Each prefix forms its C once for all of its
    descendants; a prefix one short of m needs only C's diagonal. Below an
    exactly zero pivot C does not exist, so that prefix's descendants take a
    direct mpmath.det each. The result is in depth-first order, which for
    fixed m is lexicographic.
    """
    n = len(K)
    depth = n if m is None else m
    dets: dict[int, mpmath.mpf] = {}
    if depth == 0 or m is None:
        dets[0] = mp.mpf(1)

    def direct(mask: int, lo: int, d: int) -> None:
        prefix = list(indices_of(mask))
        for k in range(1, n - lo + 1) if m is None else [m - d]:
            for rest in combinations(range(lo, n), k):
                idx = prefix + list(rest)
                dets[mask_of(idx)] = _mp_direct_det(K, idx)

    def walk(mask: int, det, lo: int, C: list[list], d: int) -> None:
        # C is the Schur complement over indices lo..n-1 of the d-subset mask
        last = n if m is None else n - (m - d) + 1  # leave room to reach size m
        for i in range(lo, last):
            a = i - lo
            piv = C[a][a]
            child, cdet = mask | 1 << i, det * piv
            if m is None or d + 1 == m:
                dets[child] = cdet
            if d + 1 == depth or i == n - 1:
                continue
            if piv == 0:
                direct(child, i + 1, d + 1)
                continue
            col = C[a][a + 1:]
            t = [c / piv for c in col]
            if d + 2 == depth:
                # the children of child are leaves: only the diagonal matters
                for j, (tj, cj) in enumerate(zip(t, col), start=a + 1):
                    dets[child | 1 << (lo + j)] = cdet * (C[j][j] - tj * cj)
            else:
                walk(child, cdet, i + 1,
                     [[x - tj * y for x, y in zip(C[j][a + 1:], col)]
                      for j, tj in enumerate(t, start=a + 1)], d + 1)

    if depth > 0:
        walk(0, mp.mpf(1), 0, K, 0)
    return dets


def _mp_conditional_logdets(kernel: StationaryKernel, Y: np.ndarray, xs: np.ndarray,
                            eps: float) -> list[float]:
    """log det K_{Y+x} for each row x of xs (-inf unless positive), in mp.

    K_Y is factored once (LU with pivoting, so a zero diagonal does no harm);
    each x then costs m - 1 kernel values and one Schur pivot,
    det K_{Y+x} = det K_Y * (f(0) - k_x^T K_Y^{-1} k_x). A singular K_Y has
    no inverse, and each x then takes a direct determinant.
    """
    eps_mp = mp.mpf(eps)
    ys = _mp_points(Y)
    KY = _mp_kernel_matrix(kernel, ys, eps_mp)
    f0 = kernel.eval_mp(mp.mpf(0))
    MY = mpmath.matrix(KY)
    det_y = mpmath.det(MY)
    inv = mpmath.inverse(MY).tolist() if det_y != 0 else None
    out = []
    for x in _mp_points(xs):
        k = [kernel.eval_mp(eps_mp * _mp_dist(x, y)) for y in ys]
        if inv is None:
            Kx = [row + [kj] for row, kj in zip(KY, k)] + [k + [f0]]
            det = _mp_direct_det(Kx, range(len(Kx)))
        else:
            det = det_y * (f0 - mpmath.fdot(k, [mpmath.fdot(row, k) for row in inv]))
        out.append(float(mp.log(det)) if det > 0 else -math.inf)
    return out


def eps_ensemble_distribution(ps: PointSet, kernel: StationaryKernel, eps: float,
                              m: int | None = None, p: int = 0, alpha: float = 1.0,
                              precision: str = "auto") -> SubsetDistribution:
    """Exact subset law of DPP(alpha * eps^{-p} L(eps)), by enumeration.

    With m given, the law is conditioned on |X| = m (the scaling then cancels).
    precision is "auto", "float" or "mp" (else a ValueError before any work)
    and picks the minors of each subset size's gathered coordinates: for the
    builtin exponential kernel on the line "auto" takes the closed form, in
    float64 at any eps; otherwise mp when the digits at risk (see the module
    docstring), read on the whole kernel matrix, exceed FLOAT_DIGIT_BUDGET,
    and the kernel's float64 minors below that. "mp" is the referee of both.
    """
    _varying_params(p, alpha)
    n = ps.n
    mmax = n if m is None else m
    _check_enumerable(n, m)
    backend = _backend("eps_ensemble_distribution", kernel, ps, mmax, eps, precision)

    if not callable(backend):
        with mp.workdps(backend):
            eps_mp = mp.mpf(eps)
            dets = _mp_subset_dets(_mp_kernel_matrix(kernel, _mp_points(ps.coords), eps_mp), m)
            scale = mp.mpf(alpha) * eps_mp ** (-p)
            pows = [scale ** k for k in range(mmax + 1)]
            masks = sorted(dets) if m is None else list(dets)
            weights = [dets[k] * pows[bin(k).count("1")] for k in masks]
            total = mpmath.fsum(weights)
            values = [float(w / total) for w in weights]
        return SubsetDistribution(n, masks, values)

    masks, sizes, logabs, sign = _slogdets_by_size(n, m, lambda idx: backend(ps.coords[idx]))
    positive = sign > 0
    if not positive.any():
        raise ValueError("no subset has positive mass; kernel matrix indefinite")
    logvals = logabs + sizes * (math.log(alpha) - p * math.log(eps))
    weights = np.where(positive, np.exp(logvals - np.max(logvals[positive])), 0.0)
    return SubsetDistribution(n, masks, weights / float(np.sum(weights)))


# ---------------------------------------------------------------------------
# Distances and derived summaries.
# ---------------------------------------------------------------------------


def tv_distance(P, Q) -> float:
    """Sum of |P(A) - Q(A)| over outcomes (no 1/2 factor); lies in [0, 2]."""
    if isinstance(P, SubsetDistribution) and isinstance(Q, SubsetDistribution):
        if P.n != Q.n:
            raise ValueError("distributions live on different ground sets")
        # P(A) - Q(A) per mask of either support, as one weighted tally
        _, where = np.unique(np.concatenate([P.masks, Q.masks]), return_inverse=True)
        return float(np.sum(np.abs(np.bincount(where, np.concatenate([P.values, -Q.values])))))
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise ValueError("outcome spaces do not match")
    return float(np.sum(np.abs(P - Q)))


def _conditional_points(Y, x_grid) -> tuple[PointSet, np.ndarray]:
    """(the PointSet of Y, x_grid as a (G, d) array), or ValueError unless Y
    is a PointSet's coordinates (finite and distinct) and x_grid is
    non-empty and finite, with Y's d columns."""
    try:
        ys = PointSet(Y)
    except ValueError as err:
        raise ValueError(f"conditioning points Y: {err}") from None
    grid = np.asarray(x_grid, dtype=float)
    grid = grid[:, None] if grid.ndim == 1 else grid
    if grid.ndim != 2 or grid.shape[0] == 0 or grid.shape[1] != ys.d:
        raise ValueError(f"x_grid must hold one or more points of dimension {ys.d}, "
                         f"as Y does, not an array of shape {np.shape(x_grid)}")
    if not np.all(np.isfinite(grid)):
        raise ValueError("x_grid has a coordinate that is not finite")
    return ys, grid


def conditional_density(kernel: StationaryKernel, Y, x_grid,
                        eps: float | None = None,
                        precision: str = "auto") -> np.ndarray:
    """Density of the last point given the others, over the evaluation grid.

    The value at a grid point x is the unnormalized mass of Y + x, either
    under the kernel matrix at inverse scale eps or (eps=None) under the
    size-(len(Y) + 1) flat limit, whose bordered minor over Y + x is the same
    on any ground set that contains it. Values are normalized to sum to one
    over the grid and vanish at grid points coinciding with an element of Y
    (and, in the limit, where V is singular on Y + x). Y must be finite and
    distinct, and x_grid non-empty and finite, with Y's dimension; any other
    input is a ValueError before any work.
    precision is as in eps_ensemble_distribution, with the digits at risk
    read on K_Y; "auto" withholds the closed form (see the module docstring).
    """
    ys, x_grid = _conditional_points(Y, x_grid)
    Y, k, d = ys.coords, ys.n, ys.d
    backend = _backend("conditional_density", kernel, ys, k + 1, eps, precision)
    # one chunk of grid points at a time, so no (G, k, d) difference is formed
    radius = coincidence_radius(Y, x_grid)
    free = np.concatenate([
        np.sqrt(np.min(_sq_dists(x_grid[lo:lo + CONDITIONAL_BLOCK], Y), axis=1)) > radius
        for lo in range(0, x_grid.shape[0], CONDITIONAL_BLOCK)])
    xs, where = np.unique(x_grid[free], axis=0, return_inverse=True)
    if not callable(backend):
        with mp.workdps(backend):
            vals = np.array(_mp_conditional_logdets(kernel, Y, xs, eps))
    else:
        vals = np.full(xs.shape[0], -math.inf)
        for lo in range(0, xs.shape[0], CONDITIONAL_BLOCK):
            chunk = xs[lo:lo + CONDITIONAL_BLOCK, None]
            logabs, sign = backend(np.concatenate(
                [np.broadcast_to(Y, (chunk.shape[0], k, d)), chunk], axis=1))
            vals[lo:lo + chunk.shape[0]] = np.where(sign > 0, logabs, -math.inf)
    logvals = np.full(x_grid.shape[0], -math.inf)
    logvals[free] = vals[where.reshape(-1)]
    ref = np.max(logvals)
    if not math.isfinite(ref):
        raise ValueError("conditional density vanished on the whole grid")
    dens = np.exp(logvals - ref)
    return dens / dens.sum()


def inclusion_probabilities(e: NNP, m: int | None = None) -> np.ndarray:
    """P(i in X) per ground index; diagonal of K, or enumeration when m is fixed.

    The diagonal of K = QQ^T + U diag(lam / (1 + lam)) U^T is read as
    rowsum(Q o Q) + (U o U) lam / (1 + lam), with no n x n array: each
    einsum runs in one pass over its operands. U is read first, so one eigh
    serves both U and lam.
    """
    if m is None:
        U = e.U
        diag = (np.einsum("ij,ij->i", e.Q, e.Q)
                + np.einsum("ij,ij,j->i", U, U, e.lam / (1.0 + e.lam)))
        return np.clip(diag, 0.0, 1.0)
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


def convergence_curve(ps: PointSet | None, kernel: StationaryKernel, eps_list,
                      mode: str, m: int | None = None, p: int | None = None,
                      alpha: float = 1.0, Y=None, x_grid=None) -> ConvergenceCurve:
    """Measure the approach of pre-limit ensembles to their flat limit.

    Modes: "full-law" (TV of the size-m subset law), "size-law" (TV of the
    size distribution under alpha * eps^{-p} scaling), "conditional" (TV of
    conditional densities over a grid), "inclusion" (max-abs gap of inclusion
    probabilities at fixed size m). The conditional mode does not read ps,
    which may be None there. Every input is checked before the first
    enumeration.
    """
    missing = {"full-law": m is None and "the fixed size m",
               "size-law": p is None and "the scaling exponent p",
               "conditional": (Y is None or x_grid is None) and "Y and x_grid",
               "inclusion": m is None and "the fixed size m"}
    if mode not in missing:
        raise ValueError(f"unknown mode {mode!r}")
    if missing[mode]:
        raise ValueError(f"{mode} mode needs {missing[mode]}")
    eps_list = sorted((float(x) for x in eps_list), reverse=True)
    for eps in eps_list:
        _check_eps(eps)
    values = []
    if mode == "full-law":
        lim = fixed_size_limit(ps, kernel, m)
        target = brute_force_distribution(lim.process, m)
        for eps in eps_list:
            values.append(tv_distance(
                eps_ensemble_distribution(ps, kernel, eps, m=m), target))
        desc = lim.label
    elif mode == "size-law":
        target_vec = limit_size_distribution(ps, kernel, p, alpha)
        for eps in eps_list:
            dist = eps_ensemble_distribution(ps, kernel, eps, p=p, alpha=alpha)
            values.append(tv_distance(dist.size_marginal(), target_vec))
        desc = f"size law, p={p}, alpha={alpha}"
    elif mode == "conditional":
        target_vec = conditional_density(kernel, Y, x_grid, eps=None)
        for eps in eps_list:
            values.append(tv_distance(
                conditional_density(kernel, Y, x_grid, eps=eps), target_vec))
        desc = "conditional density"
    else:
        lim = fixed_size_limit(ps, kernel, m)
        target_vec = inclusion_probabilities(lim.process, m)
        for eps in eps_list:
            incl = eps_ensemble_distribution(ps, kernel, eps, m=m).inclusion_vector()
            values.append(float(np.max(np.abs(incl - target_vec))))
        desc = lim.label
    return ConvergenceCurve(eps_list, values, mode, desc)


def empirical_check(sampler, exact: SubsetDistribution, nsamples: int,
                    seed: int) -> tuple[float, float]:
    """TV between sampled frequencies and an exact law; also TV of size laws.

    sampler is a callable rng -> subset (list of indices).
    """
    rng = np.random.default_rng(seed)
    drawn = np.array([mask_of(sampler(rng)) for _ in range(nsamples)], dtype=np.int64)
    masks, counts = np.unique(drawn, return_counts=True)
    emp = SubsetDistribution(exact.n, masks, counts / nsamples)
    return (tv_distance(emp, exact),
            tv_distance(emp.size_marginal(), exact.size_marginal()))
