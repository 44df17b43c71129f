"""Limiting processes of kernel L-ensembles as the length-scale diverges.

Fixed-size ensembles of size m: the limit depends on where m sits relative to
the magic sizes (dimensions of polynomial spaces) and the kernel's smoothness
order r. Varying-size ensembles rescaled by alpha * eps^{-p}: the limit
depends on the interplay of p, r and n. Every limit is returned as a
validated extended L-ensemble plus a regime tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._numerics import _Bound
from .ensembles import (CPDViolationError, NNP, _bordered_slogdets, _decided, _distance_block,
                        _distance_nnp, _factor_block, _scaled_nnp, make_factored_nnp, make_nnp,
                        nnp_to_dict, size_distribution)
from .geometry import PointSet
from .kernels import StationaryKernel, kernel_matrix
from .polybasis import (_monomial_columns, count_poly, homogeneous_indices, monomial_indices,
                        vandermonde, vandermonde_block)
from .wronskian import schur_block, wronskian_matrix

PROJECTION_SMOOTH = "ProjectionSmooth"
NONMAGIC_WRONSKIAN = "NonMagicWronskian"
FINITE_SMOOTHNESS = "FiniteSmoothness"
FULL_SET = "FullSetAlmostSurely"
VARYING_PROJECTION = "VaryingProjection"
VARYING_WRONSKIAN = "VaryingWronskian"
VARYING_FINITE = "VaryingFiniteSmoothness"


@dataclass
class FlatLimitResult:
    """A limiting point process: regime tag, ensemble, and dispatch metadata."""

    regime: str
    process: NNP
    fixed_size: int | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        param = {
            PROJECTION_SMOOTH: "k",
            NONMAGIC_WRONSKIAN: "k",
            FINITE_SMOOTHNESS: "r",
            VARYING_PROJECTION: "l",
            VARYING_WRONSKIAN: "l",
            VARYING_FINITE: "r",
        }.get(self.regime)
        if param is None or param not in self.metadata:
            return self.regime
        return f"{self.regime}({param}={self.metadata[param]})"

    def to_dict(self) -> dict:
        """The limit's record, with the ensemble's as :func:`nnp_to_dict`
        gives it, for :func:`flatdpp.store.write_json`."""
        meta = {k: (None if v is None or (isinstance(v, float) and math.isinf(v))
                    else v)
                for k, v in self.metadata.items()}
        return {
            "regime": self.regime,
            "label": self.label,
            "fixed_size": self.fixed_size,
            "metadata": meta,
            "nnp": nnp_to_dict(self.process),
        }


def classify_fixed(d: int, r, m: int) -> tuple[str, int]:
    """Regime of the fixed-size limit: exactly one of the three cases fires.

    Returns (regime, k) where k is the polynomial degree of the regime
    (equal to r for the finite-smoothness case). Boundary sizes m equal to a
    magic number route to the projection regime.
    """
    k = 0
    while count_poly(k, d) < m:
        k += 1
    if count_poly(k, d) == m and k <= r - 1:
        return PROJECTION_SMOOTH, k
    if k <= r - 1:
        return NONMAGIC_WRONSKIAN, k
    return FINITE_SMOOTHNESS, int(r)


def _sure_full_set(n: int) -> NNP:
    # frozen, so make_nnp keeps V = I rather than copying it
    V = np.eye(n)
    V.setflags(write=False)
    return make_nnp(np.broadcast_to(0.0, (n, n)), V)


def _projection_process(ps: PointSet, k: int) -> NNP:
    return make_nnp(np.broadcast_to(0.0, (ps.n, ps.n)), vandermonde(ps, k))


def _wronskian_process(ps: PointSet, kernel: StationaryKernel, k: int,
                       scale: float = 1.0) -> NNP:
    """(V_k (scale W_bar) V_k^T; V_{<k}) from its factor: V_k is the degree-k
    block of the Vandermonde matrix and W_bar the Wronskian Schur block."""
    Wbar = schur_block(wronskian_matrix(kernel, k, ps.d), count_poly(k - 1, ps.d))
    V = vandermonde(ps, k - 1) if k >= 1 else None
    return make_factored_nnp(vandermonde_block(ps, k), scale * Wbar, V)


def _check_size(ps: PointSet, m: int) -> None:
    if m < 1 or m > ps.n:
        raise ValueError(f"fixed size m={m} must satisfy 1 <= m <= n = {ps.n}")


def fixed_size_limit(ps: PointSet, kernel: StationaryKernel, m: int) -> FlatLimitResult:
    """Limit of the size-m L-ensemble of the kernel matrix at vanishing inverse scale."""
    _check_size(ps, m)
    if m == ps.n:
        # every regime degenerates to the sure full set
        return FlatLimitResult(FULL_SET, _sure_full_set(ps.n), fixed_size=m,
                               metadata={"d": ps.d, "r": kernel.smoothness, "m": m})
    return _fixed_size_dispatch(ps, kernel, m)


def _fixed_size_dispatch(ps: PointSet, kernel: StationaryKernel, m: int) -> FlatLimitResult:
    d, r = ps.d, kernel.smoothness
    regime, k = classify_fixed(d, r, m)
    meta = {"d": d, "r": r, "m": m}
    if regime == PROJECTION_SMOOTH:
        meta.update(k=k, bracket=(count_poly(k - 1, d), count_poly(k, d)))
        return FlatLimitResult(regime, _projection_process(ps, k), m, meta)
    if regime == NONMAGIC_WRONSKIAN:
        meta.update(k=k, bracket=(count_poly(k - 1, d), count_poly(k, d)))
        return FlatLimitResult(regime, _wronskian_process(ps, kernel, k), m, meta)
    r = int(r)
    meta.update(k=r, bracket=(count_poly(r - 1, d), None))
    return FlatLimitResult(regime, default_ensemble(ps, 2 * r - 1, 1.0), m, meta)


def _fixed_size_minors(kernel: StationaryKernel, m: int, d: int):
    """The function X -> (log |det|, sign) of the size-m fixed-size limit's
    bordered minor at each row of X, an array of shape (G, m, d), as
    :func:`log_unnorm_prob` gives it on any ground set that holds the row.
    L_X and V_X come from the row's coordinates as :func:`_fixed_size_dispatch`
    builds L and V (a Wronskian L_X by the factor kind's :func:`_factor_block`,
    a finite-smoothness one by the distance kind's :func:`_distance_block`),
    the Wronskian Schur block is decided once per call by make_factored_nnp's
    rule, and a row whose V_X has rank below p by
    orthonormal_basis's cut has no mass (-inf, 0); for p <= 1 the cut cannot
    fire and is skipped."""
    regime, k = classify_fixed(d, kernel.smoothness, m)
    basis = monomial_indices(k if regime == PROJECTION_SMOOTH else k - 1, d)
    if regime == NONMAGIC_WRONSKIAN:
        block = list(homogeneous_indices(k, d))
        C = schur_block(wronskian_matrix(kernel, k, d), count_poly(k - 1, d))
        _decided(_Bound.of(C.shape[0], float(np.abs(C).max()), C), np.linalg.eigvalsh(C),
                 "fixed-size minors: eigvalsh of the Wronskian Schur block decided",
                 f"k={k}, d={d}", f"kernel '{kernel.name}' is not CPD at degree {k} in "
                 f"d = {d}: its Wronskian Schur block has")

    def minors(X):
        if regime == PROJECTION_SMOOTH:
            L = np.zeros(X.shape[:-1] + (m,))
        elif regime == NONMAGIC_WRONSKIAN:
            L = _factor_block(_monomial_columns(X, block), C)
        else:
            L = _distance_block(X, X, 2 * k - 1, (-1.0) ** k)
        VX = _monomial_columns(X, basis)
        logabs, sign = _bordered_slogdets(L, VX)
        if VX.shape[-1] <= 1:
            # a column of ones never falls short of rank 1
            return logabs, sign
        s = np.linalg.svd(VX, compute_uv=False)
        full = np.all(s > max(VX.shape[-2:]) * np.finfo(float).eps * s[..., :1], axis=-1)
        return np.where(full, logabs, -math.inf), np.where(full, sign, 0.0)
    return minors


def _varying_params(p: int, alpha: float):
    if not 0 <= p < math.inf or p != int(p):
        raise ValueError("scaling exponent p must be a nonnegative integer")
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be a finite positive number, not {alpha!r}")
    return int(p), math.ceil(p / 2)


def varying_size_limit(ps: PointSet, kernel: StationaryKernel, p: int,
                       alpha: float = 1.0) -> FlatLimitResult:
    """Limit of the varying-size L-ensemble scaled by alpha * eps^{-p}."""
    p, l = _varying_params(p, alpha)
    d, r = ps.d, kernel.smoothness
    meta = {"d": d, "r": r, "p": p, "alpha": alpha, "l": l}
    half = (p + 1) / 2
    if count_poly(l - 1, d) >= ps.n or r < half:
        return FlatLimitResult(FULL_SET, _sure_full_set(ps.n), ps.n, meta)
    if r > half:
        if p % 2 == 1:
            msize = count_poly(l - 1, d)
            meta.update(m=msize)
            return FlatLimitResult(VARYING_PROJECTION,
                                   _projection_process(ps, l - 1), msize, meta)
        return FlatLimitResult(VARYING_WRONSKIAN,
                               _wronskian_process(ps, kernel, l, scale=alpha),
                               None, meta)
    # r == (p+1)/2: the first odd derivative sets both the shape and the scale
    r = int(r)
    f = kernel.coeff(2 * r - 1)
    if np.sign(f) != (-1) ** r:
        raise CPDViolationError(
            f"the critical-scaling limit requires sign(f_{{2r-1}}) = (-1)^r, "
            f"violated by kernel '{kernel.name}' (f_{2 * r - 1} = {f:g})"
        )
    return FlatLimitResult(VARYING_FINITE, default_ensemble(ps, 2 * r - 1, alpha * abs(f)),
                           None, meta)


def limit_size_distribution(ps: PointSet, kernel: StationaryKernel, p: int,
                            alpha: float = 1.0) -> np.ndarray:
    """Limiting distribution of |X| over 0..n for the alpha * eps^{-p} scaling:
    the size distribution of the varying-size limit."""
    return size_distribution(varying_size_limit(ps, kernel, p, alpha).process)


def scaled_ensemble(ps: PointSet, kernel: StationaryKernel, eps: float,
                    p: int = 0, alpha: float = 1.0) -> NNP:
    """Pre-limit ensemble with L = alpha * eps^{-p} * kernel matrix, empty V."""
    _varying_params(p, alpha)
    K = kernel_matrix(kernel, ps, eps)
    return make_nnp(alpha * eps ** (-float(p)) * K)


def default_ensemble(ps: PointSet, beta: int, gamma: float) -> NNP:
    """Distance-based default family: L = gamma (-1)^ceil(beta/2) D^(beta).

    beta must be a positive odd integer (the conditionally positive definite
    range); the projective part spans polynomials of degree < ceil(beta/2).
    These are exactly the critical-scaling limits of finitely smooth kernels.

    The unit pair, gamma = 1, is the distance kind of
    :func:`_distance_nnp`: it is built and validated once per PointSet and
    beta, and holds the PointSet's read-only coordinates, V and Q, and no
    n x n array; D^(beta) is formed for its validation and dropped. Every
    gamma is derived from it: gamma = 1 returns it, and any other gamma is
    the scaled kind of :func:`_scaled_nnp`, which holds the unit pair itself
    and shares its V, Q and bound, scaled. The PointSet keeps the unit pair
    while a limit holds it, the derived ones included, so limits on one
    PointSet that differ only by gamma, built in any order while one of them
    lives, share one validation, and their samplers share one eigh: a
    scaled pair's U, read before its lam, is the unit pair's U, with lam the
    unit's scaled by gamma.
    """
    if beta < 1 or beta % 2 == 0:
        raise ValueError("beta must be a positive odd integer")
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be a finite nonnegative number, not {gamma!r}")
    unit = ps._unit_pairs.get(beta)
    if unit is None:
        half_up = (beta + 1) // 2
        unit = ps._unit_pairs[beta] = _distance_nnp(ps.coords, beta, (-1.0) ** half_up,
                                                    vandermonde(ps, half_up - 1))
    return unit if gamma == 1 else _scaled_nnp(unit, gamma)
