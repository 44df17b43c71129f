"""Multivariate monomial bases, counting formulas and Vandermonde matrices.

Monomials are ordered by total degree, then graded-lexicographically within a
degree (largest first exponent first). For d = 1 this reduces to the classical
column order 1, x, x^2, ...
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .geometry import PointSet


def count_homogeneous(k: int, d: int) -> int:
    """Number of monomials of total degree exactly k in d variables."""
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    return math.comb(k + d - 1, d - 1)


def count_poly(k: int, d: int) -> int:
    """Number of monomials of total degree <= k in d variables; 0 for k = -1."""
    if d < 1:
        raise ValueError("need d >= 1")
    if k == -1:
        return 0
    if k < -1:
        raise ValueError("need k >= -1")
    return math.comb(k + d, d)


def magic_numbers(d: int, upper_bound: int) -> list[int]:
    """All dimension counts count_poly(k, d) <= upper_bound, ascending.

    These are the sample sizes at which square multivariate Vandermonde
    matrices exist, hence the sizes with universal flat limits.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    out = []
    k = 0
    while True:
        p = count_poly(k, d)
        if p > upper_bound:
            break
        out.append(p)
        k += 1
    return out


def homogeneous_indices(k: int, d: int) -> Iterator[tuple[int, ...]]:
    """Multi-indices of total degree k in d variables, lexicographically descending."""
    if d == 1:
        yield (k,)
        return
    for first in range(k, -1, -1):
        for rest in homogeneous_indices(k - first, d - 1):
            yield (first,) + rest


def monomial_indices(k: int, d: int) -> list[tuple[int, ...]]:
    """Exponents of the monomials of degree <= k in d variables, in basis
    order: by degree, then as :func:`homogeneous_indices` lists them."""
    if k < 0 or d < 1:
        raise ValueError("need k >= 0 and d >= 1")
    return [alpha for j in range(k + 1) for alpha in homogeneous_indices(j, d)]


def vandermonde(ps: PointSet, k: int) -> np.ndarray:
    """n x count_poly(k, d) matrix of monomials of degree <= k at the points.

    Column j evaluates the j-th basis monomial; the leading count_poly(k-1, d)
    columns coincide with vandermonde(ps, k-1).
    """
    return _monomial_columns(ps.coords, monomial_indices(k, ps.d))


def vandermonde_block(ps: PointSet, degree: int) -> np.ndarray:
    """The degree-`degree` homogeneous block of the Vandermonde matrix."""
    if degree < 0:
        raise ValueError("need degree >= 0")
    return _monomial_columns(ps.coords, homogeneous_indices(degree, ps.d))


def _monomial_columns(coords: np.ndarray, indices) -> np.ndarray:
    """One column per multi-index: the monomial evaluated at every point of
    coords, an array of shape (..., n, d); the result has shape (..., n, count)."""
    return np.stack([np.prod(coords ** np.asarray(alpha, dtype=float), axis=-1)
                     for alpha in indices], axis=-1)


def orthonormal_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis Q of span(M), rank decided by a singular-value cut.

    Rank-deficient input is allowed; the threshold is the standard
    numerical-rank rule max(n, p) * machine-eps * sigma_max, applied to one
    thin SVD.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    n, p = M.shape
    if p == 0 or n == 0:
        return np.zeros((n, 0))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.sum(s > max(n, p) * np.finfo(float).eps * s[0]))
    return U[:, :rank]
