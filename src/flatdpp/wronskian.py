"""Wronskian matrices of a stationary kernel at the origin.

W_{alpha,beta} is the Taylor coefficient of kappa(x, y) = f(||x - y||) on the
monomial x^alpha y^beta. For joint orders up to 2(r-1) only the even radial
terms f_{2m} ||x - y||^{2m} contribute, and those are genuine polynomials, so
every entry is an exact multinomial expansion: no finite differences anywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import StationaryKernel
from .polybasis import monomial_indices


def _multinomial(m: int, parts: tuple[int, ...]) -> int:
    out = math.factorial(m)
    for q in parts:
        out //= math.factorial(q)
    return out


def _entry(alpha, beta, taylor) -> float:
    total = sum(alpha) + sum(beta)
    if total % 2 == 1:
        return 0.0
    mu = []
    for a, b in zip(alpha, beta):
        if (a + b) % 2 == 1:
            return 0.0
        mu.append((a + b) // 2)
    m = total // 2
    coeff = _multinomial(m, tuple(mu))
    for a, b in zip(alpha, beta):
        coeff *= math.comb(a + b, a)
    sign = -1 if sum(beta) % 2 == 1 else 1
    return sign * coeff * taylor[2 * m]


def wronskian_matrix(kernel: StationaryKernel, degree: int, d: int) -> np.ndarray:
    """Wronskian of the kernel over monomials of degree <= `degree` in d
    variables, rows and columns in :func:`flatdpp.polybasis.monomial_indices`
    order.

    Requires degree <= r - 1: beyond that, the first odd radial term starts to
    contribute and the entries stop being polynomial coefficients.
    """
    if degree < 0 or d < 1:
        raise ValueError("need degree >= 0 and d >= 1")
    if math.isfinite(kernel.smoothness) and degree > kernel.smoothness - 1:
        raise ValueError(
            f"degree {degree} needs derivatives beyond smoothness order "
            f"r={int(kernel.smoothness)} of kernel '{kernel.name}'"
        )
    if 2 * degree >= kernel.taylor.size:
        raise ValueError(
            f"Wronskian of degree {degree} needs Taylor coefficients up to "
            f"order {2 * degree}; kernel '{kernel.name}' stops at {kernel.taylor.size - 1}"
        )
    indices = monomial_indices(degree, d)
    W = np.zeros((len(indices), len(indices)))
    for i, alpha in enumerate(indices):
        for j, beta in enumerate(indices[i:], start=i):
            W[i, j] = W[j, i] = _entry(alpha, beta, kernel.taylor)
    return W


#: Condition numbers beyond this mark the leading block as numerically singular.
MAX_LEADING_COND = 1e14


def schur_block(W: np.ndarray, p: int) -> np.ndarray:
    """D - C A^{-1} B for W = [[A, B], [C, D]], A being W's leading p x p block.

    For the degree-<=k Wronskian and p = count_poly(k-1, d), A holds the
    degrees <= k-1, D the degree-k monomials, and the result W_bar is
    H_{k,d} x H_{k,d}.
    """
    A, B, C, D = W[:p, :p], W[:p, p:], W[p:, :p], W[p:, p:]
    if p == 0:
        return D.copy()
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > MAX_LEADING_COND:
        raise ValueError(
            f"leading {p}x{p} Wronskian block is numerically singular "
            f"(condition number {cond:.3e}): kernel not admissible at this degree"
        )
    return D - C @ np.linalg.solve(A, B)
