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
from .polybasis import MonomialBasis, count_homogeneous, count_poly


class WronskianMatrix:
    """Symmetric matrix of scaled kernel derivatives, indexed by monomials."""

    def __init__(self, k: int, d: int, entries: np.ndarray, basis: MonomialBasis):
        self.k = k
        self.d = d
        self.entries = entries
        self.basis = basis

    def leading(self) -> np.ndarray:
        """The block of degrees <= k-1 (upper-left count_poly(k-1, d) square)."""
        p = count_poly(self.k - 1, self.d)
        return self.entries[:p, :p]


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


def wronskian_matrix(kernel: StationaryKernel, degree: int, d: int) -> WronskianMatrix:
    """Wronskian of the kernel over monomials of degree <= `degree` in d variables.

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
    basis = MonomialBasis(d, degree)
    size = len(basis)
    W = np.zeros((size, size))
    for i, alpha in enumerate(basis.indices):
        for j in range(i, size):
            beta = basis.indices[j]
            W[i, j] = _entry(alpha, beta, kernel.taylor)
            W[j, i] = W[i, j]
    return WronskianMatrix(degree, d, W, basis)


#: Condition numbers beyond this mark the leading block as numerically singular.
MAX_LEADING_COND = 1e14


def schur_block(W: WronskianMatrix) -> np.ndarray:
    """Schur complement of the degree-<k block inside the degree-<=k Wronskian.

    Partitioning W_{<=k} with upper-left W_{<k} (degrees <= k-1) and lower-right
    indexed by the degree-k monomials, returns
    W_bar = W_lr - W_ll @ inv(W_{<k}) @ W_ur, an H_{k,d} x H_{k,d} matrix.
    """
    p_prev = count_poly(W.k - 1, W.d)
    h = count_homogeneous(W.k, W.d)
    A = W.leading()
    B = W.entries[:p_prev, p_prev:]
    C = W.entries[p_prev:, :p_prev]
    D = W.entries[p_prev:, p_prev:]
    assert D.shape == (h, h)
    if p_prev == 0:
        return D.copy()
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > MAX_LEADING_COND:
        raise ValueError(
            f"leading Wronskian block of degree < {W.k} is numerically singular "
            f"(condition number {cond:.3e}): kernel not admissible at this degree"
        )
    return D - C @ np.linalg.solve(A, B)
