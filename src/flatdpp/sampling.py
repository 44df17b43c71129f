"""Exact samplers for extended L-ensembles via the mixture/projection route.

Varying size: the projective part (columns of Q) is included surely, each
eigenvector in U independently with probability lam/(1+lam), and the
resulting orthonormal stack feeds a chain-rule projection sampler. Fixed size:
the eigenvector subset is drawn through the elementary-symmetric-polynomial
backward recursion instead of Bernoulli draws; its acceptance table is built
once per (ensemble, size) and cached on the ensemble.

The projection sampler runs the chain rule in Gram-Schmidt form on the n x m
basis itself and never forms the n x n kernel U U^T: a draw of m points costs
O(n m^2) time and O(n m) memory. :func:`sample_projection` checks that its
basis is orthonormal unless told not to; :func:`sample` and
:func:`sample_fixed` skip that check, because
:func:`~flatdpp.ensembles.make_nnp` and
:func:`~flatdpp.ensembles.make_factored_nnp` already guarantee that [Q | U]
is orthonormal.
"""

from __future__ import annotations

import math

import numpy as np

from ._numerics import log_esp_table
from .ensembles import NNP


def rng_from_seed(seed) -> np.random.Generator:
    """Deterministic generator; identical seed gives identical sample paths."""
    return np.random.default_rng(seed)


def sample_projection(U: np.ndarray, rng: np.random.Generator, *,
                      check: bool = True) -> list[int]:
    """Draw a subset of exactly m = U.shape[1] indices with P(X) = det(U_X)^2.

    Chain rule on the projection kernel P = U U^T, in Gram-Schmidt form: draw
    an index i from the residual leverages (the diagonal of the residual
    kernel), then deflate it by the residual kernel's column at i, kept as
    c = (U U_i - sum_s c_s c_s[i]) / sqrt(residual leverage of i). Only the
    leverages and the m - 1 columns c are stored, so a draw costs O(n m^2)
    time and O(n m) memory. The selected index's leverage is zeroed, so no
    index can repeat. One ``rng.random()`` is drawn per selected index.

    Raises ValueError unless U^T U = I within 1e-10. ``check=False`` skips
    that check and takes U as a float array as given; it is for callers whose
    basis is orthonormal by construction.
    """
    if check:
        U = np.asarray(U, dtype=float)
        gram = U.T @ U
        gram.flat[:: U.shape[1] + 1] -= 1.0
        gram_err = np.abs(gram).max(initial=0.0)
        if gram_err > 1e-10:
            raise ValueError(f"U is not orthonormal (max |U^T U - I| = {gram_err:.3e})")
    n, m = U.shape
    if m == 0:
        return []
    lev = np.einsum("ij,ij->i", U, U)
    C = np.empty((m - 1, n))
    selected: list[int] = []
    for step in range(m):
        np.maximum(lev, 0.0, out=lev)
        cum = lev.cumsum()
        u = rng.random() * cum[-1]
        i = min(int(cum.searchsorted(u, side="right")), n - 1)
        selected.append(i)
        if step == m - 1:
            break
        c = U @ U[i]
        if step:
            c -= C[:step, i] @ C[:step]
        c /= math.sqrt(c[i])
        C[step] = c
        lev -= c * c
        lev[i] = 0.0
    selected.sort()
    return selected


def _stack_basis(e: NNP, chosen: np.ndarray) -> np.ndarray:
    # the NNP constructors guarantee [Q | U] orthonormal, so the samplers skip the check
    if not chosen.size:
        return e.Q
    return np.concatenate((e.Q, e.U[:, chosen]), axis=1)


def sample(e: NNP, rng: np.random.Generator) -> list[int]:
    """One draw from the varying-size law of the ensemble; always |X| >= p."""
    e.U  # one eigh gives U and lam; reading lam first would add an eigvalsh
    probs = e.lam / (1.0 + e.lam)
    chosen = (rng.random(probs.size) < probs).nonzero()[0]
    return sample_projection(_stack_basis(e, chosen), rng, check=False)


def _acceptance_table(e: NNP, k: int) -> np.ndarray:
    """A[r-1, j-1] = lam_j e_{r-1}(lam_<j) / e_r(lam_<=j), r <= k, j <= q.

    The probability that the backward recursion, with r eigenvectors still to
    choose among the first j, takes the j-th. It is 1 for j <= r, where every
    remaining eigenvector must be taken. Cached read-only on the ensemble.
    """
    A = e._acceptance_tables.get(k)
    if A is None:
        T = log_esp_table(e.lam, k)
        with np.errstate(invalid="ignore"):  # -inf - -inf where j < r
            A = np.exp(np.log(e.lam) + T[:-1, :-1] - T[1:, 1:])
        A[np.arange(e.q) <= np.arange(k)[:, None]] = 1.0
        A.setflags(write=False)
        e._acceptance_tables[k] = A
    return A


def sample_fixed(e: NNP, m: int, rng: np.random.Generator) -> list[int]:
    """One draw from the fixed-size law; |X| = m exactly, p <= m <= p + q.

    The eigenvector subset is drawn by the backward recursion over j = q..1
    with one uniform per eigenvector, all drawn at once: each of at most
    m - p vectorised scans takes the highest remaining j whose uniform falls
    below its acceptance probability.
    """
    e.U  # one eigh gives U and lam; reading q first would add an eigvalsh
    if m < e.p or m > e.p + e.q:
        raise ValueError(
            f"fixed size m={m} outside the support [p, p+q] = [{e.p}, {e.p + e.q}]"
        )
    k = m - e.p
    chosen = np.empty(k, dtype=int)
    if k > 0:
        A = _acceptance_table(e, k)
        u = rng.random(e.q)
        hi = e.q
        for r in range(k, 0, -1):
            hi = int((u[:hi] < A[r - 1, :hi]).nonzero()[0][-1])
            chosen[r - 1] = hi
    return sample_projection(_stack_basis(e, chosen), rng, check=False)
