"""Validation numerics of :mod:`flatdpp.ensembles`: the Householder compression
and lift, the bound beta, the tiled symmetry sweeps, the row blocks of a factor
B C B^T, the blocked Cholesky, the zero kind and the log-space ESP table.
Nothing here logs or knows a pair."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

#: Rows per block of the in-place rank-2p update in _compress; bounds its
#: temporary to this many rows of M.
_UPDATE_ROWS = 256


def _reflectors(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compact-WY form (Y, T) of the Householder QR of Q: H = I - Y T Y^T.

    H is orthogonal and its first p columns span span(Q), so its last n - p
    columns are an orthonormal basis N of the complement. Y is unit lower
    trapezoidal (n x p) and T upper triangular (p x p), as in LAPACK's dlarft.
    """
    p = Q.shape[1]
    h, tau = np.linalg.qr(Q, mode="raw")
    Y = np.tril(h.T, -1)
    Y[np.arange(p), np.arange(p)] = 1.0
    T = np.zeros((p, p))
    for i in range(p):
        T[:i, i] = -tau[i] * (T[:i, :i] @ (Y[:, :i].T @ Y[:, i]))
        T[i, i] = tau[i]
    return Y, T


def _compress(L: np.ndarray, Q: np.ndarray, out: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, Y, T): M = N^T L N in O(n^2 p), as the leading rows of out (an
    n x (n - p) buffer, allocated here when not given), and the reflectors
    (Y, T) of Q whose H = I - Y T Y^T has the columns N past its first p.

    L is first projected to L1 = P L P, P = I - Q Q^T, as L - W Q^T - Q W^T
    with W = L Q - Q (Q^T L Q) / 2. Rounded to float64, L1 is on the scale of
    N^T L N, so the reflector step adds errors on that scale rather than on
    the scale of L's span(V) part (applied to L itself, it leaves rounding
    noise several times larger, on the scale of that part). Only L1's
    strip L1[:, :p] and trailing block L1[p:, p:] are formed. With Z = L1 Y,
    H^T L1 H = L1 - X Y^T - Y X^T for X = Z T - Y T^T (Y^T Z) T / 2, whose
    trailing block is M, updated in place.
    """
    n, p = Q.shape
    Y, T = _reflectors(Q)
    if out is None:
        out = np.empty((n, n - p))
    if p == 0:
        out[...] = L
        return out, Y, T
    ZQ = L @ Q
    W = ZQ - 0.5 * (Q @ (Q.T @ ZQ))
    strip = L[:, :p] - (W @ Q[:p].T + Q @ W[:p].T)
    # M is the leading rows of an n x (n - p) buffer: freed, it holds the
    # n x q eigenvectors U (q <= n - p) that NNP.U lifts next, whereas an
    # (n - p) x (n - p) block is 8 p (n - p) bytes short, so U's placement,
    # and whether it grows the heap by another n x n array, would depend on
    # the small arrays beside it.
    M = out[:n - p]
    np.matmul(np.hstack((W, Q))[p:], np.hstack((Q, W))[p:].T, out=M)
    np.subtract(L[p:, p:], M, out=M)
    Z = strip @ Y[:p] + np.vstack((strip[p:].T @ Y[p:], M @ Y[p:]))
    X = Z @ T - 0.5 * (Y @ (T.T @ (Y.T @ Z) @ T))
    A, B = np.hstack((X, Y))[p:], np.hstack((Y, X))[p:]
    for lo in range(0, M.shape[0], _UPDATE_ROWS):
        M[lo:lo + _UPDATE_ROWS] -= A[lo:lo + _UPDATE_ROWS] @ B.T
    return M, Y, T


def _lift(W: np.ndarray, Y: np.ndarray, T: np.ndarray) -> np.ndarray:
    """N W = H [0; W], column-major, in O(n q p)."""
    p = Y.shape[1]
    U = np.zeros((Y.shape[0], W.shape[1]), order="F")
    U[p:] = W
    if p:
        U -= Y @ (T @ (Y[p:].T @ W))
    return U


def _frobenius(M: np.ndarray) -> float:
    """||M||_F of the finite M. np.linalg.norm squares M's entries, so past
    about 1e154 its sum overflows; only then is the norm taken again of M
    times 2^-k, k the exponent of max |M|, which is exact, and scaled back."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(M))
    if math.isfinite(norm):
        return norm
    k = math.frexp(max(float(M.max()), -float(M.min())))[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(M, -k))), k)


class _Bound(NamedTuple):
    """beta = n eps (max |L| + ||M||_F), M = N^T L N (for a factor, K): the
    one bound that decides PSD and rank. It sums the backward errors of the
    compression (eps ||L||_2 <= n eps max |L|) and of the symmetric
    eigensolver (n eps ||M||_2 <= n eps ||M||_F), so by Weyl's inequality
    each computed eigenvalue is within beta of an exact one. Eigenvalues
    above beta are spectrum, one below -beta is a CPD violation, and those in
    between are unresolved: counted and logged, not kept. beta scales with
    L, so no decision changes under L -> c L.
    """

    n: int
    max_l: float
    norm_m: float

    @classmethod
    def of(cls, n: int, max_l: float, M: np.ndarray) -> "_Bound":
        """The bound of max |L| = max_l and M, or ValueError when ||M||_F is
        past the float64 range, as when M's entries overflowed."""
        norm_m = _frobenius(M)
        if not math.isfinite(norm_m):
            raise ValueError(f"N^T L N is past the float64 range: max |L| {max_l:.3e}, "
                             f"||N^T L N||_F {norm_m}")
        return cls(n, max_l, norm_m)

    @property
    def beta(self) -> float:
        return self.n * np.finfo(float).eps * (self.max_l + self.norm_m)

    def accepts(self, M: np.ndarray) -> bool:
        """Whether M + beta I passes :func:`_cholesky_in_place`, M overwritten."""
        M.flat[:: M.shape[0] + 1] += self.beta
        return _cholesky_in_place(M)

    def __str__(self) -> str:
        return (f"beta {self.beta:.3e} = n eps (max |L| {self.max_l:.3e} "
                f"+ ||M||_F {self.norm_m:.3e})")


#: Rows (and columns) of a tile of _symmetrized's sweep: a pair of tiles and
#: their scratch fit in cache, and the tiles' Python overhead stays small.
_TILE = 128


def _symmetrized(L: np.ndarray, out: np.ndarray | None = None
                 ) -> tuple[np.ndarray, float, float]:
    """(S, max |L|, max |L - L^T|) in one sweep over pairs of tiles of the
    upper triangle and their mirrors, S = 0.5 (L + L^T) bit for bit, as a
    new C-ordered array or, given out (which may be L itself), in out.

    IEEE addition is commutative, so the sum of a tile and its mirror's
    transpose, transposed, is the mirror's sum: S is exactly symmetric. A NaN
    in L makes max |L| NaN. The sweep forms only tile-sized temporaries, and
    each pair of tiles is read before either is written, so out = L is safe.
    """
    n = L.shape[0]
    S = np.empty((n, n)) if out is None else out
    scratch = np.empty((min(n, _TILE), min(n, _TILE)))
    tiles = -(-n // _TILE)
    # per tile (row block, column block): max |L| and, above the diagonal,
    # max |L - L^T|; 0 is a neutral entry for both
    scales, gaps = np.zeros((tiles, tiles)), np.zeros((tiles, tiles))
    # inf - inf arises only from a non-finite entry, which the caller reports
    with np.errstate(invalid="ignore"):
        for bi, i in enumerate(range(0, n, _TILE)):
            for bj, j in enumerate(range(i, n, _TILE), start=bi):
                A, Bt = L[i:i + _TILE, j:j + _TILE], L[j:j + _TILE, i:i + _TILE].T
                t = scratch[:A.shape[0], :A.shape[1]]
                scales[bi, bj] = np.abs(A, out=t).max()
                if j > i:
                    scales[bj, bi] = np.abs(Bt, out=t).max()
                gaps[bi, bj] = np.abs(np.subtract(A, Bt, out=t), out=t).max()
                s = np.add(A, Bt, out=S[i:i + _TILE, j:j + _TILE])
                s *= 0.5
                if j > i:
                    S[j:j + _TILE, i:i + _TILE] = s.T
    return S, float(scales.max(initial=0.0)), float(gaps.max(initial=0.0))


def _symmetric_scale(L: np.ndarray) -> float | None:
    """max |L| when L is finite and equal to L^T bit for bit, else None: one
    check-only sweep over the pairs of tiles that :func:`_symmetrized` visits.

    A tile and its mirror are compared as uint64 views, so a +0.0 facing a
    -0.0 is an asymmetry, as is any difference in the last bit. The sweep
    stops at the first pair that fails and forms only tile-sized scratch.
    """
    n = L.shape[0]
    bits = L.view(np.uint64)
    scratch = np.empty((min(n, _TILE), min(n, _TILE)))
    same = np.empty(scratch.shape, dtype=bool)
    scale = 0.0
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            A = L[i:i + _TILE, j:j + _TILE]
            t = scratch[:A.shape[0], :A.shape[1]]
            top = float(np.abs(A, out=t).max())
            mirrored = np.equal(bits[i:i + _TILE, j:j + _TILE], bits[j:j + _TILE, i:i + _TILE].T,
                                out=same[:A.shape[0], :A.shape[1]])
            if not (math.isfinite(top) and mirrored.all()):
                return None
            scale = max(scale, top)
    return scale


#: Entries of a row block (2 MiB of float64) of :func:`_factor_rows` and of a
#: streamed record's L, so that a sweep holds at most this much of an n x n
#: array at any n.
_ROW_BLOCK_ENTRIES = 1 << 18


def _block_rows(n: int) -> int:
    """Rows of an n-column row block: as many as fit in _ROW_BLOCK_ENTRIES
    entries, at least one."""
    return max(1, _ROW_BLOCK_ENTRIES // max(n, 1))


def _factor_rows(B: np.ndarray, C: np.ndarray, upper: bool = False):
    """(lo, the rows lo:lo + r of B C B^T) for consecutive blocks of
    r = :func:`_block_rows` rows; with upper, only their columns from lo on.
    Each block is a new array; B C is formed once, and the n x n product
    never is."""
    n = B.shape[0]
    G = B @ C
    r = _block_rows(n)
    for lo in range(0, n, r):
        yield lo, G[lo:lo + r] @ B[lo if upper else 0:].T


def _factor_max(B: np.ndarray, C: np.ndarray) -> float:
    """max |B C B^T| for a C that is symmetric or antisymmetric, from the
    upper blocks of :func:`_factor_rows`, which hold every |entry|; inf once
    a block has a non-finite entry."""
    top = 0.0
    # an entry past float64 is reported by the caller, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for _, rows in _factor_rows(B, C, upper=True):
            block = float(np.abs(rows, out=rows).max())
            if not math.isfinite(block):
                return math.inf
            top = max(top, block)
    return top


def _is_zero_kind(arr: np.ndarray) -> bool:
    """Whether arr is the zero kind of a float64 block: a non-empty
    zero-stride view of +0.0, as np.broadcast_to(0.0, shape) makes."""
    return (arr.dtype == np.float64 and arr.size > 0 and not any(arr.strides)
            and arr.item(0) == 0.0 and math.copysign(1.0, arr.item(0)) > 0.0)


#: Rows of a diagonal block of :func:`_cholesky_in_place`; its panel and
#: the row blocks of its trailing update are this many rows tall too.
_CHOLESKY_BLOCK = 256
#: Order up to which :func:`_lower_inverse` calls np.linalg.inv.
_INVERSE_LEAF = 32


def _lower_inverse(F: np.ndarray) -> np.ndarray:
    """Inverse of the nonsingular lower-triangular F, by halves:
    [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]].

    Only blocks of at most _INVERSE_LEAF rows reach np.linalg.inv, and the
    rest is GEMM: at order 256 this takes a third of the time of one
    np.linalg.inv, which runs an LU with pivoting and solves for all of I.
    """
    m = F.shape[0]
    if m <= _INVERSE_LEAF:
        return np.linalg.inv(F)
    h = m // 2
    G = np.zeros_like(F)
    G[:h, :h] = _lower_inverse(F[:h, :h])
    G[h:, h:] = _lower_inverse(F[h:, h:])
    G[h:, :h] = -G[h:, h:] @ (F[h:, :h] @ G[:h, :h])
    return G


def _cholesky_in_place(A: np.ndarray) -> bool:
    """Whether the symmetric A (any layout) passes Cholesky, decided by a
    right-looking blocked factorisation that overwrites A and keeps no factor.

    Each diagonal block of at most _CHOLESKY_BLOCK rows is factored by
    np.linalg.cholesky; a failure there is a failure of A. The panel below it
    is multiplied by the inverse of that factor (:func:`_lower_inverse`) in
    one GEMM, which is cheaper than solving against the factor
    (np.linalg.solve would run an LU of the triangular factor, then two
    triangular solves over the whole panel). The
    trailing lower triangle (diagonal blocks whole) is then updated by row
    blocks. The temporaries are the size of a panel, so no n x n array is
    made; only A's lower triangle is read.
    """
    m, b = A.shape[0], _CHOLESKY_BLOCK
    for k in range(0, m, b):
        e = min(k + b, m)
        try:
            F = np.linalg.cholesky(A[k:e, k:e])
        except np.linalg.LinAlgError:
            return False
        if e == m:
            break
        # P^T is the factor's panel below the block: P = F^{-1} A[e:, k:e]^T
        P = _lower_inverse(F) @ A[e:, k:e].T
        for lo in range(e, m, b):
            hi = min(lo + b, m)
            A[lo:hi, e:hi] -= P[:, lo - e:hi - e].T @ P[:, :hi - e]
    return True


def log_esp_table(lam: np.ndarray, k: int) -> np.ndarray:
    """log e_l(lam_1..lam_j) for l <= k, j <= len(lam), in log space."""
    qn = lam.size
    T = np.full((k + 1, qn + 1), -math.inf)
    T[0, :] = 0.0
    for j in range(1, qn + 1):
        lg = math.log(lam[j - 1]) if lam[j - 1] > 0 else -math.inf
        T[1:, j] = np.logaddexp(T[1:, j - 1], lg + T[:-1, j - 1])
    return T
