"""Extended L-ensembles: validation, probabilities, marginal kernels, sizes.

An ensemble is a pair (L; V) with L symmetric and conditionally positive
semi-definite with respect to V. Subset probabilities are bordered
("saddle-point") determinants

    P(X) = det [[L_X, V_X], [V_X^T, 0]] / Z,

evaluated in log space with sign tracking because they underflow rapidly with
|X|. The sign convention (-1)^p is folded in throughout, so every returned
unnormalized mass is nonnegative for a valid ensemble, as is the normalizer
Z = det(I + N^T L N) det(V^T V), where the columns of N are an orthonormal
basis of the orthogonal complement of span(V).

A pair is stored as a record (:func:`nnp_to_dict`, :func:`nnp_from_dict`):
a dict of n, p, and L and V as float64 arrays.
A pair built from a factor L = B C B^T (:func:`make_factored_nnp`) also
holds ``"factor": {"B": B, "C": C}``; a reload rebuilds it from the factor
and requires the stored L to match. :func:`write_json` writes a record as
JSON bytes, each array as a block ``{"shape": [rows, cols], "data":
base64}``, where data is the base64 of the block's float64 entries in
column-major order and the machine's byte order, written in chunks so that
no text of a block is ever held whole; the CLI's ``limit`` streams its
output this way. :func:`read_json` reads such a file back to the same dict:
it cuts each block's base64 out of the file's bytes, parses only the
skeleton left, and decodes each block from the file's bytes.

An L that is exactly zero, as in every projection limit, may be held as the
zero kind: the read-only zero-stride view ``np.broadcast_to(0.0, (n, n))``,
which takes no memory. :func:`make_nnp` recognises it in O(1), a record
writes it from one encoded zero chunk (the bytes a dense zero L writes), and
a block whose data is exactly the base64 of +0.0 entries reads back as it.
"""

from __future__ import annotations

import binascii
import json
import logging
import math
import re
import time
from collections.abc import Iterator, Mapping
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .polybasis import orthonormal_basis

logger = logging.getLogger(__name__)


class RankDeficientError(ValueError):
    """V does not have full column rank."""


class CPDViolationError(ValueError):
    """L is not conditionally positive semi-definite with respect to V."""


def _as_indices(X: Iterable[int], n: int) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in X)), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise IndexError(f"subset indices out of range for ground size {n}")
    return idx


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


def _compress(L: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, Y, T): M = N^T L N as a new array, in O(n^2 p), and the reflectors
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
    if p == 0:
        return L.copy(), Y, T
    ZQ = L @ Q
    W = ZQ - 0.5 * (Q @ (Q.T @ ZQ))
    strip = L[:, :p] - (W @ Q[:p].T + Q @ W[:p].T)
    # M is the leading rows of an n x (n - p) buffer: freed, it holds the
    # n x q eigenvectors U (q <= n - p) that NNP.U lifts next, whereas an
    # (n - p) x (n - p) block is 8 p (n - p) bytes short, so U's placement,
    # and whether it grows the heap by another n x n array, would depend on
    # the small arrays beside it.
    M = np.empty((n, n - p))[:n - p]
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

    @property
    def beta(self) -> float:
        return self.n * np.finfo(float).eps * (self.max_l + self.norm_m)

    def spectrum(self, w: np.ndarray, what: str, where: str,
                 refusal: str | None = None) -> np.ndarray:
        """lam: the ascending eigenvalues w above beta, descending. Given a
        refusal, a w[0] below -beta raises CPDViolationError with it; what
        and where frame the DEBUG line of the decision."""
        beta = self.beta
        lam = w[w > beta][::-1].copy()
        logger.debug("%s with min eigenvalue %.3e; %s; q = %d, %d unresolved (%s)",
                     what, w[0] if w.size else 0.0, self, lam.size, w.size - lam.size, where)
        if refusal is not None and w.size and w[0] < -beta:
            raise CPDViolationError(f"{refusal} min eigenvalue {w[0]:.3e} < -{beta:.3e}")
        return lam

    def __str__(self) -> str:
        return (f"beta {self.beta:.3e} = n eps (max |L| {self.max_l:.3e} "
                f"+ ||M||_F {self.norm_m:.3e})")


class NNP:
    """Validated extended L-ensemble whose spectrum is computed on first use.

    Attributes
    ----------
    L, V : the defining pair, read-only; V has shape (n, p), possibly
        p = 0. Each is the caller's array when that was frozen (see
        :func:`make_nnp`), else the pair's own copy. An L that is exactly
        zero may be the zero kind, np.broadcast_to(0.0, (n, n)).
    Q : orthonormal basis of span(V), shape (n, p).
    lam : eigenvalues above beta (descending) of N^T L N, where [Q | N] is
        an orthonormal basis of R^n; one cached eigvalsh on first read.
    U : their eigenvectors lifted back as U = N W, column-major and
        orthogonal to Q by construction; one cached eigh on first read, which
        also sets lam when it is not yet known (otherwise U keeps the top q).
    q : number of eigenvalues above beta; q <= n - p.
    logdet_vtv : log det(V^T V), 0.0 when p = 0.
    factor : (B, C) with L = B C B^T when the pair was built by
        :func:`make_factored_nnp`, else None.

    N is never formed, and N^T L N is not kept: each decomposition
    recompresses L through the p Householder reflectors of Q. A pair built
    with make_nnp(..., spectrum=...) has lam (and U) from its validation, and
    a factored pair has both from construction and never decomposes L. Immutable
    after construction; build through :func:`make_nnp` or
    :func:`make_factored_nnp`. The fixed-size sampler caches its read-only
    acceptance tables here, keyed by the number of eigenvectors drawn, on
    first use.
    """

    def __init__(self, L, V, *, Q, logdet_vtv, bound, lam, U=None, factor=None):
        self.L = L
        self.V = V
        self.Q = Q
        self.logdet_vtv = logdet_vtv
        self.factor = factor
        self.n = L.shape[0]
        self.p = V.shape[1]
        self._bound = bound
        self._lam: np.ndarray | None = None
        self._U: np.ndarray | None = None
        self._acceptance_tables: dict[int, np.ndarray] = {}
        for arr in (self.L, self.V, self.Q, *(factor or ())):
            arr.setflags(write=False)
        if lam is not None:
            self._set_lam(lam)
        if U is not None:
            U.setflags(write=False)
            self._U = U

    def _set_lam(self, lam: np.ndarray) -> None:
        lam.setflags(write=False)
        self._lam = lam
        if not lam.size:
            # no eigenvector to compute
            self._U = np.zeros((self.n, 0), order="F")

    def _keep(self, w: np.ndarray, name: str) -> None:
        self._set_lam(self._bound.spectrum(w, f"NNP: {name} of N^T L N read",
                                           f"n={self.n}, p={self.p}"))

    @property
    def lam(self) -> np.ndarray:
        if self._lam is None:
            self._keep(np.linalg.eigvalsh(_compress(self.L, self.Q)[0]), "eigvalsh")
        return self._lam

    @property
    def q(self) -> int:
        return self.lam.size

    @property
    def U(self) -> np.ndarray:
        if self._U is None:
            M, Y, T = _compress(self.L, self.Q)
            w, W = np.linalg.eigh(M)
            del M
            if self._lam is None:
                self._keep(w, "eigh")
            if self._U is None:
                U = _lift(W[:, ::-1][:, : self._lam.size], Y, T)
                U.setflags(write=False)
                self._U = U
        return self._U

    def __repr__(self) -> str:
        return f"NNP(n={self.n}, p={self.p}, q={self.q})"


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


def make_nnp(L, V=None, *, spectrum: str | None = None) -> NNP:
    """Validate a pair (L; V); by default its spectrum is computed only on
    first use.

    L is held once (:func:`_checked_square`). An L that nobody can write
    (frozen: every array on its .base chain is read-only, and the chain ends
    in an array that owns its data or in bytes, as for a block that
    :func:`read_json` decoded), C- or F-contiguous, and finite and equal to
    L^T bit for bit, is kept as it is, after one check-only tiled sweep;
    an F-ordered one is held as its C-ordered transpose, which has the same
    entries. Any other L takes one tiled sweep (:func:`_symmetrized`) that
    checks that it is finite and symmetric within 1e-10 * max |L| and forms
    the 0.5 (L + L^T) that is kept; that copy is what a kept L would be, bit
    for bit. V is kept when it is frozen and copied otherwise, so the caller's
    arrays are never held writable, and their flags are never changed.
    The law depends on V only through span(V), so the spectrum is that of
    M = N^T L N, L compressed to the orthogonal complement N of span(V). A
    thin SVD of V gives the rank check, Q and log det(V^T V) (none is taken
    when V is the identity); the p Householder reflectors of Q compress L to
    M in O(n^2 p) without forming N.

    One bound decides, beta = n eps (max |L| + ||M||_F), the backward error
    of the compression and the eigensolver (:class:`_Bound`): eigenvalues
    above beta are spectrum, one below -beta raises
    :class:`CPDViolationError`, and those in between are unresolved. With
    spectrum=None, validation is a Cholesky of M + beta I, blocked and in
    place, with each panel multiplied by the inverse of its diagonal block's
    factor in one GEMM (:func:`_cholesky_in_place`), so M and, unless L is
    kept, L's copy are the only n x n arrays it allocates: if it succeeds,
    no eigenvalue is below -beta and the pair is accepted. Otherwise L is
    compressed again and an eigvalsh of M decides. A caller that needs the
    spectrum anyway passes spectrum="values" (one eigvalsh, which also gives
    lam) or "vectors" (one eigh, which also gives lam and U): the one
    decomposition decides by the same rule and no Cholesky runs.

    L = 0 and p = n need no decomposition; an L of the zero kind,
    np.broadcast_to(0.0, (n, n)), is kept as it is and needs no sweep either.
    The deciding decomposition, beta and its two terms, q, the unresolved
    count and the deciding step's wall time (compression plus
    decomposition, in ms) are logged at DEBUG on the ``flatdpp.ensembles``
    logger. A NaN or infinite entry in L or V raises ValueError.
    """
    if spectrum not in (None, "values", "vectors"):
        raise ValueError(f"spectrum must be None, 'values' or 'vectors', not {spectrum!r}")
    L, scale = _checked_square(L)
    n = L.shape[0]
    V, Q, logdet_vtv = _projective_part(V, n)
    bound, lam, U = _validate(L, Q, scale, spectrum)
    return NNP(L, V, Q=Q, logdet_vtv=logdet_vtv, bound=bound, lam=lam, U=U)


def _is_zero_kind(arr: np.ndarray) -> bool:
    """Whether arr is the zero kind of a float64 block: a non-empty
    zero-stride view of +0.0, as np.broadcast_to(0.0, shape) makes."""
    return (arr.dtype == np.float64 and arr.size > 0 and not any(arr.strides)
            and arr.item(0) == 0.0 and math.copysign(1.0, arr.item(0)) > 0.0)


def _frozen(arr: np.ndarray) -> bool:
    """Whether arr is frozen: every ndarray on its .base chain is read-only
    and the chain ends in an array that owns its data or in a bytes object.
    A read-only view of a writable array, np.broadcast_to's included, is not
    frozen."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        if arr.base is None:
            return True
        arr = arr.base
    return isinstance(arr, bytes)


def _kept(arr: np.ndarray) -> np.ndarray:
    """arr when it is frozen, else a copy in its layout that the caller
    cannot write."""
    return arr if _frozen(arr) else arr.copy(order="K")


def _checked_square(L, *, owned: bool = False) -> tuple[np.ndarray, float]:
    """(L as :func:`make_nnp` keeps it, max |L|), or ValueError unless L is
    square, finite and symmetric within 1e-10 * max |L|.

    The zero kind is kept as it is, with max |L| = 0. A frozen, C- or
    F-contiguous L that :func:`_symmetric_scale` finds finite and
    bit-symmetric is kept too, C-ordered (an F-ordered L as L^T). Any other
    L is replaced by 0.5 (L + L^T) from one :func:`_symmetrized` sweep, which
    writes it into L's own buffer when the caller owns L (owned=True)."""
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("L must be square")
    if _is_zero_kind(L):
        logger.debug("make_nnp: L is the zero kind, kept without a sweep: beta 0, "
                     "q = 0 (n=%d)", L.shape[0])
        return L, 0.0
    if (L.flags.c_contiguous or L.flags.f_contiguous) and _frozen(L):
        scale = _symmetric_scale(L)
        if scale is not None:
            return (L if L.flags.c_contiguous else L.T), scale
    S, scale, asymmetry = _symmetrized(L, out=L if owned else None)
    if not np.isfinite(scale):
        raise ValueError("L has a non-finite entry")
    if scale > 0 and asymmetry > 1e-10 * scale:
        raise ValueError("L must be symmetric")
    return S, scale


def _projective_part(V, n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(V as an n x p float array, Q, log det(V^T V)): Q is an orthonormal
    basis of span(V) from one thin SVD, which also checks the rank; none is
    taken when V is the identity."""
    if V is None:
        V = np.zeros((n, 0))
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    if V.shape[0] != n:
        raise ValueError("V must have n rows")
    V = _kept(V)
    if not np.all(np.isfinite(V)):
        raise ValueError("V has a non-finite entry")
    p = V.shape[1]
    if p > n:
        raise RankDeficientError(f"V has {p} > n = {n} columns")

    if p == n and np.count_nonzero(V) == n and np.all(np.diagonal(V) == 1.0):
        # V = I, the sure full set: already orthonormal, nothing to factor
        return V, V, 0.0
    if p == 0:
        return V, np.zeros((n, 0)), 0.0
    Q = orthonormal_basis(V)
    if Q.shape[1] < p:
        raise RankDeficientError("V is rank deficient")
    # V = Q (Q^T V), so det(V^T V) = det(Q^T V)^2
    return V, Q, 2.0 * float(np.linalg.slogdet(Q.T @ V)[1])


def make_factored_nnp(B, C, V=None) -> NNP:
    """Validate the pair (B C B^T; V), B of shape (n, h) and C symmetric
    h x h, and take its spectrum from the factor: no n x n decomposition.

    L = B C B^T is formed once, checked and symmetrised in its own buffer as
    in :func:`make_nnp`, and kept; make_nnp's Q, rank check and
    log det(V^T V) are taken too, and B, C and V are kept or copied by its
    rule for V.
    With R = (I - QQ^T) B (projected twice) and its thin QR R = Q_r R_r, the
    nonzero spectrum of N^T L N is that of the small K = R_r C R_r^T; one
    eigh of K gives the CPD check, lam and U = Q_r Z, so q <= h, by
    make_nnp's rule with K for M (:class:`_Bound`): a dense pair with the
    same L and V decides alike.
    """
    B, C = _kept(np.asarray(B, dtype=float)), _kept(np.asarray(C, dtype=float))
    if B.ndim != 2 or C.shape != (B.shape[1], B.shape[1]):
        raise ValueError(f"a factor needs B of shape (n, h) and C of shape (h, h), "
                         f"not {B.shape} and {C.shape}")
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(C))):
        raise ValueError("the factor has a non-finite entry")
    n = B.shape[0]
    L, scale = _checked_square(B @ C @ B.T, owned=True)
    V, Q, logdet_vtv = _projective_part(V, n)
    R = B - Q @ (Q.T @ B)
    R -= Q @ (Q.T @ R)
    Qr, Rr = np.linalg.qr(R)
    K = Rr @ C @ Rr.T
    K = 0.5 * (K + K.T)
    w, Z = np.linalg.eigh(K)
    bound = _Bound(n, scale, float(np.linalg.norm(K)))
    lam = bound.spectrum(
        w, f"make_factored_nnp: eigh of the {w.size}x{w.size} factor decided",
        f"n={n}, p={V.shape[1]}", "L = B C B^T is not CPD with respect to V: the Wronskian "
        "Schur block C, compressed to the complement of span(V), has")
    U = np.asfortranarray(Qr @ Z[:, ::-1][:, :lam.size])
    return NNP(L, V, Q=Q, logdet_vtv=logdet_vtv, bound=bound, lam=lam, U=U, factor=(B, C))


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


def _validate(L: np.ndarray, Q: np.ndarray, scale: float, spectrum: str | None
              ) -> tuple[_Bound, np.ndarray | None, np.ndarray | None]:
    """(the bound, lam and U if they were computed) for (L; V), whose
    max |L| is scale, or raise."""
    n, p = Q.shape
    if scale == 0.0 or p == n:
        # L = 0, or the sure full set: no spectrum to check
        return _Bound(n, scale, 0.0), np.zeros(0), None
    start = time.perf_counter()
    M, Y, T = _compress(L, Q)
    bound = _Bound(n, scale, float(np.linalg.norm(M)))
    if spectrum is None:
        M.flat[:: M.shape[0] + 1] += bound.beta
        blocks = -(-M.shape[0] // _CHOLESKY_BLOCK)
        if _cholesky_in_place(M):
            logger.debug("make_nnp: blocked Cholesky of N^T L N + beta I in %d blocks "
                         "accepted the pair; %s (n=%d, p=%d, %.1f ms)", blocks, bound,
                         n, p, 1e3 * (time.perf_counter() - start))
            return bound, None, None
        # M is partly factored: the eigenvalues are those of a fresh compression
        del M
        M = _compress(L, Q)[0]
        decider = f"blocked Cholesky of N^T L N + beta I in {blocks} blocks failed; eigvalsh"
    else:
        decider = ("eigh" if spectrum == "vectors" else "eigvalsh") + " (requested by the caller)"
    w, W = np.linalg.eigh(M) if spectrum == "vectors" else (np.linalg.eigvalsh(M), None)
    ms = 1e3 * (time.perf_counter() - start)
    del M
    lam = bound.spectrum(w, f"make_nnp: {decider} decided", f"n={n}, p={p}, {ms:.1f} ms",
                         "L is not CPD with respect to V:")
    U = None if W is None else _lift(W[:, ::-1][:, :lam.size], Y, T)
    return bound, lam, U


def bordered_matrix(e: NNP, idx: np.ndarray) -> np.ndarray:
    """[[L_X, V_X], [V_X^T, 0]] for the indices X; for a (count, m) array of
    index rows, the stack of one bordered matrix per row."""
    idx = np.asarray(idx)
    m = idx.shape[-1]
    B = np.zeros(idx.shape[:-1] + (m + e.p, m + e.p))
    B[..., :m, :m] = e.L[idx[..., :, None], idx[..., None, :]]
    VX = e.V[idx, :]
    B[..., :m, m:] = VX
    B[..., m:, :m] = np.swapaxes(VX, -1, -2)
    return B


def log_unnorm_prob(e: NNP, X: Iterable[int] | np.ndarray) -> tuple:
    """(log |bordered determinant|, sign) with the (-1)^p convention folded in.

    The folded sign is +1 for every subset of positive mass, 0 when the mass
    vanishes (including |X| < p, where the bordered matrix is singular). For
    a (count, m) array of index rows (distinct, in range), both are arrays
    with one entry per row, from one batched slogdet.
    """
    stacked = isinstance(X, np.ndarray) and X.ndim == 2
    idx = X if stacked else _as_indices(X, e.n)[None]
    sign, logabs = np.zeros(len(idx)), np.full(len(idx), -math.inf)
    if idx.shape[1] >= e.p:
        sign, logabs = np.linalg.slogdet(bordered_matrix(e, idx))
        sign = (-1) ** e.p * sign
    if stacked:
        return logabs, sign
    return (float(logabs[0]), float(sign[0])) if sign[0] else (-math.inf, 0.0)


def log_normalizer(e: NNP) -> float:
    """log Z with Z = det(I + N^T L N) det(V^T V) (sign already folded out)."""
    return float(np.sum(np.log1p(e.lam)) + e.logdet_vtv)


def log_prob(e: NNP, X: Iterable[int]) -> float:
    """Log probability of a subset under the varying-size law."""
    logabs, sign = log_unnorm_prob(e, X)
    if sign <= 0.0:
        return -math.inf
    return logabs - log_normalizer(e)


def marginal_kernel(e: NNP) -> np.ndarray:
    """K = QQ^T + U diag(lam / (1 + lam)) U^T; eigenvalue 1 with multiplicity p.

    With U = N W, the second term is N M (I + M)^{-1} N^T for M = N^T L N.
    U is read first, so one eigh serves both U and lam.
    """
    U = e.U
    K = e.Q @ e.Q.T
    if e.q:
        K = K + (U * (e.lam / (1.0 + e.lam))) @ U.T
    return K


def _log_esp_table(lam: np.ndarray, k: int) -> np.ndarray:
    """log e_l(lam_1..lam_j) for l <= k, j <= len(lam), in log space."""
    qn = lam.size
    T = np.full((k + 1, qn + 1), -math.inf)
    T[0, :] = 0.0
    for j in range(1, qn + 1):
        lg = math.log(lam[j - 1]) if lam[j - 1] > 0 else -math.inf
        T[1:, j] = np.logaddexp(T[1:, j - 1], lg + T[:-1, j - 1])
    return T


def log_elementary_symmetric(values: Sequence[float], k: int) -> float:
    """log e_k for nonnegative values, accumulated in log space."""
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise ValueError("log-space recurrence requires nonnegative values")
    if k < 0 or k > values.size:
        return -math.inf
    return float(_log_esp_table(values, k)[k, -1])


def _poisson_binomial(probs: Sequence[float]) -> np.ndarray:
    """Law of the number of successes among independent Bernoulli(probs) trials."""
    pmf = np.zeros(len(probs) + 1)
    pmf[0] = 1.0
    for j, b in enumerate(probs, start=1):
        pmf[1 : j + 1] = pmf[1 : j + 1] * (1.0 - b) + b * pmf[:j]
        pmf[0] *= 1.0 - b
    return pmf


def size_distribution(e: NNP) -> np.ndarray:
    """Distribution of |X| over 0..n: support is [p, p + q].

    P(|X| = p + j) = e_j(lam) / prod(1 + lam). Computed as the Poisson-binomial
    law of independent inclusions with probabilities lam / (1 + lam), which is
    the same quantity without overflow.
    """
    pmf = np.zeros(e.n + 1)
    pmf[e.p : e.p + e.q + 1] = _poisson_binomial(e.lam / (1.0 + e.lam))
    return pmf


def log_fixed_size_normalizer(e: NNP, m: int) -> float:
    """log Z_m with Z_m = e_{m-p}(lam) det(V^T V), sign folded out."""
    if m < e.p:
        raise ValueError(f"fixed size m={m} below projective rank p={e.p}")
    if m > e.p + e.q:
        raise ValueError(
            f"fixed size m={m} exceeds the support bound p + q = {e.p + e.q}"
        )
    return log_elementary_symmetric(e.lam, m - e.p) + e.logdet_vtv


def fixed_size_log_prob(e: NNP, X: Iterable[int], m: int) -> float:
    """Log probability of X under the law conditioned on |X| = m."""
    logZm = log_fixed_size_normalizer(e, m)
    idx = _as_indices(X, e.n)
    if idx.size != m:
        return -math.inf
    logabs, sign = log_unnorm_prob(e, idx)
    if sign <= 0.0:
        return -math.inf
    return logabs - logZm


# ---------------------------------------------------------------------------
# Laws over subsets, as bitmasks (bit i = ground index i) and probabilities.
# ---------------------------------------------------------------------------


class SubsetDistribution:
    """Law over subsets of {0..n-1} as read-only parallel arrays: ``masks``,
    the ascending int64 bitmasks of the positive-mass subsets, and ``values``,
    their probabilities. The constructor takes the masks in any order and
    drops the entries whose value is not positive.
    """

    def __init__(self, n: int, masks, values):
        if n > 63:
            raise ValueError("bitmask representation limited to n <= 63")
        masks = np.asarray(masks, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        keep = values > 0.0
        order = np.argsort(masks[keep])
        self.n = n
        self.masks, self.values = masks[keep][order], values[keep][order]
        if np.any(self.masks[1:] == self.masks[:-1]) or np.any(self.masks >> n):
            raise ValueError(f"masks must be distinct subsets of range({n})")
        self.masks.setflags(write=False)
        self.values.setflags(write=False)

    @cached_property
    def probs(self) -> Mapping[int, float]:
        """Read-only mapping mask -> probability, in ascending mask order."""
        return MappingProxyType(dict(zip(self.masks.tolist(), self.values.tolist())))

    def total(self) -> float:
        return float(np.sum(self.values))

    def prob(self, X: Iterable[int]) -> float:
        return self.probs.get(mask_of(X), 0.0)

    def _sizes(self) -> np.ndarray:
        return sum(((self.masks >> i) & 1 for i in range(self.n)), np.zeros_like(self.masks))

    def size_marginal(self) -> np.ndarray:
        return np.bincount(self._sizes(), weights=self.values, minlength=self.n + 1)

    def inclusion_vector(self) -> np.ndarray:
        return np.array([np.dot((self.masks >> i) & 1, self.values) for i in range(self.n)])

    def conditioned_on_size(self, m: int) -> "SubsetDistribution":
        keep = self._sizes() == m
        tot = float(np.sum(self.values[keep]))
        if tot <= 0.0:
            raise ValueError(f"no mass on subsets of size {m}")
        return SubsetDistribution(self.n, self.masks[keep], self.values[keep] / tot)


def mask_of(X: Iterable[int]) -> int:
    mask = 0
    for i in X:
        mask |= 1 << int(i)
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON serialization: float64 blocks as base64, column-major.
# ---------------------------------------------------------------------------

#: Bytes of a block encoded per base64 chunk. A multiple of 3, so the chunks'
#: base64 texts join, without padding, into the base64 text of the block.
_CHUNK_BYTES = 3 << 16


def _base64_chunks(arr: np.ndarray) -> Iterator[bytes]:
    """Base64 of arr's float64 entries in column-major order, chunk by chunk.

    Reads arr's own buffer when it is Fortran-contiguous (the transpose of a
    C-ordered array is); any other layout is copied once, as a whole. The
    zero kind is written from one cached encoded zero chunk: the bytes of a
    dense zero array, with nothing copied.
    """
    if _is_zero_kind(arr):
        full, rest = divmod(8 * arr.size, _CHUNK_BYTES)
        chunk = _zero_base64(_CHUNK_BYTES)
        for _ in range(full):
            yield chunk
        if rest:
            yield binascii.b2a_base64(bytes(rest), newline=False)
        return
    data = np.asfortranarray(arr, dtype=np.float64).ravel(order="F").view(np.uint8)
    for lo in range(0, data.size, _CHUNK_BYTES):
        yield binascii.b2a_base64(data[lo:lo + _CHUNK_BYTES], newline=False)


@lru_cache(maxsize=1)
def _zero_base64(nbytes: int) -> bytes:
    """The base64 of nbytes zero bytes, for the chunk size in use."""
    return binascii.b2a_base64(bytes(nbytes), newline=False)


def _zero_block(buf: bytes, lo: int, hi: int, shape) -> np.ndarray | None:
    """The zero kind of the given shape when buf[lo:hi] is exactly the
    base64 of its +0.0 entries, else None. Decided by a chunked comparison
    with the encoded zero chunk; nothing is decoded."""
    nbytes = 8 * shape[0] * shape[1]
    # the text of eight or more zero bytes starts with eleven A's
    if nbytes == 0 or hi - lo != 4 * -(-nbytes // 3) or not buf.startswith(b"AAAA", lo):
        return None
    full, rest = divmod(nbytes, _CHUNK_BYTES)
    chunk = _zero_base64(_CHUNK_BYTES) if full else b""
    tail = binascii.b2a_base64(bytes(rest), newline=False)
    if not (buf.startswith(tail, hi - len(tail))
            and all(buf.startswith(chunk, lo + k * len(chunk)) for k in range(full))):
        return None
    logger.debug("a %dx%d block's text is the base64 of +0.0 entries: read as the "
                 "zero kind", *shape)
    return np.broadcast_to(0.0, tuple(shape))


def _block_array(buf: bytes, lo: int, hi: int, shape) -> np.ndarray:
    """The array of a block {"shape", "data"} whose base64 is buf[lo:hi]:
    the zero kind when that is exactly the base64 of +0.0 entries (a -0.0
    or any other entry keeps it dense), else a read-only, Fortran-ordered
    view of the bytes a strict a2b_base64 decodes from a memoryview of buf.
    A bad shape, data that is not base64, or a size that does not match the
    shape is a ValueError."""
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(s) is int and s >= 0 for s in shape)):
        raise ValueError(f"ensemble record: a block has shape {shape!r}, not [rows, cols]")
    zero = _zero_block(buf, lo, hi, shape)
    if zero is not None:
        return zero
    try:
        data = binascii.a2b_base64(memoryview(buf)[lo:hi], strict_mode=True)
    except binascii.Error as err:
        raise ValueError(f"ensemble record: a block's data is not base64 ({err})") from None
    rows, cols = shape
    if len(data) != 8 * rows * cols:
        raise ValueError(f"ensemble record: a {rows}x{cols} block holds {len(data)} bytes, "
                         f"not {8 * rows * cols}")
    return np.frombuffer(data, dtype=np.float64).reshape((rows, cols), order="F")


#: A "data" key and the quote that opens its string.
_DATA_KEY = re.compile(rb'"data"[ \t\n\r]*:[ \t\n\r]*"')


def read_json(path):
    """The JSON document in the file at path, each block {"shape", "data"}
    read as its array (:func:`_block_array`): for a file that
    :func:`write_json` wrote, the dict it was given.

    A file in another encoding is first re-encoded to UTF-8. In a document
    without a backslash every quote delimits a string, so each string that
    follows a "data" key ends at the next quote: it is cut out and replaced
    by its index, json.loads parses only the skeleton left, and each block
    is decoded from the file's bytes. A document with a backslash is parsed
    whole, and each block's data is decoded from its ASCII encoding.

    A "data" member that is not the base64 string of a block {"shape",
    "data"}, a block that repeats a key, or a block with a bad shape, data
    that is not base64 or a size that does not match its shape, is a
    ValueError that starts "ensemble record:". A document that json.loads
    refuses raises json.loads's error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    encoding = json.detect_encoding(raw)
    if encoding != "utf-8":
        raw = raw.decode(encoding, "surrogatepass").encode("utf-8", "surrogatepass")
    parts, spans, at = [], [], 0
    if b"\\" not in raw:
        while (key := _DATA_KEY.search(raw, at)) and (end := raw.find(b'"', key.end())) >= 0:
            parts += [raw[at:key.end()], b"%d" % len(spans)]
            spans.append((key.end(), end))
            at = end
    parts.append(raw[at:])

    def block(pairs):
        obj = dict(pairs)
        if "data" not in obj:
            return obj
        if len(obj) < len(pairs):
            # json.loads keeps the last value of a repeated key, and a cut
            # string that it drops would never be checked
            raise ValueError("ensemble record: a block {\"shape\", \"data\"} repeats a key")
        if obj.keys() != {"shape", "data"} or not isinstance(obj["data"], str):
            raise ValueError('ensemble record: "data" is only the base64 string of a block '
                             '{"shape": [rows, cols], "data": base64}')
        if spans:
            lo, hi = spans[int(obj["data"])]
            return _block_array(raw, lo, hi, obj["shape"])
        # a non-ASCII character becomes "?", which base64 refuses
        data = obj["data"].encode("ascii", "replace")
        return _block_array(data, 0, len(data), obj["shape"])

    try:
        return json.loads(b"".join(parts).decode("utf-8", "surrogatepass"),
                          object_pairs_hook=block)
    except ValueError:
        if spans:
            # json.loads did not see the cut strings: a document it refuses
            # raises its own error, at its place in the file
            json.loads(raw)
        raise


def write_json(obj, write: Callable[[bytes], object]) -> None:
    """Write obj as JSON in ASCII bytes through write, as json.dumps writes
    it, where each ndarray value is written as a block {"shape": [rows,
    cols], "data": base64} of its float64 entries in column-major order:
    its base64 is written chunk by chunk (:func:`_base64_chunks`), so its
    text is never held whole. Dicts need str keys.
    """
    if isinstance(obj, np.ndarray):
        write(b'{"shape": %s, "data": "' % json.dumps(list(obj.shape)).encode())
        for chunk in _base64_chunks(obj):
            write(chunk)
        write(b'"}')
    elif isinstance(obj, dict):
        write(b"{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"write_json: key {key!r} is not a str")
            write(b"%s%s: " % (b", " if i else b"", json.dumps(key).encode()))
            write_json(value, write)
        write(b"}")
    else:
        write(json.dumps(obj).encode())


def nnp_to_dict(e: NNP) -> dict:
    """The record of e: n, p, and L and V as arrays; a factored pair adds
    its factor {"B", "C"}. The arrays are e's own, read-only."""
    obj = {
        "n": e.n,
        "p": e.p,
        # L is exactly symmetric and, as make_nnp keeps it, C-ordered (a kept
        # Fortran-ordered block is held as its transpose), so L^T, a
        # Fortran-ordered view, has L's column-major bytes in L's own buffer
        "L": e.L.T,
        "V": e.V,
    }
    if e.factor is not None:
        B, C = e.factor
        obj["factor"] = {"B": B, "C": C}
    return obj


def _block(obj, key: str) -> np.ndarray:
    """The array obj[key] of a record; ValueError naming the key when the
    record is not a JSON object or the value is not an array."""
    if not isinstance(obj, dict):
        raise ValueError(f"ensemble record: expected a JSON object, not {type(obj).__name__}")
    block = obj.get(key)
    if not isinstance(block, np.ndarray):
        raise ValueError(f"ensemble record: {key!r} is not a block {{\"shape\", \"data\"}}")
    return block


def nnp_from_dict(obj: dict, *, spectrum: str | None = None) -> NNP:
    """Rebuild through make_nnp, or through make_factored_nnp when the record
    has a factor; spectrum is passed to make_nnp (a factored pair has its
    spectrum already). A malformed record, or an n or p that is not L's
    order or V's column count, is a ValueError; a record may omit n and p,
    and any other member, such as the PSD tolerance that older records hold,
    is not read. obj is not modified, so one record can be reloaded again.

    Blocks are arrays, as :func:`read_json` and :func:`nnp_to_dict` give
    them; a block read from a file is a read-only view of its decoded
    bytes, which nobody can write, so it is frozen. The constructors get
    the arrays as they are and keep a frozen block that is finite and
    bit-symmetric (for L) without a copy, as for every record that
    :func:`write_json` wrote: the only new n x n array of a dense reload is
    N^T L N, and that of a factored one the product B C B^T, symmetrised in
    its own buffer. A factored record's L must match the rebuilt L within
    1e-10 * max |L|.
    """
    L, V = _block(obj, "L"), _block(obj, "V")
    if "factor" in obj:
        factor = obj["factor"]
        e = make_factored_nnp(_block(factor, "B"), _block(factor, "C"), V)
        _require_match(L, e.L)
    else:
        e = make_nnp(L, V, spectrum=spectrum)
    for key, size in (("n", e.n), ("p", e.p)):
        if key in obj and (type(obj[key]) is not int or obj[key] != size):
            raise ValueError(f"ensemble record: {key} {obj[key]!r} does not match "
                             f"the pair's {size}")
    return e


def _require_match(L: np.ndarray, S: np.ndarray) -> None:
    """ValueError unless L matches the exactly symmetric S within
    1e-10 * max |S|, compared by blocks of _TILE rows of L^T (contiguous for
    a decoded block), with no n x n temporary."""
    if L.shape != S.shape:
        raise ValueError(f"ensemble record: L of shape {L.shape} does not match "
                         f"its factor's {S.shape}")
    gap = scale = 0.0
    for lo in range(0, S.shape[0], _TILE):
        rows = S[lo:lo + _TILE]
        scale = max(scale, float(np.abs(rows).max()))
        gap = max(gap, float(np.abs(L.T[lo:lo + _TILE] - rows).max()))
    if not gap <= 1e-10 * scale:
        raise ValueError(f"ensemble record: L does not match its factor B C B^T "
                         f"(max difference {gap:.3e}, max |L| {scale:.3e})")
