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

A pair holds L as one of five kinds, and every reader goes through the kind:

- zero: the read-only zero-stride view ``np.broadcast_to(0.0, (n, n))``,
  which takes no memory, as in every projection limit. :func:`make_nnp`
  recognises it in O(1);
- dense: one n x n array, as :func:`make_nnp` keeps it;
- factor (B, C): L = B C B^T with B of shape (n, h), from
  :func:`make_factored_nnp`, as in every Wronskian limit;
- distance (x, beta, sign): L = sign D^(beta), D_ij = |x_i - x_j|, from the
  n x d coordinates x, from :func:`_distance_nnp`, as in every
  finite-smoothness limit;
- scaled (gamma, unit): L = gamma L_1 for a distance or dense pair
  unit = (L_1; V), which it holds, from :func:`_scaled_nnp`, as in a
  critical-scaling limit.

A subset's L_X is read from the kind: zeros, B_X C B_X^T symmetrised,
sign D_X^(beta) from X's coordinates (:func:`_distance_block`), a slice, or
gamma times the unit's L_X. No kind but dense holds an n x n array: a
distance or scaled pair forms its L only as a transient of its validation or
decomposition, and ``NNP.L`` forms the dense L of a factor, distance or
scaled pair only when it is read, and does not keep it. Each such formation
is logged at DEBUG on the ``flatdpp.ensembles`` logger. A scaled pair whose
U is read before its lam takes its unit's spectrum, U_1 itself and
fl(gamma lam_1), so a unit and its scaled pairs share one eigendecomposition.

A pair is stored as a record (:func:`nnp_to_dict`, :func:`nnp_from_dict`):
a dict of n, p, and L and V as float64 arrays. A factored pair's record also
holds ``"factor": {"B": B, "C": C}``; a reload rebuilds it from the factor
and requires the stored L to match, by row blocks of B C B^T. The zero kind
is written and read with no dense array, and the L of a distance or scaled
pair is a block source (:class:`_RowSource`) whose row blocks are formed
only as they are written. :mod:`flatdpp.store` writes a record to a file
and reads it back. The numerics of validation live in
:mod:`flatdpp._numerics`.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from ._numerics import (_CHOLESKY_BLOCK, _Bound, _block_rows, _compress, _factor_max,
                        _factor_rows, _is_zero_kind, _lift, _reflectors, _symmetric_scale,
                        _symmetrized, log_esp_table)
from .geometry import _sq_dists
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


class _Held:
    """The zero or dense kind: L itself, read-only; the zero kind is the
    zero-stride view np.broadcast_to(0.0, (n, n))."""

    def __init__(self, L: np.ndarray):
        L.setflags(write=False)
        self.L = L
        self.name = "zero" if _is_zero_kind(L) else "dense"

    def dense(self, reader: str) -> np.ndarray:
        return self.L

    def block(self, idx: np.ndarray) -> np.ndarray:
        return self.L[idx[..., :, None], idx[..., None, :]]

    def rows(self, lo: int, hi: int, scale: float) -> np.ndarray:
        """Rows lo:hi of L times scale, as a new array."""
        return np.multiply(self.L[lo:hi], scale)


class _Factor:
    """The factor kind, L = B C B^T: B (n x h) and C (h x h), read-only."""

    name = "factor"

    def __init__(self, B: np.ndarray, C: np.ndarray):
        for arr in (B, C):
            arr.setflags(write=False)
        self.B, self.C = B, C

    def dense(self, reader: str) -> np.ndarray:
        """B C B^T, symmetrised in its own buffer: the L that make_nnp would
        keep for that product, bit for bit."""
        start = time.perf_counter()
        L = self.B @ self.C @ self.B.T
        _symmetrized(L, out=L)
        return _formed(self, L, reader, start)

    def block(self, idx: np.ndarray) -> np.ndarray:
        return _factor_block(self.B[idx], self.C)


class _Distance:
    """The distance kind, L = sign D^(beta) with D_ij = |x_i - x_j|: the
    read-only n x d coordinates x, the odd power beta and the sign."""

    name = "distance"

    def __init__(self, coords: np.ndarray, beta: int, sign: float):
        self.coords, self.beta, self.sign = coords, beta, sign

    def dense(self, reader: str) -> np.ndarray:
        start = time.perf_counter()
        return _formed(self, self.rows(0, self.coords.shape[0]), reader, start)

    def block(self, idx: np.ndarray) -> np.ndarray:
        X = self.coords[idx]
        return _distance_block(X, X, self.beta, self.sign)

    def rows(self, lo: int, hi: int, scale: float = 1.0) -> np.ndarray:
        """Rows lo:hi of L times scale, as a new array: the bytes of the
        same rows of fl(scale L), since sign is +-1."""
        return _distance_block(self.coords[lo:hi], self.coords, self.beta, self.sign * scale)


class _Scaled:
    """The scaled kind, L = gamma L_1: gamma and the distance or dense pair
    unit = (L_1; V) itself, which it keeps alive."""

    name = "scaled"

    def __init__(self, gamma: float, unit: "NNP"):
        self.gamma, self.unit = gamma, unit

    def dense(self, reader: str) -> np.ndarray:
        """fl(gamma L_1), formed in one buffer."""
        start = time.perf_counter()
        return _formed(self, self.rows(0, self.unit.n), reader, start)

    def block(self, idx: np.ndarray) -> np.ndarray:
        return np.multiply(self.unit._L.block(idx), self.gamma)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        return self.unit._L.rows(lo, hi, self.gamma)

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(fl(gamma lam_1), U_1): the unit's spectrum scaled, with its U
        itself, decomposed once for both pairs."""
        U = self.unit.U
        lam = np.multiply(self.unit.lam, self.gamma)
        logger.debug("scaled pair: lam and U taken from its unit pair's spectrum, gamma %r, "
                     "q = %d: no decomposition", self.gamma, lam.size)
        return lam, U


class _RowSource:
    """The L of a distance or scaled pair as a block source of
    :func:`flatdpp.store.write_json`: its shape and its row blocks of
    :func:`_block_rows` rows (at most 2 MiB), each formed by the kind only
    when it is reached. L is exactly symmetric, so the C-ordered bytes of its
    row blocks are, in turn, its column-major bytes. ``np.asarray`` of the
    source, and ``tobytes``, form L whole as ``NNP.L`` does, for readers in
    memory such as :func:`nnp_from_dict`."""

    def __init__(self, kind, n: int):
        self.kind, self.shape = kind, (n, n)

    def row_blocks(self):
        n = self.shape[0]
        r = _block_rows(n)
        for lo in range(0, n, r):
            yield self.kind.rows(lo, min(lo + r, n))

    def __array__(self, dtype=None, copy=None):
        return self.kind.dense("a record's L read whole")

    def tobytes(self, order: str = "C") -> bytes:
        # L is symmetric, so its bytes are the same in either order
        return np.asarray(self).tobytes(order)


def _formed(kind, L: np.ndarray, reader: str, start: float) -> np.ndarray:
    """L, read-only, with the DEBUG line of its formation from kind."""
    L.setflags(write=False)
    logger.debug("%s L formed as a dense %dx%d array for %s (%.1f ms)", kind.name,
                 L.shape[0], L.shape[0], reader, 1e3 * (time.perf_counter() - start))
    return L


def _factor_block(BX: np.ndarray, C: np.ndarray) -> np.ndarray:
    """B_X C B_X^T symmetrised, for a stack B_X of shape (..., m, h)."""
    L = BX @ C @ np.swapaxes(BX, -1, -2)
    return 0.5 * (L + np.swapaxes(L, -1, -2))


def _distance_block(rows: np.ndarray, cols: np.ndarray, beta: int, scale: float) -> np.ndarray:
    """scale |x_i - x_j|^beta, as np.sqrt(_sq_dists(rows, cols)) ** beta *
    scale gives it, for coordinate stacks rows (..., a, d) and cols
    (..., b, d), formed in one buffer. :func:`_sq_dists` gives every pair the
    same value among any rows and columns, so a block is the same slice of
    the n x n array, bit for bit."""
    D = _sq_dists(rows, cols)
    np.sqrt(D, out=D)
    if beta > 1:
        D **= beta
    D *= scale
    return D


class NNP:
    """Validated extended L-ensemble whose spectrum is computed on first use.

    Attributes
    ----------
    L : the n x n L, read-only, from its kind (see the module docstring):
        the zero kind's view or the dense array, each held, or for a factor,
        distance or scaled pair an array formed on each read and not kept. A
        dense L is the caller's array when that was frozen (see
        :func:`make_nnp`), else the pair's own copy.
    V : shape (n, p), possibly p = 0, read-only; the caller's array when
        that was frozen, else the pair's own copy.
    Q : orthonormal basis of span(V), shape (n, p).
    lam : eigenvalues above beta (descending) of N^T L N, where [Q | N] is
        an orthonormal basis of R^n; one cached eigvalsh on first read.
    U : their eigenvectors lifted back as U = N W, column-major and
        orthogonal to Q by construction; one cached eigh on first read, which
        also sets lam when it is not yet known (otherwise U keeps the top q).
        A scaled pair's U read before its lam is its unit's U, the same
        read-only array, and sets lam = fl(gamma lam_1), the unit's q
        eigenvalues scaled: the unit decomposes once, if it has not yet, and
        the scaled pair not at all.
    q : number of eigenvalues above beta; q <= n - p.
    logdet_vtv : log det(V^T V), 0.0 when p = 0.
    factor : (B, C) of the factor kind, L = B C B^T, else None.

    N is never formed, and N^T L N is not kept: each decomposition
    recompresses L through the p Householder reflectors of Q; a distance or
    scaled pair compresses its L, formed for it, and drops that before the
    eigensolver runs. A scaled pair whose U is read first runs no
    decomposition of its own (see U). A pair built with
    make_nnp(..., spectrum=...) has lam (and U) from its validation, and a
    factored pair has both from construction and never decomposes L.
    Immutable after construction; build
    through :func:`make_nnp`, :func:`make_factored_nnp` or
    :func:`_distance_nnp`, or scale a validated distance or dense pair by
    :func:`_scaled_nnp`. The fixed-size sampler
    caches its read-only acceptance tables here, keyed by the number of
    eigenvectors drawn, on first use.
    """

    def __init__(self, L, V, *, Q, logdet_vtv, bound, lam, U=None):
        self._L = L
        self.V = V
        self.Q = Q
        self.logdet_vtv = logdet_vtv
        self.n, self.p = V.shape
        self._bound = bound
        self._lam: np.ndarray | None = None
        self._U: np.ndarray | None = None
        self._acceptance_tables: dict[int, np.ndarray] = {}
        for arr in (self.V, self.Q):
            arr.setflags(write=False)
        self._keep(lam, U)

    def _keep(self, lam: np.ndarray | None, U: np.ndarray | None = None) -> None:
        """Keep lam and U, when given, read-only; an empty lam needs no eigenvector."""
        if lam is not None:
            lam.setflags(write=False)
            self._lam = lam
            if not lam.size and U is None:
                U = np.zeros((self.n, 0), order="F")
        if U is not None:
            U.setflags(write=False)
            self._U = U

    @property
    def L(self) -> np.ndarray:
        return self._L.dense("an NNP.L read")

    @property
    def factor(self) -> tuple[np.ndarray, np.ndarray] | None:
        return (self._L.B, self._L.C) if isinstance(self._L, _Factor) else None

    @property
    def lam(self) -> np.ndarray:
        if self._lam is None:
            self._keep(_decomposed(self._L, self.Q, self._bound, False,
                                   "NNP: eigvalsh of N^T L N read")[1])
        return self._lam

    @property
    def q(self) -> int:
        return self.lam.size

    @property
    def U(self) -> np.ndarray:
        if self._U is None:
            if self._lam is None and isinstance(self._L, _Scaled):
                self._keep(*self._L.spectrum())
            else:
                self._keep(*_decomposed(self._L, self.Q, self._bound, True,
                                        "NNP: eigh of N^T L N read", lam=self._lam)[1:])
        return self._U

    def __repr__(self) -> str:
        # q is printed only once known: reading it could run an eigensolve
        q = "?" if self._lam is None else self._lam.size
        return f"NNP(n={self.n}, p={self.p}, q={q}, L={self._L.name})"


def make_nnp(L, V=None, *, spectrum: str | None = None) -> NNP:
    """Validate a pair (L; V); by default its spectrum is computed only on
    first use.

    L is held once (:func:`_checked_square`). An L that nobody can write
    (frozen: every array on its .base chain is read-only, and the chain ends
    in an array that owns its data or in bytes, as for a block that
    :mod:`flatdpp.store` decoded), C- or F-contiguous, and finite and equal to
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
    factor in one GEMM (:meth:`_Bound.accepts`), so M and, unless L is
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
    V, Q, logdet_vtv = _projective_part(V, L.shape[0])
    kind = _Held(L)
    bound, lam, U = _validate(kind, Q, scale, spectrum)
    return NNP(kind, V, Q=Q, logdet_vtv=logdet_vtv, bound=bound, lam=lam, U=U)


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


def _checked_square(L) -> tuple[np.ndarray, float]:
    """(L as :func:`make_nnp` keeps it, max |L|), or ValueError unless L is
    square, finite and symmetric within 1e-10 * max |L|.

    The zero kind is kept as it is, with max |L| = 0. A frozen, C- or
    F-contiguous L that :func:`_symmetric_scale` finds finite and
    bit-symmetric is kept too, C-ordered (an F-ordered L as L^T). Any other
    L is replaced by 0.5 (L + L^T) from one :func:`_symmetrized` sweep."""
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
    S, scale, asymmetry = _symmetrized(L)
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
    h x h, held as the factor kind, and take its spectrum from the factor: no
    n x n array is formed or decomposed.

    B C B^T is swept by row blocks (:func:`_factor_rows`) for max |L|, and
    is refused as :func:`make_nnp` refuses that L: "L has a non-finite entry"
    or, for a C that is not bit-symmetric, "L must be symmetric" when
    max |B (C - C^T) B^T| is above 1e-10 max |L| (a second sweep, run only
    when max_i |b_i|^2 ||C - C^T||_F does not settle it). make_nnp's Q, rank
    check and log det(V^T V) are taken too, and B, C and V are kept or copied
    by its rule for V.
    B is projected off span(V) by the Householder reflectors of Q that
    make_nnp compresses L with: N^T B is the last n - p rows of H^T B. With
    its thin QR N^T B = Q_r R_r, the nonzero spectrum of N^T L N is that of
    the small K = R_r C R_r^T; one eigh of K gives the CPD check, lam and
    U = N Q_r Z, so q <= h, by make_nnp's rule with K for M
    (:class:`_Bound`): a dense pair with the same L and V decides alike.
    """
    B, C = _checked_factor(B, C)
    return _factored_nnp(B, C, V, _factor_max(B, 0.5 * (C + C.T)))


def _checked_factor(B, C) -> tuple[np.ndarray, np.ndarray]:
    """(B, C) kept or copied by make_nnp's rule for V, or ValueError unless
    B is n x h and C h x h, both finite."""
    B, C = _kept(np.asarray(B, dtype=float)), _kept(np.asarray(C, dtype=float))
    if B.ndim != 2 or C.shape != (B.shape[1], B.shape[1]):
        raise ValueError(f"a factor needs B of shape (n, h) and C of shape (h, h), "
                         f"not {B.shape} and {C.shape}")
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(C))):
        raise ValueError("the factor has a non-finite entry")
    return B, C


def _factored_nnp(B: np.ndarray, C: np.ndarray, V, scale: float) -> NNP:
    """:func:`make_factored_nnp` of a checked factor whose B C B^T, C
    symmetrised, has max |entry| scale (inf or NaN once an entry is not
    finite)."""
    n = B.shape[0]
    if not math.isfinite(scale):
        raise ValueError("L has a non-finite entry")
    skew = C - C.T
    if skew.any():
        # |b_i^T (C - C^T) b_j| <= max_i |b_i|^2 ||C - C^T||_F
        longest = float(np.einsum("ij,ij->i", B, B).max(initial=0.0))
        if longest * np.linalg.norm(skew) > 1e-10 * scale and _factor_max(B, skew) > 1e-10 * scale:
            raise ValueError("L must be symmetric")
    V, Q, logdet_vtv = _projective_part(V, n)
    Y, T = _reflectors(Q)
    p = Q.shape[1]
    Qr, Rr = np.linalg.qr(B[p:] - Y[p:] @ (T.T @ (Y.T @ B)))
    K = Rr @ C @ Rr.T
    K = 0.5 * (K + K.T)
    w, Z = np.linalg.eigh(K)
    bound = _Bound.of(n, scale, K)
    lam = _decided(
        bound, w, f"make_factored_nnp: eigh of the {w.size}x{w.size} factor decided",
        f"n={n}, p={p}", "L = B C B^T is not CPD with respect to V: the Wronskian "
        "Schur block C, compressed to the complement of span(V), has")
    U = _lift(Qr @ Z[:, ::-1][:, :lam.size], Y, T)
    return NNP(_Factor(B, C), V, Q=Q, logdet_vtv=logdet_vtv, bound=bound, lam=lam, U=U)


def _distance_nnp(coords: np.ndarray, beta: int, sign: float, V) -> NNP:
    """Validate the pair (sign D^(beta); V), D_ij = |x_i - x_j| for the
    read-only n x d coordinates x, held as the distance kind: the pair keeps
    x, V and Q, and no n x n array.

    L = sign D^(beta) is formed once, frozen, and validated by make_nnp's
    steps on it, with its messages (:func:`_checked_square`, then
    :func:`_validate`); it is dropped when validation ends, so the peak is
    L and N^T L N, as make_nnp's. An L with an entry past float64 (x far
    from the origin, or a high beta) is refused by name before those steps:
    "past the float64 range", with max |x|. L's later readers form it, or
    its blocks, from x again (:func:`_distance_block`), bit for bit.
    """
    kind = _Distance(coords, beta, sign)
    # an entry past float64 is refused below, not warned of
    with np.errstate(over="ignore"):
        L = kind.rows(0, coords.shape[0])
    # every entry has the sign of sign, or is zero
    if not math.isfinite(L.max() if sign > 0 else L.min()):
        raise ValueError(f"L = {sign:+g} D^({beta}) of these points is past the float64 range: "
                         f"max |x| {float(np.abs(coords).max()):.3e}")
    L.setflags(write=False)
    # bit-symmetric by construction and frozen, so kept as it is
    L, scale = _checked_square(L)
    V, Q, logdet_vtv = _projective_part(V, L.shape[0])
    bound, lam, U = _validate(_Held(L), Q, scale, None)
    return NNP(kind, V, Q=Q, logdet_vtv=logdet_vtv, bound=bound, lam=lam, U=U)


def _scaled_nnp(unit: NNP, gamma: float) -> NNP:
    """(gamma L; V) for a distance or dense pair unit = (L; V) that was
    validated (:func:`_distance_nnp`, :func:`make_nnp`) and a finite
    gamma >= 0, with no sweep, compression or Cholesky: the decision and the
    bound are homogeneous in gamma.

    The pair is the scaled kind: it holds gamma and unit itself, so unit
    lives as long as it does, and no n x n array. V, Q and log det(V^T V)
    are unit's. L_X is gamma times unit's L_X, the bytes of the same slice
    of fl(gamma L). The bound is (n, gamma max |L|, gamma ||M||_F):
    rounding is monotone, so max |fl(gamma L)| = fl(gamma max |L|).

    The spectrum depends on which is read first. U first, as both samplers
    read it: U is unit's U, the same array, and lam is fl(gamma lam_1), with
    unit's q, since the decision is homogeneous in gamma; no L is formed and
    no eigensolver runs beyond unit's own, once. lam first, as the size laws
    read it: one eigvalsh of fl(gamma L), formed in one buffer as a
    transient that is compressed and dropped before the eigensolver runs,
    so lam is that of make_nnp(gamma L, V) with that pair's bound, bit for
    bit, and a later U read is that pair's eigh. Each lam is within beta of
    the exact spectrum (Weyl), so the two differ by at most 2 beta. At
    gamma = 0 there is no spectrum, as make_nnp finds for L = 0. A gamma
    that takes max |L| or ||M||_F past float64 is a ValueError: beta would
    be infinite, and the compression on first read would overflow.
    """
    unit_bound = unit._bound
    bound = _Bound(unit.n, gamma * unit_bound.max_l, gamma * unit_bound.norm_m)
    if not math.isfinite(bound.max_l + bound.norm_m):
        raise ValueError(f"L times gamma = {gamma!r} is past the float64 range: "
                         f"max |L| {bound.max_l:.3e}, ||N^T L N||_F {bound.norm_m:.3e}")
    return NNP(_Scaled(gamma, unit), unit.V, Q=unit.Q, logdet_vtv=unit.logdet_vtv,
               bound=bound, lam=np.zeros(0) if gamma == 0 else None)


def _validate(kind: _Held, Q: np.ndarray, scale: float, spectrum: str | None
              ) -> tuple[_Bound, np.ndarray | None, np.ndarray | None]:
    """(the bound, lam and U if they were computed) for (L; V), L held by
    kind with max |L| = scale, or raise."""
    n, p = Q.shape
    if scale == 0.0 or p == n:
        # L = 0, or the sure full set: no spectrum to check
        return _Bound(n, scale, 0.0), np.zeros(0), None
    start, refusal = time.perf_counter(), "L is not CPD with respect to V:"
    if spectrum is not None:
        decider = ("eigh" if spectrum == "vectors" else "eigvalsh") + " (requested by the caller)"
        return _decomposed(kind, Q, scale, spectrum == "vectors", f"make_nnp: {decider} decided",
                           refusal, start)
    M = _compress(kind.L, Q)[0]
    bound = _Bound.of(n, scale, M)
    what = (f"make_nnp: blocked Cholesky of N^T L N + beta I in "
            f"{-(-M.shape[0] // _CHOLESKY_BLOCK)} blocks")
    if bound.accepts(M):
        logger.debug("%s accepted the pair; %s (n=%d, p=%d, %.1f ms)", what, bound, n, p,
                     1e3 * (time.perf_counter() - start))
        return bound, None, None
    # M is partly factored: the eigenvalues are those of a fresh compression
    del M
    return _decomposed(kind, Q, bound, False, f"{what} failed; eigvalsh decided", refusal, start)


def _decomposed(kind, Q: np.ndarray, bound: _Bound | float, vectors: bool, what: str,
                refusal: str | None = None, start: float | None = None, *,
                lam: np.ndarray | None = None) -> tuple[_Bound, np.ndarray, np.ndarray | None]:
    """(bound, lam, U or None) from one eigvalsh (with vectors, eigh) of a
    fresh M = N^T L N, L read from kind (a dense, distance or scaled
    pair's): a formed L is dropped before the eigensolver runs. U = N W
    lifts the eigenvectors of the top lam.size. A float bound is max |L|,
    completed from M. Unless given, lam is decided (:func:`_decided`) and
    logged as what, timed from start when given."""
    n, p = Q.shape
    # M's buffer is taken before a formed L, so that L's space, freed before
    # the eigensolver runs, lies above M and is reused by the eigensolver's
    # arrays, rather than left below M as a hole that later small
    # allocations split (one more n x n array of peak RSS when that happens)
    buffer = np.empty((n, n - p))
    L = kind.dense("a decomposition's transient")
    M, Y, T = _compress(L, Q, buffer)
    del buffer
    del L
    if not isinstance(bound, _Bound):
        bound = _Bound.of(n, bound, M)
    w, W = np.linalg.eigh(M) if vectors else (np.linalg.eigvalsh(M), None)
    del M
    if lam is None:
        ms = "" if start is None else f", {1e3 * (time.perf_counter() - start):.1f} ms"
        lam = _decided(bound, w, what, f"n={n}, p={p}{ms}", refusal)
    return bound, lam, None if W is None else _lift(W[:, ::-1][:, :lam.size], Y, T)


def _decided(bound: _Bound, w: np.ndarray, what: str, where: str,
             refusal: str | None = None) -> np.ndarray:
    """lam: the ascending eigenvalues w above beta, descending. Given a
    refusal, a w[0] below -beta raises CPDViolationError with it; what
    and where frame the DEBUG line of the decision."""
    beta = bound.beta
    lam = w[w > beta][::-1].copy()
    logger.debug("%s with min eigenvalue %.3e; %s; q = %d, %d unresolved (%s)",
                 what, w[0] if w.size else 0.0, bound, lam.size, w.size - lam.size, where)
    if refusal is not None and w.size and w[0] < -beta:
        raise CPDViolationError(f"{refusal} min eigenvalue {w[0]:.3e} < -{beta:.3e}")
    return lam


def bordered_matrix(e: NNP, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, 2 log det S) of :func:`_bordered` for e's L_X, read from its
    kind, and V_X at the indices X; for a (count, m) array of index rows, a
    stack of one B per row."""
    idx = np.asarray(idx)
    return _bordered(e._L.block(idx), e.V[idx, :])


def _bordered(LX: np.ndarray, VX: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B, 2 log det S) for B = [[L_X, V_X S], [S V_X^T, 0]], L_X of shape
    (..., m, m) and V_X of shape (..., m, p): one B per leading index.

    S is diagonal: s_j is the power of 2 nearest max |L_X| / max |V_X,j| (1
    where either is 0), so det B = det(S)^2 times the bordered determinant.
    LU's backward error is relative to the whole of B, so a border far off
    L_X's scale would be swamped by it or swamp it, and a fixed-size law
    would change when L is scaled.
    """
    m, p = VX.shape[-2:]
    B = np.zeros(LX.shape[:-2] + (m + p, m + p))
    B[..., :m, :m] = LX
    top = np.abs(LX).max(axis=(-2, -1), initial=0.0)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.round(np.log2(top / np.abs(VX).max(axis=-2, initial=0.0)))
    k[~np.isfinite(k)] = 0.0
    B[..., :m, m:] = VX * np.exp2(k)[..., None, :]
    B[..., m:, :m] = np.swapaxes(B[..., :m, m:], -1, -2)
    return B, 2.0 * math.log(2.0) * k.sum(axis=-1)


def _bordered_slogdets(LX: np.ndarray, VX: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log |bordered determinant|, sign) per leading index of L_X and V_X,
    as in :func:`_bordered`, with the (-1)^p convention folded in: one
    batched slogdet of B, less its 2 log det S."""
    B, logdet_s = _bordered(LX, VX)
    sign, logabs = np.linalg.slogdet(B)
    return logabs - logdet_s, (-1) ** VX.shape[-1] * sign


def log_unnorm_prob(e: NNP, X: Iterable[int] | np.ndarray) -> tuple:
    """(log |bordered determinant|, sign) with the (-1)^p convention folded in.

    The folded sign is +1 for every subset of positive mass, 0 when the mass
    vanishes (including |X| < p, where the bordered matrix is singular). For
    a (count, m) array of index rows (distinct, in range), both are arrays
    with one entry per row, from :func:`_bordered_slogdets` of e's L_X,
    read from its kind, and V_X.
    """
    stacked = isinstance(X, np.ndarray) and X.ndim == 2
    idx = X if stacked else _as_indices(X, e.n)[None]
    logabs, sign = np.full(len(idx), -math.inf), np.zeros(len(idx))
    if idx.shape[1] >= e.p:
        logabs, sign = _bordered_slogdets(e._L.block(idx), e.V[idx])
    if stacked:
        return logabs, sign
    return (float(logabs[0]), float(sign[0])) if sign[0] else (-math.inf, 0.0)


def log_normalizer(e: NNP) -> float:
    """log Z with Z = det(I + N^T L N) det(V^T V) (sign already folded out)."""
    return float(np.sum(np.log1p(e.lam)) + e.logdet_vtv)


def log_prob(e: NNP, X: Iterable[int]) -> float:
    """Log probability of a subset under the varying-size law."""
    logabs, sign = log_unnorm_prob(e, X)
    return logabs - log_normalizer(e) if sign > 0.0 else -math.inf


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


def log_elementary_symmetric(values: Sequence[float], k: int) -> float:
    """log e_k for nonnegative values, accumulated in log space."""
    values = np.asarray(values, dtype=float)
    if np.any(values < 0):
        raise ValueError("log-space recurrence requires nonnegative values")
    if k < 0 or k > values.size:
        return -math.inf
    return float(log_esp_table(values, k)[k, -1])


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
        raise ValueError(f"fixed size m={m} exceeds the support bound p + q = {e.p + e.q}")
    return log_elementary_symmetric(e.lam, m - e.p) + e.logdet_vtv


def fixed_size_log_prob(e: NNP, X: Iterable[int], m: int) -> float:
    """Log probability of X under the law conditioned on |X| = m."""
    logZm = log_fixed_size_normalizer(e, m)
    idx = _as_indices(X, e.n)
    if idx.size != m:
        return -math.inf
    logabs, sign = log_unnorm_prob(e, idx)
    return logabs - logZm if sign > 0.0 else -math.inf


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
    mask = int(mask)
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def nnp_to_dict(e: NNP) -> dict:
    """The record of e: n, p, and L and V as arrays; a factored pair adds
    its factor {"B", "C"}. The arrays are e's own, read-only, except the L of
    a factor pair, which is formed for the record (``NNP.L``), and the L of
    a distance or scaled pair, which is a :class:`_RowSource` that forms
    its row blocks only as they are written."""
    # L is exactly symmetric and C-ordered, as make_nnp keeps it (a kept
    # Fortran-ordered block is held as its transpose) and as a factor pair
    # forms it, so L^T, a Fortran-ordered view, has L's column-major bytes
    # in L's own buffer
    L = _RowSource(e._L, e.n) if isinstance(e._L, (_Distance, _Scaled)) else e.L.T
    obj = {"n": e.n, "p": e.p, "L": L, "V": e.V}
    if e.factor is not None:
        B, C = e.factor
        obj["factor"] = {"B": B, "C": C}
    return obj


def _block(obj, key: str) -> np.ndarray:
    """The array obj[key] of a record (a :class:`_RowSource` formed whole);
    ValueError naming the key when the record is not a JSON object or the
    value is not an array."""
    if not isinstance(obj, dict):
        raise ValueError(f"ensemble record: expected a JSON object, not {type(obj).__name__}")
    block = obj.get(key)
    if isinstance(block, _RowSource):
        return np.asarray(block)
    if not isinstance(block, np.ndarray):
        raise ValueError(f"ensemble record: {key!r} is not a block {{\"shape\", \"data\"}}")
    return block


def nnp_from_dict(obj: dict, *, spectrum: str | None = None) -> NNP:
    """Rebuild through make_nnp, or as make_factored_nnp does when the record
    has a factor; spectrum is passed to make_nnp (a factored pair has its
    spectrum already). A malformed record, or an n or p that is not L's
    order or V's column count, is a ValueError; a record may omit n and p,
    and any other member, such as the PSD tolerance that older records hold,
    is not read. obj is not modified, so one record can be reloaded again.

    Blocks are arrays, as :mod:`flatdpp.store` reads them and
    :func:`nnp_to_dict` gives them (an L that is a :class:`_RowSource` is
    formed whole); a block read from a file is a read-only view of its
    decoded bytes, which nobody can write, so it is frozen. The constructors
    get the arrays as they are and keep a frozen block that is finite and
    bit-symmetric (for L) without a copy, as for every record that
    :mod:`flatdpp.store` wrote: the only new n x n array of a dense reload is
    N^T L N, and a factored one forms none. A factored record's L must match
    B C B^T within 1e-10 * max |B C B^T|, compared by row blocks, and that
    one sweep also gives the max |L| of the pair's bound.
    """
    L, V = _block(obj, "L"), _block(obj, "V")
    if "factor" in obj:
        factor = obj["factor"]
        B, C = _checked_factor(_block(factor, "B"), _block(factor, "C"))
        e = _factored_nnp(B, C, V, _matched_max(L, B, C))
    else:
        e = make_nnp(L, V, spectrum=spectrum)
    for key, size in (("n", e.n), ("p", e.p)):
        if key in obj and (type(obj[key]) is not int or obj[key] != size):
            raise ValueError(f"ensemble record: {key} {obj[key]!r} does not match "
                             f"the pair's {size}")
    return e


def _matched_max(L: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    """max |B C B^T|, C symmetrised, or ValueError unless L matches that
    product within 1e-10 times it, compared by the row blocks of
    :func:`_factor_rows` with the same rows of L^T (contiguous for a decoded
    block): one sweep, and the n x n product is never formed. A NaN in L is
    a mismatch; a product with an entry past float64 gives a max that is not
    finite, for the caller to refuse."""
    n = B.shape[0]
    if L.shape != (n, n):
        raise ValueError(f"ensemble record: L of shape {L.shape} does not match "
                         f"its factor's {(n, n)}")
    gaps, tops = [], []
    # an entry past float64 makes the max inf or NaN, refused by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, rows in _factor_rows(B, 0.5 * (C + C.T)):
            tops += [rows.max(), -rows.min()]
            rows -= L.T[lo:lo + rows.shape[0]]
            gaps.append(np.abs(rows, out=rows).max())
    gap, scale = float(np.max(gaps, initial=0.0)), float(np.max(tops, initial=0.0))
    if math.isfinite(scale) and not gap <= 1e-10 * scale:
        raise ValueError(f"ensemble record: L does not match its factor B C B^T "
                         f"(max difference {gap:.3e}, max |L| {scale:.3e})")
    return scale
