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
"""

from __future__ import annotations

import base64
import json
import math
from typing import Iterable, Sequence

import numpy as np

from .polybasis import orthonormal_basis


class RankDeficientError(ValueError):
    """V does not have full column rank."""


class CPDViolationError(ValueError):
    """L is not conditionally positive semi-definite with respect to V."""


def _as_indices(X: Iterable[int], n: int) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in X)), dtype=int)
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise IndexError(f"subset indices out of range for ground size {n}")
    return idx


class NNP:
    """Validated extended L-ensemble with eagerly cached spectral data.

    Attributes
    ----------
    L, V : the defining pair; V has shape (n, p), possibly p = 0.
    Q : orthonormal basis of span(V), shape (n, p).
    lam, U : positive eigenvalues (descending) of N^T L N, where [Q | N] is
        an orthonormal basis of R^n, and their eigenvectors lifted back as
        U = N W; U is column-major and orthogonal to Q by construction.
    q : number of positive eigenvalues; q <= n - p.
    logdet_vtv : log det(V^T V), 0.0 when p = 0.

    Immutable after construction; build through :func:`make_nnp`. The
    fixed-size sampler caches its read-only acceptance tables here, keyed by
    the number of eigenvectors drawn, on first use.
    """

    def __init__(self, L, V, Q, lam, U, logdet_vtv, psd_tol):
        self.L = L
        self.V = V
        self.Q = Q
        self.lam = lam
        self.U = U
        self.logdet_vtv = logdet_vtv
        self.psd_tol = psd_tol
        self.n = L.shape[0]
        self.p = V.shape[1]
        self.q = lam.size
        self._acceptance_tables: dict[int, np.ndarray] = {}
        for arr in (self.L, self.V, self.Q, self.lam, self.U):
            arr.setflags(write=False)

    def __repr__(self) -> str:
        return f"NNP(n={self.n}, p={self.p}, q={self.q})"


def make_nnp(L, V=None, psd_tol: float | None = None) -> NNP:
    """Validate a pair (L; V) and cache its spectral decomposition.

    The law depends on V only through span(V), so the spectrum is that of
    N^T L N, L compressed to the orthogonal complement N of span(V); both
    bases come from one SVD of V (none when V is the identity). Eigenvalues
    inside [-psd_tol, 0] are clipped to zero; anything below -psd_tol raises
    :class:`CPDViolationError`. The default tolerance is
    1e-10 * (1 + max |eigenvalue|). When no eigenvalue exceeds
    n^2 * machine epsilon * max |L| in magnitude, N^T L N is rounding noise
    and the spectrum is empty (q = 0).
    """
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError("L must be square")
    n = L.shape[0]
    scale = np.max(np.abs(L)) if L.size else 0.0
    if scale > 0 and np.max(np.abs(L - L.T)) > 1e-10 * scale:
        raise ValueError("L must be symmetric")
    L = 0.5 * (L + L.T)

    if V is None:
        V = np.zeros((n, 0))
    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    if V.shape[0] != n:
        raise ValueError("V must have n rows")
    p = V.shape[1]
    if p > n:
        raise RankDeficientError(f"V has {p} > n = {n} columns")

    if p == n and np.count_nonzero(V) == n and np.all(np.diagonal(V) == 1.0):
        # V = I, the sure full set: already orthonormal, nothing to factor
        Q, N, logdet_vtv = V, np.zeros((n, 0)), 0.0
    elif p > 0:
        Q, N = orthonormal_basis(V, complement=True)
        if Q.shape[1] < p:
            raise RankDeficientError("V is rank deficient")
        # V = Q (Q^T V), so det(V^T V) = det(Q^T V)^2
        logdet_vtv = 2.0 * float(np.linalg.slogdet(Q.T @ V)[1])
    else:
        Q, N, logdet_vtv = np.zeros((n, 0)), None, 0.0

    if scale == 0.0:
        # every projection regime: nothing to decompose
        w, W = np.zeros(0), np.zeros((n - p, 0))
    else:
        w, W = np.linalg.eigh(L if N is None else N.T @ L @ N)
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    if wmax <= n * n * np.finfo(float).eps * scale:
        # N^T L N is rounding noise of the compression (L lies in the
        # V-combinations), not spectrum
        w, W, wmax = w[:0], W[:, :0], 0.0
    if psd_tol is None:
        psd_tol = 1e-10 * (1.0 + wmax)
    if w.size and w[0] < -psd_tol:
        raise CPDViolationError(
            f"L is not CPD with respect to V: min eigenvalue {w[0]:.3e} "
            f"< -{psd_tol:.3e}"
        )
    w = np.where((w >= -psd_tol) & (w <= 0.0), 0.0, w)
    # eigenvalues below ~1e3 times the eigensolver noise floor are
    # indistinguishable from zero modes
    keep = w > 1e-12 * wmax
    lam = w[keep][::-1].copy()
    W = W[:, keep][:, ::-1]
    # column-major, so the samplers gather chosen eigenvectors contiguously
    U = np.asfortranarray(W) if N is None else np.matmul(N, W, order="F")
    return NNP(L, V, Q, lam, U, logdet_vtv, psd_tol)


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
    """
    K = e.Q @ e.Q.T
    if e.q:
        K = K + (e.U * (e.lam / (1.0 + e.lam))) @ e.U.T
    return K


def from_marginal_kernel(K, unit_tol: float = 1e-8) -> NNP:
    """Recover an extended L-ensemble from a marginal kernel 0 <= K <= I.

    Eigenvalues within unit_tol of 1 become the projective part V; the rest
    are mapped through lambda -> lambda / (1 - lambda).
    """
    K = np.asarray(K, dtype=float)
    K = 0.5 * (K + K.T)
    w, vecs = np.linalg.eigh(K)
    if np.any(w > 1.0 + unit_tol):
        raise ValueError(f"marginal kernel eigenvalue {w.max():.6g} exceeds 1")
    if np.any(w < -unit_tol):
        raise ValueError(f"marginal kernel eigenvalue {w.min():.6g} below 0")
    unit = w >= 1.0 - unit_tol
    V = vecs[:, unit]
    rest = ~unit
    wr = np.clip(w[rest], 0.0, None)
    L = (vecs[:, rest] * (wr / (1.0 - wr))) @ vecs[:, rest].T
    return make_nnp(L, V)


def elementary_symmetric(values: Sequence[float], k: int) -> float:
    """e_k of the values by the dynamic-programming recurrence; e_0 = 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    values = np.asarray(values, dtype=float)
    if k > values.size:
        return 0.0
    row = np.zeros(k + 1)
    row[0] = 1.0
    for v in values:
        row[1:] = row[1:] + v * row[:-1]
    return float(row[k])


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
# Dense distributions over subsets, keyed by bitmask (bit i = ground index i).
# ---------------------------------------------------------------------------


class SubsetDistribution:
    """Probability map over subsets of {0..n-1}, keyed by bitmask."""

    def __init__(self, n: int, probs: dict[int, float]):
        if n > 63:
            raise ValueError("bitmask representation limited to n <= 63")
        self.n = n
        self.probs = probs

    def total(self) -> float:
        return float(sum(self.probs.values()))

    def prob(self, X: Iterable[int]) -> float:
        return self.probs.get(mask_of(X), 0.0)

    def size_marginal(self) -> np.ndarray:
        out = np.zeros(self.n + 1)
        for mask, pr in self.probs.items():
            out[bin(mask).count("1")] += pr
        return out

    def inclusion_vector(self) -> np.ndarray:
        out = np.zeros(self.n)
        for mask, pr in self.probs.items():
            for i in range(self.n):
                if mask >> i & 1:
                    out[i] += pr
        return out

    def conditioned_on_size(self, m: int) -> "SubsetDistribution":
        sub = {mask: pr for mask, pr in self.probs.items()
               if bin(mask).count("1") == m}
        tot = sum(sub.values())
        if tot <= 0.0:
            raise ValueError(f"no mass on subsets of size {m}")
        return SubsetDistribution(self.n, {k: v / tot for k, v in sub.items()})

    @classmethod
    def from_counts(cls, n: int, counts: dict[int, int]) -> "SubsetDistribution":
        tot = sum(counts.values())
        return cls(n, {k: v / tot for k, v in counts.items()})


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


def _encode(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.asfortranarray(arr).tobytes(order="F")).decode(),
    }


def _decode(obj: dict) -> np.ndarray:
    shape = tuple(obj["shape"])
    raw = np.frombuffer(base64.b64decode(obj["data"]), dtype=np.float64)
    return raw.reshape(shape, order="F").copy()


def nnp_to_dict(e: NNP) -> dict:
    return {
        "n": e.n,
        "p": e.p,
        "L": _encode(e.L),
        "V": _encode(e.V),
        "psd_tol": e.psd_tol,
    }


def nnp_from_dict(obj: dict, psd_tol: float | None = None) -> NNP:
    L = _decode(obj["L"])
    V = _decode(obj["V"])
    return make_nnp(L, V, psd_tol=psd_tol if psd_tol is not None
                    else obj.get("psd_tol"))


def nnp_to_json(e: NNP) -> str:
    return json.dumps(nnp_to_dict(e))


def nnp_from_json(text: str) -> NNP:
    return nnp_from_dict(json.loads(text))
