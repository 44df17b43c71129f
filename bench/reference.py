"""The benchmark's own computations, and the checks that compare program output to them.

Nothing here calls flatdpp: every reference is computed from the inputs with
numpy (monomials, distance powers, the Gaussian Wronskian by separability,
bordered determinants, inclusion probabilities), so a check can only pass when
the program agrees with an independent computation or with a property the
method must have. Every check raises :class:`CheckFailed` with a message naming
what differed.
"""

from __future__ import annotations

import base64
import itertools
import math

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagrees with the benchmark's reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Monomials, distances, Wronskians.
# ---------------------------------------------------------------------------


def exponents(d: int, degree: int, exact: bool = False) -> list[tuple[int, ...]]:
    """Multi-indices of total degree <= degree (== degree when exact), any order."""
    out = [a for a in itertools.product(range(degree + 1), repeat=d)
           if (sum(a) == degree if exact else sum(a) <= degree)]
    return sorted(out, key=lambda a: (sum(a), a))


def monomials(coords: np.ndarray, degree: int, exact: bool = False) -> np.ndarray:
    """Columns x^alpha for the multi-indices of `exponents`."""
    coords = np.asarray(coords, dtype=float)
    if degree < 0:
        return np.zeros((coords.shape[0], 0))
    cols = [np.prod(coords ** np.array(a, dtype=float), axis=1)
            for a in exponents(coords.shape[1], degree, exact)]
    return np.column_stack(cols)


def centred(coords: np.ndarray) -> np.ndarray:
    """Coordinates shifted to mean zero; spans of monomials are unchanged."""
    coords = np.asarray(coords, dtype=float)
    return coords - coords.mean(axis=0)


def distance_power(coords: np.ndarray, power: int) -> np.ndarray:
    """Matrix of ||x_i - x_j||^power, from explicit coordinate differences."""
    coords = np.asarray(coords, dtype=float)
    sq = np.zeros((coords.shape[0], coords.shape[0]))
    for j in range(coords.shape[1]):
        diff = coords[:, j, None] - coords[None, :, j]
        sq += diff * diff
    return np.sqrt(sq) ** power


def gaussian_wronskian(d: int, degree: int) -> np.ndarray:
    """Taylor coefficients of exp(-||x - y||^2) on x^a y^b, |a|, |b| <= degree.

    The Gaussian factorises over coordinates, and the univariate coefficient
    of x^a y^b in exp(-(x - y)^2) is (-1)^b C(a+b, a) g_{a+b}, with g_s the
    Taylor coefficient of exp(-t^2).
    """
    def g(s: int) -> float:
        return (-1.0) ** (s // 2) / math.factorial(s // 2) if s % 2 == 0 else 0.0

    idx = exponents(d, degree)
    W = np.empty((len(idx), len(idx)))
    for i, a in enumerate(idx):
        for j, b in enumerate(idx):
            W[i, j] = math.prod((-1.0) ** bj * math.comb(ai + bj, ai) * g(ai + bj)
                                for ai, bj in zip(a, b))
    return W


def gaussian_schur(d: int, k: int) -> np.ndarray:
    """Schur complement of the degree-<k block in the degree-<=k Gaussian Wronskian."""
    W = gaussian_wronskian(d, k)
    lo = len(exponents(d, k - 1)) if k >= 1 else 0
    A, B, C, D = W[:lo, :lo], W[:lo, lo:], W[lo:, :lo], W[lo:, lo:]
    return D - C @ np.linalg.solve(A, B) if lo else D


# ---------------------------------------------------------------------------
# The paper's regime dispatch, and each regime's (L; V).
# ---------------------------------------------------------------------------

SMOOTHNESS = {"gaussian": math.inf, "exponential": 1, "(1+d)exp(-d)": 2,
              "sin(d+pi/4)exp(-d)": 2, "(3+3d+d^2)exp(-d)": 3}

#: First odd Taylor coefficient f_{2r-1} of the finitely smooth builtin kernels.
FIRST_ODD = {"exponential": -1.0}


def npoly(k: int, d: int) -> int:
    return math.comb(k + d, d) if k >= 0 else 0


def fixed_regime(d: int, r: float, m: int) -> tuple[str, int]:
    """(regime, parameter) of the size-m flat limit; magic sizes are C(k+d, d)."""
    k = 0
    while npoly(k, d) < m:
        k += 1
    if k <= r - 1:
        return ("ProjectionSmooth" if npoly(k, d) == m else "NonMagicWronskian"), k
    return "FiniteSmoothness", int(r)


def varying_regime(n: int, d: int, r: float, p: int) -> tuple[str, int]:
    """(regime, parameter) of the varying-size limit under alpha * eps^-p."""
    l = math.ceil(p / 2)
    if npoly(l - 1, d) >= n or r < (p + 1) / 2:
        return "FullSetAlmostSurely", 0
    if r > (p + 1) / 2:
        return ("VaryingProjection" if p % 2 else "VaryingWronskian"), l
    return "VaryingFiniteSmoothness", int(r)


def label(regime: str, param: int) -> str:
    letter = {"ProjectionSmooth": "k", "NonMagicWronskian": "k", "FiniteSmoothness": "r",
              "VaryingProjection": "l", "VaryingWronskian": "l",
              "VaryingFiniteSmoothness": "r"}.get(regime)
    return f"{regime}({letter}={param})" if letter else regime


def limit_pair(coords: np.ndarray, kernel: str, regime: str, param: int,
               alpha: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The benchmark's own (L; V) of a flat limit on the given coordinates.

    L is built on the coordinates as given (the program's formula); V is built
    on centred coordinates, which spans the same space and is better
    conditioned. Only Gaussian Wronskians are supported.
    """
    n, d = coords.shape
    if regime in ("ProjectionSmooth", "VaryingProjection"):
        degree = param if regime == "ProjectionSmooth" else param - 1
        return np.zeros((n, n)), monomials(centred(coords), degree)
    if regime in ("NonMagicWronskian", "VaryingWronskian"):
        require(kernel == "gaussian", f"no reference Wronskian for {kernel}")
        Vk = monomials(coords, param, exact=True)
        scale = alpha if regime == "VaryingWronskian" else 1.0
        L = scale * (Vk @ gaussian_schur(d, param) @ Vk.T)
        return L, monomials(centred(coords), param - 1)
    if regime == "FiniteSmoothness":
        return ((-1.0) ** param * distance_power(coords, 2 * param - 1),
                monomials(centred(coords), param - 1))
    if regime == "VaryingFiniteSmoothness":
        return (alpha * FIRST_ODD[kernel] * distance_power(coords, 2 * param - 1),
                monomials(centred(coords), param - 1))
    raise CheckFailed(f"no reference for regime {regime}")


# ---------------------------------------------------------------------------
# Bordered determinants and small-n laws.
# ---------------------------------------------------------------------------


def log_bordered(L: np.ndarray, V: np.ndarray, X) -> tuple[float, float]:
    """(log |det [[L_X, V_X], [V_X^T, 0]]|, sign times (-1)^p)."""
    X = list(X)
    m, p = len(X), V.shape[1]
    B = np.zeros((m + p, m + p))
    B[:m, :m] = L[np.ix_(X, X)]
    B[:m, m:] = V[X]
    B[m:, :m] = V[X].T
    sign, logabs = np.linalg.slogdet(B)
    return float(logabs), float(sign) * (-1.0) ** p


def mask(X) -> int:
    return sum(1 << int(i) for i in X)


def _normalised(logw: dict[int, float]) -> dict[int, float]:
    top = max(logw.values())
    w = {k: math.exp(v - top) for k, v in logw.items() if v > -math.inf}
    total = sum(w.values())
    return {k: v / total for k, v in w.items()}


def _log_mass(L: np.ndarray, V: np.ndarray, X) -> float:
    logabs, sign = log_bordered(L, V, X)
    return logabs if sign > 0 and math.isfinite(logabs) else -math.inf


def fixed_law(L: np.ndarray, V: np.ndarray, m: int) -> dict[int, float]:
    """Size-m law by enumerating bordered determinants, keyed by bitmask."""
    return _normalised({mask(X): _log_mass(L, V, X)
                        for X in itertools.combinations(range(L.shape[0]), m)})


def varying_law(L: np.ndarray, V: np.ndarray) -> dict[int, float]:
    """Law over all subsets by enumerating bordered determinants."""
    n = L.shape[0]
    return _normalised({mask(X): _log_mass(L, V, X) if X else 0.0
                        for size in range(V.shape[1], n + 1)
                        for X in itertools.combinations(range(n), size)})


def squared_difference_law(x: np.ndarray, m: int) -> dict[int, float]:
    """Smooth-kernel limit in d = 1: P(X) proportional to prod (x_i - x_j)^2."""
    w = {mask(X): math.prod((x[i] - x[j]) ** 2 for i, j in itertools.combinations(X, 2))
         for X in itertools.combinations(range(x.size), m)}
    total = sum(w.values())
    return {k: v / total for k, v in w.items()}


def gap_product_law(x: np.ndarray, m: int) -> dict[int, float]:
    """Exponential-kernel limit in d = 1: P(X) proportional to 2^(m-1) prod of gaps."""
    w = {mask(X): 2.0 ** (m - 1) * float(np.prod(np.diff(np.sort(x[list(X)]))))
         for X in itertools.combinations(range(x.size), m)}
    total = sum(w.values())
    return {k: v / total for k, v in w.items()}


def law_gap(P: dict[int, float], Q: dict[int, float]) -> float:
    """Largest absolute difference of two laws over the union of their supports."""
    return max(abs(P.get(k, 0.0) - Q.get(k, 0.0)) for k in set(P) | set(Q))


def check_law(P: dict[int, float], Q: dict[int, float], tol: float, what: str) -> None:
    gap = law_gap(P, Q)
    require(gap <= tol, f"{what}: laws differ by {gap:.3e} > {tol:g}")


def check_curve(values, what: str, final_tol: float = 2e-2) -> None:
    """A convergence curve must be weakly decreasing and end below final_tol."""
    values = list(values)
    for a, b in zip(values, values[1:]):
        require(b <= a, f"{what}: curve increases from {a:.3e} to {b:.3e}")
    require(values[-1] <= final_tol,
            f"{what}: final distance {values[-1]:.3e} > {final_tol:g}")


# ---------------------------------------------------------------------------
# Samplers: empirical laws and region counts.
# ---------------------------------------------------------------------------

#: Probability with which a correct sampler may fail a statistical check.
FALSE_ALARM = 1e-6


def tv_bound(support: int, draws: int, delta: float = FALSE_ALARM) -> float:
    """Bretagnolle-Huber-Carol: P(sum |p_hat - p| >= t) <= 2^K exp(-N t^2 / 2)."""
    return math.sqrt(2.0 * (support * math.log(2.0) + math.log(1.0 / delta)) / draws)


def check_empirical_law(counts: dict[int, int], law: dict[int, float], what: str) -> float:
    """TV (sum of |differences|) between drawn frequencies and the exact law."""
    draws = sum(counts.values())
    require(draws > 0, f"{what}: no draws")
    outside = [k for k in counts if law.get(k, 0.0) <= 0.0]
    require(not outside, f"{what}: drew {len(outside)} subsets of zero probability")
    tv = sum(abs(counts.get(k, 0) / draws - p) for k, p in law.items())
    bound = tv_bound(sum(1 for p in law.values() if p > 0), draws)
    require(tv <= bound, f"{what}: TV {tv:.4f} over {draws} draws exceeds {bound:.4f}")
    return tv


def count_deviation_bound(var_sum: float, draws: int, delta: float = FALSE_ALARM) -> float:
    """Bernstein bound on |mean count - expected count| over independent draws.

    Points of one draw are negatively associated (DPPs and their fixed-size
    parts are), so the per-draw count has variance at most var_sum and the
    Chernoff-Bernstein inequality of independent indicators applies.
    """
    c = math.log(2.0 / delta)
    total_var = draws * var_sum
    t = c / 3.0 + math.sqrt((c / 3.0) ** 2 + 2.0 * total_var * c)
    return t / draws


def check_region_mean(mean_count: float, incl: np.ndarray, region: np.ndarray,
                      draws: int, what: str) -> None:
    expect = float(incl[region].sum())
    var_sum = float(np.sum(incl[region] * (1.0 - incl[region])))
    bound = count_deviation_bound(var_sum, draws)
    require(abs(mean_count - expect) <= bound,
            f"{what}: mean count {mean_count:.3f} vs expected {expect:.3f} "
            f"(allowed {bound:.3f} over {draws} draws)")


def log_esp_prefix(lam: np.ndarray, k: int) -> np.ndarray:
    """T[j, a] = log e_a(lam_0 .. lam_{j-1}) for j <= len(lam), a <= k."""
    T = np.full((lam.size + 1, k + 1), -math.inf)
    T[:, 0] = 0.0
    loglam = np.log(lam)
    for j in range(1, lam.size + 1):
        T[j, 1:] = np.logaddexp(T[j - 1, 1:], loglam[j - 1] + T[j - 1, :-1])
    return T


def complement_spectrum(L: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q, lam, U): basis of span(V); positive spectrum of L on its complement.

    With [Q | N] a full orthogonal basis from the QR of V, the nonzero
    eigenpairs of N^T L N give U = N W, orthogonal to Q by construction.
    """
    full, _ = np.linalg.qr(V, mode="complete")
    p = V.shape[1]
    Q, N = full[:, :p], full[:, p:]
    w, W = np.linalg.eigh(N.T @ L @ N)
    keep = w > 1e-12 * max(abs(w).max(), 1.0)
    return Q, w[keep], N @ W[:, keep]


def inclusion_projection(V: np.ndarray) -> np.ndarray:
    """P(i in X) = ||Q_i||^2 for the projection DPP on span(V)."""
    Q, _ = np.linalg.qr(V)
    return np.sum(Q * Q, axis=1)


def inclusion_varying(Q: np.ndarray, lam: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Diagonal of the marginal kernel Q Q^T + U diag(lam / (1 + lam)) U^T."""
    return np.sum(Q * Q, axis=1) + (U * U) @ (lam / (1.0 + lam))


def inclusion_fixed(Q: np.ndarray, lam: np.ndarray, U: np.ndarray, m: int) -> np.ndarray:
    """P(i in X) under the size-m law: Q_i^2 plus eigenvector selection odds.

    Eigenvector j is selected with probability lam_j e_{k-1}(lam without j) /
    e_k(lam), k = m - p; the leave-one-out polynomials come from log-space
    prefix and suffix tables.
    """
    k = m - Q.shape[1]
    pi = np.zeros(lam.size)
    if k > 0:
        pre = log_esp_prefix(lam, k)
        suf = log_esp_prefix(lam[::-1], k)[::-1]
        log_total = pre[-1, k]
        loglam = np.log(lam)
        for j in range(lam.size):
            terms = pre[j, :k] + suf[j + 1, k - 1::-1]
            pi[j] = math.exp(loglam[j] + float(np.logaddexp.reduce(terms)) - log_total)
    return np.sum(Q * Q, axis=1) + (U * U) @ pi


def check_draw(X, n: int, size_range: tuple[int, int], what: str) -> list[int]:
    X = [int(i) for i in X]
    lo, hi = size_range
    require(lo <= len(X) <= hi, f"{what}: draw of size {len(X)} outside [{lo}, {hi}]")
    require(len(set(X)) == len(X), f"{what}: repeated index in {X}")
    require(all(0 <= i < n for i in X), f"{what}: index out of range in {X}")
    return X


def check_positive_mass(L: np.ndarray, V: np.ndarray, X, what: str) -> None:
    logabs, sign = log_bordered(L, V, X)
    require(sign > 0 and math.isfinite(logabs),
            f"{what}: drawn subset has bordered determinant of sign {sign:g}")


# ---------------------------------------------------------------------------
# Ensemble JSON written by `flatdpp limit`, and `size-dist` CSV.
# ---------------------------------------------------------------------------


def decode_block(obj: dict) -> np.ndarray:
    """float64, column-major, base64: the documented ensemble encoding."""
    shape = tuple(int(s) for s in obj["shape"])
    raw = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8")
    require(raw.size == math.prod(shape), f"block of shape {shape} holds {raw.size} values")
    return raw.reshape(shape, order="F")


def span_gap(A: np.ndarray, B: np.ndarray) -> float:
    """Sine of the largest principal angle between span(A) and span(B)."""
    if A.shape[1] != B.shape[1]:
        return math.inf
    if A.shape[1] == 0:
        return 0.0
    Qa, _ = np.linalg.qr(A)
    Qb, _ = np.linalg.qr(B)
    return float(np.linalg.norm(Qb - Qa @ (Qa.T @ Qb), 2))


def check_limit_payload(payload: dict, coords: np.ndarray, kernel: str,
                        regime: str, param: int, m: int | None,
                        subsets: list[list[int]], what: str) -> None:
    """Check a `flatdpp limit` JSON payload against the benchmark's own (L; V).

    Label by the paper's dispatch; L entrywise; span(V) against own
    monomials; and probabilities of the given subsets (bordered determinant
    over det(V^T V), which is invariant to the basis of span(V)).
    """
    want = label(regime, param)
    require(payload.get("label") == want, f"{what}: label {payload.get('label')!r}, expected {want!r}")
    require(payload.get("fixed_size") == m or m is None,
            f"{what}: fixed size {payload.get('fixed_size')} != {m}")
    L = decode_block(payload["nnp"]["L"])
    V = decode_block(payload["nnp"]["V"])
    L_ref, V_ref = limit_pair(coords, kernel, regime, param)
    require(L.shape == L_ref.shape, f"{what}: L has shape {L.shape}, expected {L_ref.shape}")
    scale = float(np.abs(L_ref).max())
    err = float(np.abs(L - L_ref).max())
    require(err <= 1e-10 * scale if scale else err == 0.0,
            f"{what}: L differs from the reference by {err:.3e} (scale {scale:.3e})")
    gap = span_gap(V, V_ref)
    require(gap <= 1e-10, f"{what}: span(V) differs from own monomials (gap {gap:.3e}, "
                          f"{V.shape[1]} vs {V_ref.shape[1]} columns)")
    if subsets:
        check_subset_laws(L, V, L_ref, V_ref, subsets, 1e-8, what)


def subset_log_probs(L: np.ndarray, V: np.ndarray, subsets) -> np.ndarray:
    """log of bordered det / det(V^T V) per subset; nan where the mass is not positive.

    With V = QR the ratio equals the bordered determinant of (L; Q), which
    avoids forming V^T V when V is badly conditioned.
    """
    Q = np.linalg.qr(V)[0] if V.shape[1] else V
    out = []
    for X in subsets:
        logabs, sign = log_bordered(L, Q, X)
        out.append(logabs if sign > 0 else math.nan)
    return np.array(out)


def check_subset_laws(L, V, L_ref, V_ref, subsets, tol: float, what: str) -> None:
    got = subset_log_probs(L, V, subsets)
    ref = subset_log_probs(L_ref, V_ref, subsets)
    require(np.all(np.isfinite(ref)), f"{what}: reference gives a subset zero mass")
    require(np.all(np.isfinite(got)), f"{what}: a subset of positive mass has none")
    rel = float(np.max(np.abs(np.expm1(got - ref))))
    require(rel <= tol, f"{what}: subset probabilities differ by {rel:.3e} relative > {tol:g}")


def read_size_dist(path) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().split()
    require(lines[0] == "m,probability", f"size-dist header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    require(all(int(r[0]) == i for i, r in enumerate(rows)), "size-dist rows out of order")
    return np.array([float(r[1]) for r in rows])


def check_size_dist(pmf: np.ndarray, n: int, p: int, m: int | None, what: str) -> None:
    """Sums to one, support [p, p + q] with q <= n - p, and contains m."""
    require(pmf.size == n + 1, f"{what}: {pmf.size} rows for n = {n}")
    require(bool(np.all(pmf >= 0.0)), f"{what}: negative or NaN probability")
    total = float(pmf.sum())
    require(abs(total - 1.0) <= 1e-8, f"{what}: probabilities sum to {total!r}")
    require(not np.any(pmf[:p]), f"{what}: mass below the projective rank p = {p}")
    top = int(np.flatnonzero(pmf).max())
    if m is not None:
        require(p <= m <= top, f"{what}: fixed size {m} outside the support [{p}, {top}]")
