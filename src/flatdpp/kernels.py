"""Stationary kernels f(||x - y||): catalog, Taylor data and matrix assembly.

A kernel is represented by its radial profile f together with the truncated
Taylor coefficients f_j = f^(j)(0)/j!. The smoothness order r is the index of
the first nonvanishing odd coefficient; it alone decides which flat-limit
regime a kernel falls into, while the even coefficients feed the Wronskian
matrices of non-universal limits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

from .geometry import PointSet, distance_matrix

#: Default truncation order for builtin Taylor expansions.
DEFAULT_TRUNCATION = 16

#: Odd coefficients below this times the largest |f_j| are treated as exact
#: zeros, so the smoothness order does not change when the series is scaled.
ODD_COEFF_TOL = 1e-14

INFINITE = math.inf


def smoothness_order(taylor: Sequence[float]) -> float:
    """Smallest r >= 1 with |f_{2r-1}| > ODD_COEFF_TOL * max_j |f_j|, or
    math.inf if none represented.

    A kernel whose represented odd coefficients all vanish is completely
    smooth as far as its truncation can tell.
    """
    taylor = np.asarray(taylor, dtype=float)
    if taylor.size == 0:
        raise ValueError("empty coefficient vector")
    if not np.all(np.isfinite(taylor)):
        raise ValueError(f"Taylor coefficients must be finite, not {taylor.tolist()}")
    tol = ODD_COEFF_TOL * np.abs(taylor).max()
    for r in range(1, taylor.size // 2 + 1):
        if abs(taylor[2 * r - 1]) > tol:
            return r
    return INFINITE


class StationaryKernel:
    """Radial kernel profile with cached Taylor coefficients.

    Immutable after construction. `evaluator` maps nonnegative float arrays
    to f(delta); `mp_evaluator`, when present, evaluates f at mpmath working
    precision (needed by the arbitrary-precision enumeration oracles, where
    float64 entries would cap determinant accuracy).
    """

    def __init__(self, taylor, evaluator=None, mp_evaluator=None, name="custom"):
        taylor = np.asarray(taylor, dtype=float)
        if taylor.size == 0:
            raise ValueError("kernel needs at least the constant coefficient f_0")
        self.taylor = taylor.copy()
        self.taylor.setflags(write=False)
        self.smoothness = smoothness_order(taylor)
        self.name = name
        self._evaluator = evaluator
        self.mp_evaluator = mp_evaluator

    def __call__(self, delta):
        """Evaluate f at delta >= 0 (scalar or array)."""
        if self._evaluator is not None:
            return self._evaluator(np.asarray(delta, dtype=float))
        return self._series(np.asarray(delta, dtype=float))

    def _series(self, delta):
        out = np.zeros_like(delta, dtype=float)
        for c in self.taylor[::-1]:
            out = out * delta + c
        return out

    def coeff(self, j: int) -> float:
        """Taylor coefficient f_j; raises if the truncation is too short."""
        if j >= self.taylor.size:
            raise ValueError(
                f"kernel '{self.name}' carries coefficients up to order "
                f"{self.taylor.size - 1}, order {j} requested"
            )
        return float(self.taylor[j])

    def eval_mp(self, delta):
        """Evaluate f at an mpmath scalar, at working precision when possible."""
        if self.mp_evaluator is not None:
            return self.mp_evaluator(delta)
        # Horner on the truncated series; accuracy capped by the float64
        # coefficients, adequate away from the deep flat regime.
        acc = mp.mpf(0)
        for c in self.taylor[::-1]:
            acc = acc * delta + mp.mpf(float(c))
        return acc

    def __repr__(self) -> str:
        return f"StationaryKernel({self.name!r}, r={self.smoothness})"


def _check_eps(eps: float) -> None:
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be a finite positive number, not {eps!r}")


def kernel_matrix(kernel: StationaryKernel, ps: PointSet, eps: float) -> np.ndarray:
    """Kernel matrix [f(eps * ||x_i - x_j||)]; diagonal equals f(0)."""
    _check_eps(eps)
    return np.asarray(kernel(eps * distance_matrix(ps)), dtype=float)


# ---------------------------------------------------------------------------
# Builtin catalog. Taylor products are carried out in exact rationals, so the
# declared smoothness orders are structural, not numerical accidents.
# ---------------------------------------------------------------------------


def _exp_series(n: int) -> list[Fraction]:
    """Coefficients of exp(-x) up to order n."""
    return [Fraction((-1) ** j, math.factorial(j)) for j in range(n + 1)]


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def _gaussian_series(n: int) -> list[float]:
    return [float(Fraction((-1) ** (j // 2), math.factorial(j // 2))) if j % 2 == 0 else 0.0
            for j in range(n + 1)]


def _poly_exp_series(poly: Sequence[int]):
    """Series builder of poly(x) exp(-x), poly given by its coefficients."""
    return lambda n: [float(c) for c in _convolve([Fraction(c) for c in poly],
                                                   _exp_series(n), n)]


def _sin_exp_series(n: int) -> list[float]:
    """sin(x + pi/4) exp(-x) = (sqrt(2)/2) (sin x + cos x) exp(-x)."""
    # cycle of signs for sin + cos: 1, 1, -1/2!, -1/3!, 1/4!, 1/5!, ...
    sincos = [Fraction(-1 if j % 4 in (2, 3) else 1, math.factorial(j)) for j in range(n + 1)]
    return [math.sqrt(2.0) / 2.0 * float(c) for c in _convolve(sincos, _exp_series(n), n)]


#: Catalog: name -> (series builder of the truncation order, numpy profile,
#: mpmath profile). Only the requested kernel's series is built.
_CATALOG = {
    "gaussian": (_gaussian_series,
                 lambda x: np.exp(-(x**2)), lambda x: mp.exp(-(x**2))),
    "exponential": (_poly_exp_series([1]),
                    lambda x: np.exp(-x), lambda x: mp.exp(-x)),
    "(1+d)exp(-d)": (_poly_exp_series([1, 1]),
                     lambda x: (1.0 + x) * np.exp(-x), lambda x: (1 + x) * mp.exp(-x)),
    "sin(d+pi/4)exp(-d)": (_sin_exp_series,
                           lambda x: np.sin(x + np.pi / 4) * np.exp(-x),
                           lambda x: mp.sin(x + mp.pi / 4) * mp.exp(-x)),
    "(3+3d+d^2)exp(-d)": (_poly_exp_series([3, 3, 1]),
                          lambda x: (3.0 + 3.0 * x + x**2) * np.exp(-x),
                          lambda x: (3 + 3 * x + x**2) * mp.exp(-x)),
}


_ALIASES = {
    "gaussian": "gaussian",
    "squared-exponential": "gaussian",
    "rbf": "gaussian",
    "exponential": "exponential",
    "laplace": "exponential",
    "(1+d)exp(-d)": "(1+d)exp(-d)",
    "(1+d)e^-d": "(1+d)exp(-d)",
    "matern32": "(1+d)exp(-d)",
    "sin(d+pi/4)exp(-d)": "sin(d+pi/4)exp(-d)",
    "sin(d+pi/4)e^-d": "sin(d+pi/4)exp(-d)",
    "sinexp": "sin(d+pi/4)exp(-d)",
    "(3+3d+d^2)exp(-d)": "(3+3d+d^2)exp(-d)",
    "(3+3d+d^2)e^-d": "(3+3d+d^2)exp(-d)",
    "matern52": "(3+3d+d^2)exp(-d)",
}

#: Declared smoothness orders of the catalog, checked against the series.
BUILTIN_SMOOTHNESS = {
    "gaussian": INFINITE,
    "exponential": 1,
    "(1+d)exp(-d)": 2,
    "sin(d+pi/4)exp(-d)": 2,
    "(3+3d+d^2)exp(-d)": 3,
}

BUILTIN_NAMES = tuple(BUILTIN_SMOOTHNESS)


def _normalize_name(name: str) -> str:
    s = name.strip().lower()
    # unicode spellings used in figure captions
    for src, dst in (
        ("δ", "d"),  # delta
        ("²", "^2"),
        ("−", "-"),
        ("π", "pi"),
        ("e^{-d}", "exp(-d)"),
        ("e^{−d}", "exp(-d)"),
        (" ", ""),
        ("{", ""),
        ("}", ""),
    ):
        s = s.replace(src, dst)
    return s


def _is_builtin_exponential(kernel: StationaryKernel) -> bool:
    """Whether kernel evaluates through the catalog's exp(-delta) profile,
    as every :func:`builtin_kernel` exponential does and no kernel a caller
    builds (whatever its name) can."""
    return kernel._evaluator is _CATALOG["exponential"][1]


def builtin_kernel(name: str, truncation: int = DEFAULT_TRUNCATION) -> StationaryKernel:
    """Kernel from the builtin catalog; accepts short and formula-style names."""
    key = _ALIASES.get(_normalize_name(name))
    if key is None:
        raise KeyError(f"unknown kernel name {name!r}; choose from {sorted(set(_ALIASES))}")
    series, ev, mev = _CATALOG[key]
    kernel = StationaryKernel(series(truncation), evaluator=ev, mp_evaluator=mev, name=key)
    assert kernel.smoothness == BUILTIN_SMOOTHNESS[key]
    return kernel


def custom_kernel(coeffs: Sequence[float], evaluator: Callable | None = None,
                  name: str = "custom") -> StationaryKernel:
    """Kernel from explicit Taylor coefficients, optionally with an evaluator."""
    return StationaryKernel(coeffs, evaluator=evaluator, name=name)
