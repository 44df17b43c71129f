import math
from fractions import Fraction

import numpy as np
import pytest

from flatdpp.geometry import PointSet, distance_power_matrix
from flatdpp.kernels import (
    BUILTIN_NAMES,
    BUILTIN_SMOOTHNESS,
    builtin_kernel,
    custom_kernel,
    kernel_matrix,
    smoothness_order,
)


def test_smoothness_gaussian_is_infinite():
    assert smoothness_order(builtin_kernel("gaussian").taylor) == math.inf


def test_smoothness_exponential_is_one():
    k = builtin_kernel("exponential")
    assert k.taylor[1] == -1.0
    assert smoothness_order(k.taylor) == 1
    np.testing.assert_allclose(
        k.taylor[:5], [1.0, -1.0, 0.5, -1.0 / 6.0, 1.0 / 24.0], rtol=1e-15)


def test_smoothness_matern32_from_exact_series():
    # independent oracle: multiply (1 + x) by the series of exp(-x) in rationals
    expo = [Fraction((-1) ** j, math.factorial(j)) for j in range(8)]
    prod = [expo[j] + (expo[j - 1] if j >= 1 else 0) for j in range(8)]
    assert prod[1] == 0 and prod[3] == Fraction(1, 3)
    k = builtin_kernel("(1+d)exp(-d)")
    np.testing.assert_allclose(k.taylor[:8], [float(c) for c in prod], atol=1e-15)
    assert smoothness_order(k.taylor) == 2


def test_builtin_catalog_smoothness():
    for name in BUILTIN_NAMES:
        k = builtin_kernel(name)
        assert smoothness_order(k.taylor) == BUILTIN_SMOOTHNESS[name]


def _exact_series(name, n):
    """Rational Taylor coefficients c_j, and the factor the kernel multiplies
    them by, from closed forms independent of the catalog's products."""
    fact = math.factorial
    if name == "gaussian":
        return [Fraction((-1) ** (j // 2), fact(j // 2)) if j % 2 == 0 else Fraction(0)
                for j in range(n + 1)], 1.0
    if name == "sin(d+pi/4)exp(-d)":
        # (sin x + cos x) exp(-x) = (Re + Im) exp((i - 1) x), term by term
        coeffs, z = [], complex(1, 0)
        for j in range(n + 1):
            coeffs.append(Fraction(int(z.real + z.imag), fact(j)))
            z *= complex(-1, 1)
        return coeffs, math.sqrt(2.0) / 2.0
    numer = {"exponential": lambda j: 1,
             "(1+d)exp(-d)": lambda j: 1 - j,
             "(3+3d+d^2)exp(-d)": lambda j: (j - 1) * (j - 3)}[name]
    return [Fraction((-1) ** j * numer(j), fact(j)) for j in range(n + 1)], 1.0


@pytest.mark.parametrize("truncation", [16, 24])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_series_equal_exact_rationals(name, truncation):
    coeffs, factor = _exact_series(name, truncation)
    expected = [factor * float(c) for c in coeffs]
    assert builtin_kernel(name, truncation=truncation).taylor.tolist() == expected


def test_figure_caption_names_accepted():
    assert builtin_kernel("(1+δ)e^{−δ}").name == "(1+d)exp(-d)"
    assert builtin_kernel("sin(δ+π/4)e^{−δ}").name == "sin(d+pi/4)exp(-d)"
    assert builtin_kernel("(3+3δ+δ²)e^{−δ}").name == "(3+3d+d^2)exp(-d)"
    assert builtin_kernel("GAUSSIAN").smoothness == math.inf


def test_unknown_name_rejected():
    with pytest.raises(KeyError):
        builtin_kernel("sobolev")


def test_kernel_matrix_exponential_two_points():
    k = builtin_kernel("exponential")
    ps = PointSet([0.0, 1.0])
    expected = [[1.0, math.exp(-1)], [math.exp(-1), 1.0]]
    np.testing.assert_allclose(kernel_matrix(k, ps, 1.0), expected, rtol=1e-15)


def test_kernel_matrix_tiny_eps_approaches_f0():
    ps = PointSet([0.0, 0.4, 1.0])
    for name in BUILTIN_NAMES:
        k = builtin_kernel(name)
        M = kernel_matrix(k, ps, 1e-12)
        np.testing.assert_allclose(M, k.taylor[0] * np.ones((3, 3)), atol=1e-10)


def test_kernel_matrix_gaussian_direct():
    k = builtin_kernel("gaussian")
    ps = PointSet([0.0, 1.0, 2.0])
    D = distance_power_matrix(ps, 2)
    np.testing.assert_allclose(kernel_matrix(k, ps, 0.5), np.exp(-0.25 * D), rtol=1e-15)


def test_kernel_matrix_requires_positive_eps():
    with pytest.raises(ValueError):
        kernel_matrix(builtin_kernel("gaussian"), PointSet([0.0, 1.0]), 0.0)


@pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
def test_kernel_matrix_requires_a_finite_positive_eps(eps):
    with pytest.raises(ValueError, match=f"eps must be a finite positive number, not {eps}"):
        kernel_matrix(builtin_kernel("gaussian"), PointSet([0.0, 1.0]), eps)


def test_matrix_expansion_in_distance_powers():
    # L(eps) = sum_j eps^j f_j D^(j) up to the truncation, within C*(eps*diam)^(J+1)
    rng = np.random.default_rng(4)
    ps = PointSet(rng.uniform(size=(6, 2)))
    diam = distance_power_matrix(ps, 1).max()
    J = 8
    for name in BUILTIN_NAMES:
        k = builtin_kernel(name)
        for eps in (0.05, 0.2):
            acc = np.zeros((6, 6))
            for j in range(J + 1):
                acc += eps**j * k.taylor[j] * distance_power_matrix(ps, j)
            err = np.max(np.abs(kernel_matrix(k, ps, eps) - acc))
            assert err <= 10.0 * (eps * diam) ** (J + 1)


def test_evaluator_consistent_with_series():
    # fitted-constant form of the truncation bound, away from round-off range
    deltas = np.linspace(0.05, 0.1, 40)
    J = 10
    for name in BUILTIN_NAMES:
        k = builtin_kernel(name)
        series = np.zeros_like(deltas)
        for j in range(J, -1, -1):
            series = series * deltas + k.taylor[j]
        ratio = np.abs(k(deltas) - series) / deltas ** (J + 1)
        assert np.max(ratio) < 10.0


def test_custom_kernel_series_evaluation():
    k = custom_kernel([1.0, 0.0, 0.5])
    assert k.smoothness == math.inf
    np.testing.assert_allclose(k(np.array([0.0, 0.2])), [1.0, 1.02], rtol=1e-15)


@pytest.mark.parametrize("coeffs", [[1.0, -1.0, math.nan], [math.inf, -1.0, 0.5]])
def test_custom_kernel_refuses_a_coefficient_that_is_not_finite(coeffs):
    # the smoothness order is judged relative to the largest |f_j|
    with pytest.raises(ValueError, match="Taylor coefficients must be finite"):
        custom_kernel(coeffs)


def test_coefficient_truncation_error():
    k = custom_kernel([1.0, -1.0])
    assert k.coeff(1) == -1.0
    with pytest.raises(ValueError, match="order"):
        k.coeff(5)


def test_mp_evaluator_matches_float():
    from mpmath import mp
    for name in BUILTIN_NAMES:
        k = builtin_kernel(name)
        for x in (0.0, 0.37, 2.5):
            assert abs(float(k.eval_mp(mp.mpf(x))) - float(k(x))) < 1e-14
