"""Symmetries of the problem: maps of the ground set that leave every law alone.

Each case builds a flat limit on 9 points in [0, 1]^2 (seed 4), maps the
cloud, builds the same limit again and compares the two laws through the
enumeration oracle by total variation. The 11 limits cover every regime:
the isotropic kernels see only distances, and a linear map of the plane maps
each space of polynomials of degree < k onto itself, so permuting, rotating
and reflecting the points changes no law. Scaling the cloud leaves the
fixed-size laws alone: it scales L by a constant and V by an invertible
diagonal map, and a fixed-size law does not see either. Bordered minors
bring each column of V to L's scale, so up to 10^6 their floats do not see
it either. Scaling the kernel's Taylor series scales L (or the Wronskian
factor) by a constant too, and leaves the regime alone because the
smoothness order is judged relative to the series.
Translation and scales past 10^6 in the polynomial regimes need a centred,
scaled monomial frame, which the library does not build yet.
Scaling L itself, by a large alpha or by hand, decides as at scale 1 up to
1e300, where the squares in ||N^T L N||_F overflow float64.
On the line, the pre-limit laws of the exponential kernel, which "auto" reads
in closed form from the sorted gaps, see only those gaps: translating and
reflecting the line leave them alone, and so does scaling the points with eps
scaled inversely, which leaves every eps h as it was.
"""

import math
import warnings

import numpy as np
import pytest

from flatdpp.cli import main
from flatdpp.diagnostics import brute_force_distribution, eps_ensemble_distribution, tv_distance
from flatdpp.ensembles import SubsetDistribution, make_nnp, size_distribution
from flatdpp.flatlimit import fixed_size_limit, varying_size_limit
from flatdpp.geometry import PointSet, distance_power_matrix, uniform_points
from flatdpp.kernels import BUILTIN_NAMES, builtin_kernel, custom_kernel

#: (kernel, fixed size m) and (kernel, varying exponent p)
FIXED = [("gaussian", 3), ("gaussian", 4), ("gaussian", 5), ("gaussian", 6),
         ("exponential", 5), ("(1+d)exp(-d)", 5), ("(3+3d+d^2)exp(-d)", 7)]
VARYING = [("exponential", 1), ("gaussian", 2), ("gaussian", 3), ("(1+d)exp(-d)", 3)]
LIMITS = [(k, "m", m) for k, m in FIXED] + [(k, "p", p) for k, p in VARYING]
IDS = [f"{k}-{kind}{v}" for k, kind, v in LIMITS]

COORDS = np.random.default_rng(4).uniform(size=(9, 2))
#: the bound on the TV distance between the laws (they read <= 2.1e-14)
TV = 1e-10


def law(coords, kernel, kind, value, factor=1.0) -> SubsetDistribution:
    """The limit's law for the builtin kernel with its series times factor."""
    ps, kern = PointSet(coords), builtin_kernel(kernel)
    if factor != 1.0:
        kern = custom_kernel(factor * kern.taylor)
    if kind == "m":
        return brute_force_distribution(fixed_size_limit(ps, kern, value).process, value)
    return brute_force_distribution(varying_size_limit(ps, kern, value).process)


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@pytest.mark.parametrize("kernel,kind,value", LIMITS, ids=IDS)
def test_permuting_the_points(kernel, kind, value):
    perm = np.random.default_rng(40).permutation(9)
    before, after = law(COORDS, kernel, kind, value), law(COORDS[perm], kernel, kind, value)
    # point j of the cloud is point where[j] of the permuted one
    where = np.argsort(perm)
    masks = [sum(1 << int(where[j]) for j in range(9) if mask >> j & 1)
             for mask in before.masks.tolist()]
    assert tv_distance(SubsetDistribution(9, masks, before.values), after) <= TV


@pytest.mark.parametrize("kernel,kind,value", LIMITS, ids=IDS)
@pytest.mark.parametrize("linear", [rotation(0.7), np.diag([-1.0, 1.0])],
                         ids=["rotation-0.7", "reflection"])
def test_rotating_and_reflecting_the_points(kernel, kind, value, linear):
    before, after = law(COORDS, kernel, kind, value), law(COORDS @ linear.T, kernel, kind, value)
    assert tv_distance(before, after) <= TV


@pytest.mark.parametrize("kernel,kind,value", [c for c in LIMITS if c[1] == "m"],
                         ids=[i for i, c in zip(IDS, LIMITS) if c[1] == "m"])
@pytest.mark.parametrize("scale", [1e-2, 1e2, 1e6])
def test_scaling_the_points_leaves_fixed_size_laws(kernel, kind, value, scale):
    before, after = law(COORDS, kernel, kind, value), law(scale * COORDS, kernel, kind, value)
    assert tv_distance(before, after) <= TV


@pytest.mark.parametrize("factor", [1e-15, 1e15])
@pytest.mark.parametrize("kernel", BUILTIN_NAMES)
def test_scaling_the_kernel_keeps_its_smoothness(kernel, factor):
    expected = builtin_kernel(kernel).smoothness
    assert custom_kernel(factor * builtin_kernel(kernel).taylor).smoothness == expected


@pytest.mark.parametrize("kernel,kind,value", [c for c in LIMITS if c[1] == "m"],
                         ids=[i for i, c in zip(IDS, LIMITS) if c[1] == "m"])
@pytest.mark.parametrize("factor", [1e-15, 1e15])
def test_scaling_the_kernel_leaves_fixed_size_laws(kernel, kind, value, factor):
    before, after = law(COORDS, kernel, kind, value), law(COORDS, kernel, kind, value, factor)
    assert tv_distance(before, after) <= TV


#: The exponential kernel's pre-limit laws on 8 points of the line: inverse
#: scales, and a fixed size m or a varying exponent p.
LINE = np.random.default_rng(4).uniform(size=8)
LINE_EPS = [1.5, 0.1, 1e-3]
LINE_LAWS = [("m", 3), ("m", 5), ("p", 0), ("p", 1)]


def line_law(x, eps, kind, value) -> SubsetDistribution:
    return eps_ensemble_distribution(PointSet(x), builtin_kernel("exponential"), eps,
                                     **{kind: value})


@pytest.mark.parametrize("kind,value", LINE_LAWS, ids=[f"{k}{v}" for k, v in LINE_LAWS])
@pytest.mark.parametrize("eps", LINE_EPS)
@pytest.mark.parametrize("sign,shift", [(1, 1.0), (1, 10.0), (1, 1e3), (-1, 0.0)],
                         ids=["translation-1", "translation-10", "translation-1e3",
                              "reflection"])
def test_translating_and_reflecting_the_line_leave_exponential_laws(kind, value, eps, sign,
                                                                    shift):
    moved = sign * LINE + shift
    assert tv_distance(line_law(LINE, eps, kind, value), line_law(moved, eps, kind, value)) <= TV


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("eps", LINE_EPS)
@pytest.mark.parametrize("power", [-20, 20])
def test_scaling_the_line_and_eps_inversely_leaves_exponential_fixed_size_laws(m, eps, power):
    scale = 2.0 ** power
    before, after = line_law(LINE, eps, "m", m), line_law(scale * LINE, eps / scale, "m", m)
    assert tv_distance(before, after) <= 1e-12


@pytest.mark.parametrize("scale", [1e-30, 1e-12, 1e12, 1e30])
def test_distinct_points_stay_distinct_at_any_scale(scale):
    # distinctness is judged relative to the cloud, so the exponential law
    # (V = ones, no monomial to lose digits) holds from 1e-30 to 1e30
    before = law(COORDS, "exponential", "m", 5)
    assert tv_distance(before, law(scale * COORDS, "exponential", "m", 5)) <= TV


#: 300 uniform points in [0, 1]^2 (seed 1): past alpha of about 1e154 the
#: squares in ||N^T L N||_F overflow, which once made beta infinite and q = 0
CLOUD_300 = uniform_points(300, 2, seed=1)


@pytest.mark.parametrize("kernel,p", [("exponential", 1), ("gaussian", 2)])
def test_varying_limits_keep_their_spectrum_up_to_alpha_1e300(kernel, p):
    kern = builtin_kernel(kernel)
    q = varying_size_limit(CLOUD_300, kern, p).process.q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e150, 1e160, 1e200, 1e300):
            e = varying_size_limit(CLOUD_300, kern, p, alpha).process
            # every eigenvalue is huge: the size law's mode is p + q
            assert e.q == q and np.argmax(size_distribution(e)) == e.p + q


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_a_dense_pair_scaled_past_1e154_decides_as_at_scale_1(scale):
    D = distance_power_matrix(CLOUD_300, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        e = make_nnp(-scale * D, np.ones(300))
    assert e.q == make_nnp(-D, np.ones(300)).q == 299


@pytest.mark.parametrize("spectrum", [None, "values"])
def test_a_dense_pair_past_the_float64_range_is_refused_by_name(spectrum):
    # max |L| is 1.3e307 at 1e307, and N^T L N overflows; at 1e306 it does not
    D = distance_power_matrix(CLOUD_300, 1)
    assert make_nnp(-1e306 * D, np.ones(300), spectrum=spectrum).q == 299
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="past the float64 range"):
            make_nnp(-1e307 * D, np.ones(300), spectrum=spectrum)


def test_limit_of_a_permuted_csv_has_the_same_size_law(tmp_path):
    perm = np.random.default_rng(41).permutation(9)
    laws = []
    for name, coords in (("points", COORDS), ("permuted", COORDS[perm])):
        csv, lim, size = (tmp_path / f"{name}.{ext}" for ext in ("csv", "json", "size.csv"))
        np.savetxt(csv, coords, delimiter=",", fmt="%.17g")
        assert main(["limit", "--points", str(csv), "--kernel", "exponential", "--vary",
                     "--p", "1", "--out", str(lim)]) == 0
        assert main(["size-dist", "--ensemble", str(lim), "--out", str(size)]) == 0
        laws.append(np.loadtxt(size, delimiter=",", skiprows=1)[:, 1])
    assert laws[0].size == 10 and laws[0].sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(laws[1], laws[0], rtol=0, atol=1e-12)
