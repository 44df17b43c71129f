import math
import tracemalloc

import numpy as np
import pytest

from flatdpp import geometry
from flatdpp.geometry import (
    PointSet,
    coincidence_radius,
    distance_matrix,
    distance_power_matrix,
    grid_points,
    uniform_points,
)


def test_power_zero_gives_ones():
    ps = PointSet([[0.3, 0.1], [0.9, 0.4], [0.2, 0.8]])
    assert np.array_equal(distance_power_matrix(ps, 0), np.ones((3, 3)))


def test_line_points_power_one_and_three():
    ps = PointSet([0.0, 1.0, 3.0])
    np.testing.assert_array_equal(
        distance_power_matrix(ps, 1), [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    np.testing.assert_array_equal(
        distance_power_matrix(ps, 3), [[0, 1, 27], [1, 0, 8], [27, 8, 0]])


def test_even_powers_are_elementwise_powers_of_squared():
    rng = np.random.default_rng(0)
    ps = PointSet(rng.uniform(size=(7, 3)))
    D2 = distance_power_matrix(ps, 2)
    for p in range(4):
        assert np.array_equal(distance_power_matrix(ps, 2 * p), D2**p)


def test_symmetric_to_bit_equality_and_nonnegative():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        ps = PointSet(rng.standard_normal((9, d)))
        for p in (1, 2, 5):
            D = distance_power_matrix(ps, p)
            assert np.array_equal(D, D.T)
            assert np.all(D >= 0)
            assert np.all(np.diag(D) == 0)


def test_squared_distances_bit_identical_to_pairwise_formula_up_to_d2():
    # the per-pair einsum formula the one-coordinate-at-a-time sum replaced
    rng = np.random.default_rng(2)
    for d in (1, 2):
        coords = rng.uniform(-3.0, 7.0, size=(60, d))
        iu = np.triu_indices(60, k=1)
        diff = coords[iu[0]] - coords[iu[1]]
        sq = np.einsum("ij,ij->i", diff, diff)
        ps = PointSet(coords)
        for p in (1, 2, 3):
            old = np.zeros((60, 60))
            old[iu] = sq ** (p // 2) if p % 2 == 0 else np.sqrt(sq) ** p
            old += old.T
            assert np.array_equal(distance_power_matrix(ps, p), old)


def _unblocked_power(coords, p):
    """The n x n reference: each coordinate's differences squared and summed
    in coordinate order, then the root and the power."""
    if p == 0:
        return np.ones((len(coords), len(coords)))
    sq = sum(np.subtract.outer(coords[:, k], coords[:, k]) ** 2 for k in range(coords.shape[1]))
    return sq ** (p // 2) if p % 2 == 0 else np.sqrt(sq) ** p


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_blocked_powers_bit_identical_to_unblocked(n, d):
    ps = PointSet(np.random.default_rng(10 * n + d).uniform(-2.0, 5.0, size=(n, d)))
    for p in range(6):
        D = distance_power_matrix(ps, p)
        assert D.tobytes() == _unblocked_power(ps.coords, p).tobytes()
        assert np.array_equal(D, D.T)
        assert np.all(np.diagonal(D) == (1.0 if p == 0 else 0.0))


def _strided_sq_dists(rows, cols):
    """The squared distances from a strided broadcast of each coordinate,
    in 128-row blocks: the reference whose bits _sq_dists must give."""
    out = np.empty(rows.shape[:-1] + cols.shape[-2:-1])
    for lo in range(0, rows.shape[-2], 128):
        block = rows[..., lo:lo + 128, :]
        sq = out[..., lo:lo + block.shape[-2], :]
        np.subtract(block[..., :, None, 0], cols[..., None, :, 0], out=sq)
        sq *= sq
        for k in range(1, rows.shape[-1]):
            diff = np.subtract(block[..., :, None, k], cols[..., None, :, k])
            diff *= diff
            sq += diff
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("shape", [(31, 31), (33, 300), (300, 33), (130, 129)])
def test_contiguous_coordinates_give_the_strided_formulas_bits(shape, d):
    a, b = shape
    rng = np.random.default_rng(a + b + d)
    rows, cols = rng.uniform(-2.0, 5.0, size=(a, d)), rng.uniform(-2.0, 5.0, size=(b, d))
    for x, y in ((rows, cols), (rows, rows)):
        assert geometry._sq_dists(x, y).tobytes() == _strided_sq_dists(x, y).tobytes()
    # stacks of (G, m, d) coordinates, as the minors read them
    X, Y = rng.uniform(size=(7, a % 13 + 1, d)), rng.uniform(size=(7, b % 11 + 1, d))
    for x, y in ((X, Y), (X, X)):
        assert geometry._sq_dists(x, y).tobytes() == _strided_sq_dists(x, y).tobytes()
    # a non-contiguous slice of the coordinates, as a record's row block reads them
    assert geometry._sq_dists(rows[1::2], rows).tobytes() == \
        _strided_sq_dists(rows[1::2], rows).tobytes()


def test_distance_powers_make_no_n_by_n_temporary():
    n = 2000
    ps = uniform_points(n, 3, seed=11)
    for p in (1, 2, 3):
        tracemalloc.start()
        try:
            distance_power_matrix(ps, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result and one block of 32 rows (3 n^2 when each coordinate's
        # differences were an n x n array)
        assert peak <= 1.1 * n * n * 8


def test_negative_or_fractional_power_rejected():
    ps = PointSet([0.0, 1.0])
    with pytest.raises(ValueError):
        distance_power_matrix(ps, -1)


def test_coincident_points_rejected():
    with pytest.raises(ValueError, match="distinct"):
        PointSet([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"^points are not pairwise distinct "
                                         r"\(min distance 1\.000e-13\)$"):
        PointSet([0.5, 0.5 + 1e-13])


@pytest.mark.parametrize("scale", [1e-30, 1e-12, 1.0, 1e12, 1e30])
@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
def test_coincidence_is_relative_to_the_cloud(scale, shift):
    # a distinct cloud stays distinct at any scale and shift, and a pair
    # half its coincidence radius apart is refused at each
    coords = scale * (np.random.default_rng(4).uniform(size=(9, 2)) + shift)
    assert PointSet(coords).n == 9
    near = coords.copy()
    near[8] = near[3] + [0.5 * coincidence_radius(coords), 0.0]
    with pytest.raises(ValueError, match=r"^points are not pairwise distinct \(min distance"):
        PointSet(near)


_B = geometry._BLOCK_ROWS


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("pair", [(_B - 1, _B), (5, 2 * _B + 4), (2 * _B + 3, 2 * _B + 4)],
                         ids=["across-a-block-boundary", "first-and-last-block", "last-rows"])
def test_near_coincident_pair_found_in_any_block(d, pair):
    rng = np.random.default_rng(d)
    coords = rng.uniform(size=(2 * _B + 5, d))
    PointSet(coords)
    i, j = pair
    coords[j] = coords[i]
    coords[j, 0] += 0.4 * coincidence_radius(coords)
    iu = np.triu_indices(len(coords), k=1)
    diff = coords[iu[0]] - coords[iu[1]]
    dmin = float(np.sqrt(np.min(np.einsum("ij,ij->i", diff, diff))))
    assert dmin <= coincidence_radius(coords)
    with pytest.raises(ValueError, match=rf"^points are not pairwise distinct "
                                         rf"\(min distance {dmin:.3e}\)$"):
        PointSet(coords)


def _reference_min_distance(coords):
    """The check the sort-and-sweep replaced: every pair, one n x n matrix."""
    sq = geometry._sq_dists(coords, coords)
    np.fill_diagonal(sq, np.inf)
    return float(np.sqrt(sq.min()))


def _grid(n, d):
    return grid_points(n, d).coords.copy()


def _vertical_line(n):
    # every point shares its first coordinate: the sweep compares all pairs,
    # past one piece of _BLOCK_COLS columns
    return np.column_stack([np.full(n, 0.5), np.linspace(0.0, 1.0, n)])


def _sorted_cloud(n, d, seed):
    # already in the sweep's order: rows i and i + 1 are neighbours there
    coords = np.random.default_rng(seed).uniform(size=(n, d))
    return coords[np.argsort(coords[:, 0], kind="stable")]


def _moved(coords, i, j, offset):
    coords = coords.copy()
    coords[j] = coords[i] + offset
    return coords


#: the coincidence radius of a cloud whose largest |coordinate| is 1
_T = coincidence_radius(np.ones(1))
_LINE = geometry._BLOCK_COLS + 3 * _B


@pytest.mark.parametrize("coords", [
    _grid(400, 2), _grid(343, 3), _grid(300, 1),
    _moved(_grid(400, 2), 3, 377, 0.0),
    _moved(_grid(400, 2), _B - 1, _B, [0.0, 0.6 * _T]),
    _moved(_grid(343, 3), 2 * _B - 1, 2 * _B, [0.0, 0.0, 0.9 * _T]),
    _moved(_grid(343, 3), 10, 300, [0.0, 1.5 * _T, 0.0]),
    _vertical_line(_LINE),
    _moved(_vertical_line(_LINE), _B - 1, _B, [0.0, 0.3 * _T]),
    _moved(_vertical_line(_LINE), 5, _LINE - 2, 0.0),
    _moved(_vertical_line(_LINE), _B, _LINE - 1, [0.0, 2 * _T]),
    _moved(np.random.default_rng(4).uniform(size=(3 * _B, 1)), _B - 1, _B, 0.5 * _T),
    _moved(np.random.default_rng(5).uniform(size=(3 * _B, 2)), _B - 1, _B,
           [0.7 * _T, 0.7 * _T]),
    _moved(np.random.default_rng(6).uniform(size=(3 * _B, 3)) + 1e6, 2 * _B, 2 * _B - 1,
           [0.0, 0.0, 0.0]),
    _moved(np.random.default_rng(7).uniform(size=(3 * _B, 3)), 0, 3 * _B - 1,
           [0.5 * _T, -0.5 * _T, 0.5 * _T]),
    _moved(_sorted_cloud(3 * _B, 1, 8), _B - 1, _B, 0.9 * _T),
    _moved(_sorted_cloud(3 * _B, 2, 9), 2 * _B - 1, 2 * _B, [0.7 * _T, 0.7 * _T]),
    _moved(_sorted_cloud(3 * _B, 3, 10), _B - 1, _B, [0.5 * _T, 0.5 * _T, 0.5 * _T]),
], ids=["grid-2d", "grid-3d", "grid-1d", "grid-2d-duplicate", "grid-2d-shared-x",
        "grid-3d-shared-xy", "grid-3d-just-apart", "vertical-line",
        "vertical-line-block-boundary", "vertical-line-pieces-apart",
        "vertical-line-just-apart", "1d-block-boundary", "2d-diagonal-gap",
        "3d-far-from-origin", "3d-first-and-last", "1d-sorted-block-boundary",
        "2d-sorted-block-boundary", "3d-sorted-block-boundary"])
def test_sort_and_sweep_finds_what_every_pair_finds(coords):
    """Same verdict, message and minimum distance as comparing every pair."""
    dmin = _reference_min_distance(coords)
    if dmin > coincidence_radius(coords):
        assert PointSet(coords).n == len(coords)
        assert math.sqrt(geometry._min_sq_dist(coords)) > coincidence_radius(coords)
        return
    assert math.sqrt(geometry._min_sq_dist(coords)) == dmin
    with pytest.raises(ValueError) as err:
        PointSet(coords)
    assert str(err.value) == f"points are not pairwise distinct (min distance {dmin:.3e})"


def test_sweep_compares_only_neighbours_in_the_first_coordinate(monkeypatch):
    """On a uniform cloud each block of sorted rows meets about its own
    columns, not the rest of the set."""
    compared, sq_dists = [], geometry._sq_dists

    def spy(rows, cols):
        compared.append(rows.shape[0] * cols.shape[0])
        return sq_dists(rows, cols)

    monkeypatch.setattr(geometry, "_sq_dists", spy)
    PointSet(np.random.default_rng(8).uniform(size=(2000, 2)))
    assert sum(compared) < 2 * 2000 * _B


def test_shape_validation():
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        PointSet(np.zeros((0, 1)))
    with pytest.raises(ValueError):
        PointSet([[np.nan]])


def test_coords_immutable():
    ps = PointSet([0.0, 1.0])
    with pytest.raises(ValueError):
        ps.coords[0] = 5.0


def test_csv_round_trip(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0.25,0.5\n0.75,0.125\n0.1,0.9\n")
    ps = PointSet.from_csv(path)
    assert (ps.n, ps.d) == (3, 2)
    np.testing.assert_array_equal(ps.coords[1], [0.75, 0.125])


def test_one_dimensional_input_promoted():
    ps = PointSet([0.1, 0.4, 0.9])
    assert (ps.n, ps.d) == (3, 1)


def test_generators():
    ps = uniform_points(10, 2, seed=3)
    assert (ps.n, ps.d) == (10, 2)
    assert np.array_equal(ps.coords, uniform_points(10, 2, seed=3).coords)
    gp = grid_points(9, 2)
    assert (gp.n, gp.d) == (9, 2)


def test_distance_matrix_matches_power_one():
    ps = uniform_points(6, 3, seed=5)
    assert np.array_equal(distance_matrix(ps), distance_power_matrix(ps, 1))
