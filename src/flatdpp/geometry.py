"""Ground sets of distinct points and matrices of powered pairwise distances."""

from __future__ import annotations

import weakref

import numpy as np

def coincidence_radius(*clouds: np.ndarray) -> float:
    """Distance at or below which two points of the clouds are coincident:
    4096 eps times their largest |coordinate| (9.1e-13 at unit scale), so
    distinct points stay distinct under any scaling."""
    return 4096 * np.finfo(float).eps * max(float(np.max(np.abs(c), initial=0.0)) for c in clouds)


class PointSet:
    """An ordered set of n pairwise-distinct points in R^d.

    Coordinates are stored as an immutable (n, d) float64 array. Every
    determinant formula downstream assumes distinct points, so coincident
    points are rejected at construction time. ``_unit_pairs`` holds, by the
    power beta, the validated distance pairs that
    :func:`flatdpp.flatlimit.default_ensemble` builds on these points, each
    only while something else holds it.
    """

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.ndim == 1:
            coords = coords[:, None]
        if coords.ndim != 2:
            raise ValueError("coords must be an (n, d) array")
        n, d = coords.shape
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 points in dimension d >= 1")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coordinates must be finite")
        self.coords = coords.copy()
        self.coords.setflags(write=False)
        self.n = n
        self.d = d
        self._unit_pairs = weakref.WeakValueDictionary()
        if n > 1:
            # a squared distance past float64 is inf: those points are distinct
            with np.errstate(over="ignore"):
                dmin = float(np.sqrt(_min_sq_dist(self.coords)))
            if dmin <= coincidence_radius(self.coords):
                raise ValueError(
                    f"points are not pairwise distinct (min distance {dmin:.3e})"
                )

    @classmethod
    def from_csv(cls, path) -> "PointSet":
        """Read one point per row, d numeric columns, no header."""
        coords = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
        return cls(coords)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, d={self.d})"


def uniform_points(n: int, d: int, seed: int) -> PointSet:
    """n points drawn uniformly in the unit box [0, 1]^d, seeded."""
    rng = np.random.default_rng(seed)
    return PointSet(rng.uniform(size=(n, d)))


def grid_points(n: int, d: int) -> PointSet:
    """Regular grid in [0, 1]^d with at least n points (n rounded up per axis)."""
    per_axis = int(np.ceil(n ** (1.0 / d)))
    axes = [np.linspace(0.0, 1.0, per_axis) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=1)[:n]
    return PointSet(coords)


#: Rows per block of PointSet's distinctness sweep, and columns per piece of
#: a sweep block's partners: the sweep's temporaries are two arrays of at
#: most this many rows by columns.
_BLOCK_ROWS = 128
_BLOCK_COLS = 1024
#: Rows per block of :func:`_sq_dists`: for 2000 points in the plane, 32
#: rows timed 18.5 ms a matrix, 128 rows 21.1 ms (2 vCPUs, numpy 2.4).
_SQ_BLOCK_ROWS = 32


def _sq_dists(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared distances from each of rows to each of cols, accumulated one
    coordinate at a time: rows of shape (..., a, d) and cols of shape
    (..., b, d), with one leading shape, give an array of shape (..., a, b).

    Each term (x_ik - x_jk)^2 is symmetric in (i, j) and the terms are added
    in the same order for both, so _sq_dists(x, x) is exactly symmetric with
    a zero diagonal, and every pair gets the same value whichever rows and
    columns it is computed among. Each coordinate is first copied to a
    contiguous array of shape (..., a) or (..., b), so the terms read no
    strided column. Blocks of _SQ_BLOCK_ROWS rows are accumulated straight
    into the result, with one scratch array of a block's size for the next
    coordinate's terms, so the result is the only large array.
    """
    a = rows.shape[-2]
    out = np.empty(rows.shape[:-1] + cols.shape[-2:-1])
    scratch = np.empty(rows.shape[:-2] + (min(_SQ_BLOCK_ROWS, a), cols.shape[-2]))
    # coordinate k of every row is xs[k], and of every column ys[k]
    xs = np.ascontiguousarray(np.moveaxis(rows, -1, 0))
    ys = xs if cols is rows else np.ascontiguousarray(np.moveaxis(cols, -1, 0))
    for lo in range(0, a, _SQ_BLOCK_ROWS):
        hi = min(lo + _SQ_BLOCK_ROWS, a)
        sq, diff = out[..., lo:hi, :], scratch[..., :hi - lo, :]
        np.subtract(xs[0][..., lo:hi, None], ys[0][..., None, :], out=sq)
        sq *= sq
        for k in range(1, xs.shape[0]):
            np.subtract(xs[k][..., lo:hi, None], ys[k][..., None, :], out=diff)
            diff *= diff
            sq += diff
    return out


def _min_sq_dist(coords: np.ndarray) -> float:
    """Smallest squared distance between two of the n >= 2 points whenever
    its root is at most their :func:`coincidence_radius` r, as PointSet
    checks; otherwise some squared distance whose root is above r.

    The points are sorted by their first coordinate, and each block of
    _BLOCK_ROWS sorted points is compared, in pieces of _BLOCK_COLS columns,
    only with the points from the block's first to the last whose first
    coordinate is within 2 r of the block's last one. Two points at most r
    apart are well within that in their first
    coordinate, so every such pair is compared, and gets the squared distance
    :func:`_sq_dists` gives it among any rows and columns. Points that share
    their first coordinate, as on a vertical line, are compared pair by pair.
    """
    x = coords[np.argsort(coords[:, 0], kind="stable")]
    first = x[:, 0]
    # x[i] is compared with the points before stops[i], and no further one
    # is within 2 r of it in the first coordinate
    stops = np.searchsorted(first, first + 2.0 * coincidence_radius(coords), side="right")
    best = np.inf
    for lo in range(0, x.shape[0], _BLOCK_ROWS):
        rows = x[lo:lo + _BLOCK_ROWS]
        stop = int(stops[lo + rows.shape[0] - 1])
        for col in range(lo, stop, _BLOCK_COLS):
            sq = _sq_dists(rows, x[col:min(col + _BLOCK_COLS, stop)])
            if col == lo:
                # the block's own pairs form the leading square, diagonal included
                np.fill_diagonal(sq, np.inf)
            best = min(best, float(sq.min()))
    return best


def distance_matrix(ps: PointSet) -> np.ndarray:
    """Euclidean distance matrix; each pair computed once, mirrored exactly."""
    return distance_power_matrix(ps, 1)


def distance_power_matrix(ps: PointSet, p: int) -> np.ndarray:
    """Matrix of p-th powers of pairwise Euclidean distances.

    p = 0 returns the all-ones matrix (convention 0^0 = 1). The result is
    symmetric to exact bit equality and has a zero diagonal for p >= 1.
    """
    if p < 0 or p != int(p):
        raise ValueError("power p must be a nonnegative integer")
    p = int(p)
    if p == 0:
        return np.ones((ps.n, ps.n))
    sq = _sq_dists(ps.coords, ps.coords)
    if p % 2 == 0:
        sq **= p // 2
    else:
        np.sqrt(sq, out=sq)
        if p > 1:
            sq **= p
    return sq
