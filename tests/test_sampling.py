import copy
import tracemalloc

import numpy as np
import pytest

from flatdpp.diagnostics import brute_force_distribution, empirical_check, tv_distance
from flatdpp.ensembles import make_nnp, marginal_kernel, size_distribution
from flatdpp.flatlimit import fixed_size_limit
from flatdpp.geometry import uniform_points
from flatdpp.kernels import builtin_kernel
from flatdpp.sampling import (
    _acceptance_table,
    _stack_basis,
    rng_from_seed,
    sample,
    sample_fixed,
    sample_projection,
)


def random_nnp(n, p, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    V = rng.standard_normal((n, p)) if p else None
    return make_nnp(A @ A.T / n, V)


def test_projection_single_basis_vector():
    U = np.eye(4)[:, :1]
    rng = rng_from_seed(0)
    for _ in range(20):
        assert sample_projection(U, rng) == [0]


def test_projection_full_identity():
    rng = rng_from_seed(0)
    assert sample_projection(np.eye(5), rng) == [0, 1, 2, 3, 4]


def test_projection_requires_orthonormal():
    with pytest.raises(ValueError, match="orthonormal"):
        sample_projection(np.ones((3, 2)), rng_from_seed(0))


def test_projection_empirical_law():
    rng0 = np.random.default_rng(2)
    U, _ = np.linalg.qr(rng0.standard_normal((6, 2)))
    exact = brute_force_distribution(make_nnp(np.zeros((6, 6)), U), 2)
    tv, _ = empirical_check(lambda r: sample_projection(U, r), exact, 50000, seed=3)
    assert tv <= 0.05


def schur_chain_rule(U, rng):
    """The projection chain rule on the n x n kernel K = U U^T: each index is
    drawn from the diagonal of K conditioned on the indices already drawn."""
    K = U @ U.T
    selected = []
    for _ in range(U.shape[1]):
        S = selected
        lev = np.diag(K) - np.einsum(
            "ij,ji->i", K[:, S], np.linalg.solve(K[np.ix_(S, S)], K[S, :]))
        lev = np.maximum(lev, 0.0)
        lev[S] = 0.0
        cum = np.cumsum(lev)
        selected.append(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")))
    return sorted(selected)


@pytest.mark.parametrize("n, m", [(8, 4), (60, 12)])
def test_projection_matches_schur_chain_rule(n, m):
    U, _ = np.linalg.qr(np.random.default_rng(n).standard_normal((n, m)))
    rng, ref = rng_from_seed(113), rng_from_seed(113)
    for _ in range(200):
        assert sample_projection(U, rng) == schur_chain_rule(U, ref)


def test_sample_deterministic_given_seed():
    e = random_nnp(6, 2, seed=5)
    runs = [[tuple(sample(e, rng_from_seed(42))) for _ in range(25)] for _ in range(2)]
    assert runs[0] == runs[1]


def test_sample_respects_projective_floor():
    e = random_nnp(6, 2, seed=7)
    rng = rng_from_seed(1)
    sizes = {len(sample(e, rng)) for _ in range(300)}
    assert min(sizes) >= 2
    assert max(sizes) <= 2 + e.q


def test_sample_pure_projective_is_deterministic_support():
    e = make_nnp(np.zeros((4, 4)), np.eye(4)[:, :1])
    rng = rng_from_seed(9)
    for _ in range(10):
        assert sample(e, rng) == [0]


def test_sample_empirical_law():
    e = random_nnp(6, 1, seed=11)
    exact = brute_force_distribution(e)
    tv, size_tv = empirical_check(lambda r: sample(e, r), exact, 40000, seed=13)
    assert tv <= 0.05
    assert size_tv <= 0.05


def test_sample_size_histogram_matches_size_distribution():
    e = random_nnp(7, 1, seed=17)
    rng = rng_from_seed(19)
    counts = np.zeros(8)
    n_draws = 40000
    for _ in range(n_draws):
        counts[len(sample(e, rng))] += 1
    assert tv_distance(counts / n_draws, size_distribution(e)) <= 0.05


def test_sample_fixed_exact_size_and_range_checks():
    e = random_nnp(6, 2, seed=23)
    rng = rng_from_seed(29)
    for m in (2, 3, 5):
        assert len(sample_fixed(e, m, rng)) == m
    with pytest.raises(ValueError, match="support"):
        sample_fixed(e, 1, rng)
    with pytest.raises(ValueError, match="support"):
        sample_fixed(e, 7, rng)


def test_sample_fixed_at_projective_rank_uses_projection_only():
    rng0 = np.random.default_rng(31)
    V = rng0.standard_normal((5, 2))
    e = make_nnp(np.zeros((5, 5)), V)
    exact = brute_force_distribution(e, 2)
    tv, _ = empirical_check(lambda r: sample_fixed(e, 2, r), exact, 40000, seed=37)
    assert tv <= 0.05


def test_sample_fixed_forced_eigenvectors():
    # q = 1 and m = p + 1: the lone eigenvector is always selected
    rng0 = np.random.default_rng(41)
    u = rng0.standard_normal(5)
    e = make_nnp(np.outer(u, u), np.ones((5, 1)))
    assert e.q == 1
    rng = rng_from_seed(43)
    for _ in range(50):
        assert len(sample_fixed(e, 2, rng)) == 2


def test_sample_fixed_empirical_law():
    e = random_nnp(6, 1, seed=47)
    exact = brute_force_distribution(e, 3)
    tv, _ = empirical_check(lambda r: sample_fixed(e, 3, r), exact, 40000, seed=53)
    assert tv <= 0.05


def test_sample_fixed_empirical_law_scan_skips_eigenvectors():
    # q = 7 eigenvectors, k = 2 chosen: each scan passes over rejected ones
    e = random_nnp(8, 1, seed=59)
    assert e.q == 7
    exact = brute_force_distribution(e, 3)
    tv, _ = empirical_check(lambda r: sample_fixed(e, 3, r), exact, 40000, seed=61)
    assert tv <= 0.05


@pytest.mark.parametrize("extra", [0, 3])
def test_sample_fixed_support_ends(extra):
    # m = p takes no eigenvector, m = p + q takes all of them
    rng0 = np.random.default_rng(67)
    B = rng0.standard_normal((6, 3))
    e = make_nnp(B @ B.T, rng0.standard_normal((6, 1)))
    assert (e.p, e.q) == (1, 3)
    exact = brute_force_distribution(e, e.p + extra)
    tv, _ = empirical_check(lambda r: sample_fixed(e, e.p + extra, r), exact, 40000,
                            seed=71 + extra)
    assert tv <= 0.05


def test_sample_fixed_caches_read_only_table():
    e = random_nnp(6, 1, seed=73)
    assert not e._acceptance_tables
    first = sample_fixed(e, 3, rng_from_seed(79))
    table = e._acceptance_tables[2]
    assert not table.flags.writeable
    assert sample_fixed(e, 3, rng_from_seed(79)) == first
    assert e._acceptance_tables[2] is table


def test_projection_memory_is_linear_in_n():
    n, m = 4000, 10
    U, _ = np.linalg.qr(np.random.default_rng(83).standard_normal((n, m)))
    tracemalloc.start()
    try:
        X = sample_projection(U, rng_from_seed(89))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(X)) == m
    assert peak < n * n * 8 / 8


def test_one_eigh_serves_every_draw(decompositions):
    e = random_nnp(12, 2, seed=97)
    # validation is a Cholesky
    assert decompositions == {"eigh": 0, "eigvalsh": 0, "cholesky": 1}
    rng = rng_from_seed(98)
    sample(e, rng)
    assert decompositions == {"eigh": 1, "eigvalsh": 0, "cholesky": 1}
    for _ in range(200):
        sample(e, rng)
        sample_fixed(e, 5, rng)
    marginal_kernel(e)
    assert decompositions == {"eigh": 1, "eigvalsh": 0, "cholesky": 1}
    sample_fixed(random_nnp(12, 2, seed=97), 5, rng)
    assert decompositions == {"eigh": 2, "eigvalsh": 0, "cholesky": 2}


def test_samplers_draw_through_sample_projection(monkeypatch):
    # the samplers look sample_projection up by name, unchecked, so a wrapper
    # put in its place (as a tracer does) sees every draw
    calls = []

    def spy(U, rng, **kwargs):
        calls.append(kwargs)
        return sample_projection(U, rng, **kwargs)

    monkeypatch.setattr("flatdpp.sampling.sample_projection", spy)
    e = random_nnp(6, 2, seed=5)
    rng = rng_from_seed(7)
    sample(e, rng)
    sample_fixed(e, 3, rng)
    assert calls == [{"check": False}] * 2


def checked_sample(e, rng):
    """sample through the public, orthonormality-checked projection sampler."""
    chosen = np.flatnonzero(rng.random(e.q) < e.lam / (1.0 + e.lam))
    return sample_projection(_stack_basis(e, chosen), rng)


def checked_sample_fixed(e, m, rng):
    """sample_fixed through the public, orthonormality-checked projection sampler."""
    k = m - e.p
    chosen = np.empty(k, dtype=int)
    if k > 0:
        A = _acceptance_table(e, k)
        u = rng.random(e.q)
        hi = e.q
        for r in range(k, 0, -1):
            hi = int(np.flatnonzero(u[:hi] < A[r - 1, :hi])[-1])
            chosen[r - 1] = hi
    return sample_projection(_stack_basis(e, chosen), rng)


def _exponential_limit(n, m):
    return fixed_size_limit(uniform_points(n, 2, 101), builtin_kernel("exponential"),
                            m).process


@pytest.mark.parametrize("build, pq, sizes, draws", [
    (lambda: random_nnp(6, 2, seed=5), (2, 4), (2, 3, 6), 300),
    (lambda: random_nnp(6, 0, seed=103), (0, 6), (0, 2, 6), 300),
    (lambda: make_nnp(np.zeros((5, 5)), np.eye(5)[:, :2]), (2, 0), (2,), 100),
    (lambda: make_nnp(random_nnp(4, 0, seed=107).L, np.eye(4)), (4, 0), (4,), 50),
    (lambda: random_nnp(8, 1, seed=59), (1, 7), (3,), 300),  # scans skip eigenvectors
    (lambda: _exponential_limit(400, 20), (1, 399), (20, 25), 20),
], ids=["p=2", "p=0", "q=0", "p=n", "scan-skips", "n=400"])
def test_samplers_draw_what_the_checked_path_draws(build, pq, sizes, draws):
    e = build()
    assert (e.p, e.q) == pq
    rng = rng_from_seed(109)
    for m in sizes:
        for _ in range(draws):
            ref = copy.deepcopy(rng)
            assert sample(e, rng) == checked_sample(e, ref)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert sample_fixed(e, m, rng) == checked_sample_fixed(e, m, ref)
            assert rng.bit_generator.state == ref.bit_generator.state
