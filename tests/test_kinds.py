"""L by kind: zero, dense, factor (B, C), distance (x, beta, sign) and scaled
(gamma, unit pair).

A factor, distance or scaled pair holds no n x n array: its subset laws read
L_X from the kind, its dense L is formed only when ``NNP.L`` is read (and
logged), and a distance or scaled pair's decomposition drops its transient L
before the eigensolver runs. Every law equals that of make_nnp on the same
dense L.
"""

import io
import logging
import math
import re
import tracemalloc
from contextlib import redirect_stderr

import numpy as np
import pytest

from flatdpp import _numerics, ensembles, flatlimit
from flatdpp.cli import main
from flatdpp.diagnostics import brute_force_distribution, tv_distance
from flatdpp.ensembles import (_scaled_nnp, bordered_matrix, log_unnorm_prob, make_factored_nnp,
                               make_nnp, nnp_from_dict, nnp_to_dict, size_distribution)
from flatdpp.flatlimit import default_ensemble, fixed_size_limit, varying_size_limit
from flatdpp.geometry import PointSet, distance_power_matrix, uniform_points
from flatdpp.kernels import builtin_kernel
from flatdpp.polybasis import vandermonde
from flatdpp.sampling import rng_from_seed, sample, sample_fixed

GAUSS, EXPO = builtin_kernel("gaussian"), builtin_kernel("exponential")


def kind(e) -> str:
    return re.search(r"L=(\w+)\)$", repr(e)).group(1)


def random_pd(n, seed):
    A = np.random.default_rng(seed).standard_normal((n, n))
    return A @ A.T / n


def pairs():
    """(name, pair, fixed size or None, kind) of every regime on 9 points in
    the plane, and of factor and scaled pairs at p = 0, q = 0 and p = n."""
    ps = uniform_points(9, 2, seed=5)
    rng = np.random.default_rng(3)
    B, V = rng.standard_normal((9, 3)), rng.standard_normal((9, 9))
    limits = {
        "projection": (fixed_size_limit(ps, GAUSS, 6), "zero"),
        "wronskian": (fixed_size_limit(ps, GAUSS, 4), "factor"),
        "finite": (fixed_size_limit(ps, EXPO, 3), "distance"),
        "full set": (fixed_size_limit(ps, GAUSS, 9), "zero"),
        "varying projection": (varying_size_limit(ps, GAUSS, 1), "zero"),
        "varying wronskian": (varying_size_limit(ps, GAUSS, 2, alpha=0.7), "factor"),
        "varying finite": (varying_size_limit(ps, EXPO, 1, alpha=0.3), "scaled"),
    }
    out = [(name, res.process, res.fixed_size, k) for name, (res, k) in limits.items()]
    C = np.diag([2.0, 1.0, 0.5])
    out += [("factor p = 0", make_factored_nnp(B, C), 2, "factor"),
            ("factor q = 0", make_factored_nnp(B, 0.0 * C, np.ones((9, 1))), 1, "factor"),
            ("factor p = n", make_factored_nnp(B, C, V), 9, "factor"),
            ("scaled p = 0", _scaled_nnp(make_nnp(random_pd(9, 4)), 2.5), 3, "scaled"),
            ("scaled q = 0", _scaled_nnp(make_nnp(random_pd(9, 4), np.ones((9, 1))), 0.0), 1,
             "scaled"),
            ("scaled p = n", _scaled_nnp(make_nnp(random_pd(9, 4), V), 2.5), 9, "scaled")]
    return out


@pytest.mark.parametrize("name, e, m, expected", pairs(), ids=[p[0] for p in pairs()])
def test_every_kind_has_the_dense_paths_laws(name, e, m, expected):
    dense = make_nnp(e.L, e.V)
    assert kind(e) == expected and kind(dense) in ("zero", "dense")
    assert (e.p, e.q) == (dense.p, dense.q)
    for size in (None, m):
        law, ref = brute_force_distribution(e, size), brute_force_distribution(dense, size)
        assert tv_distance(law, ref) <= 1e-12


def test_a_scaled_pair_reads_gamma_times_its_units_slices():
    ps = uniform_points(12, 2, seed=22)
    vary = varying_size_limit(ps, EXPO, 1, 0.1).process
    unit = fixed_size_limit(ps, EXPO, 10).process
    idx = np.array([[0, 3, 7], [2, 5, 11]])
    L = vary.L
    np.testing.assert_array_equal(bordered_matrix(vary, idx)[0][:, :3, :3],
                                  L[idx[:, :, None], idx[:, None, :]])
    np.testing.assert_array_equal(bordered_matrix(vary, idx)[0][:, :3, :3],
                                  0.1 * bordered_matrix(unit, idx)[0][:, :3, :3])
    assert L.tobytes() == np.multiply(unit.L, 0.1).tobytes() and not L.flags.writeable


def test_a_factor_reads_its_blocks_from_b_and_c():
    e = fixed_size_limit(uniform_points(40, 2, seed=8), GAUSS, 13).process
    B, C = e.factor
    idx = np.random.default_rng(1).permuted(np.tile(np.arange(40), (6, 1)), axis=1)[:, :13]
    idx.sort(axis=1)
    logabs, sign = log_unnorm_prob(e, idx)
    ref, ref_sign = log_unnorm_prob(make_nnp(e.L, e.V), idx)
    np.testing.assert_array_equal(sign, ref_sign)
    np.testing.assert_allclose(logabs, ref, rtol=0, atol=1e-10)
    LX = bordered_matrix(e, idx[0])[0][:13, :13]
    BX = B[idx[0]]
    assert np.array_equal(LX, LX.T)
    np.testing.assert_allclose(LX, BX @ C @ BX.T, rtol=0, atol=1e-14 * np.abs(LX).max())


def test_repr_runs_no_decomposition(decompositions):
    ps = uniform_points(200, 2, seed=1)
    e = make_nnp(-np.sqrt(((ps.coords[:, None] - ps.coords[None]) ** 2).sum(-1)),
                 np.ones((200, 1)))
    vary = varying_size_limit(ps, EXPO, 1, 0.1).process
    before = dict(decompositions)
    assert repr(e) == "NNP(n=200, p=1, q=?, L=dense)"
    assert repr(vary) == "NNP(n=200, p=1, q=?, L=scaled)"
    assert dict(decompositions) == before
    assert repr(make_nnp(np.broadcast_to(0.0, (4, 4)), np.ones((4, 1)))) == \
        "NNP(n=4, p=1, q=0, L=zero)"
    e.lam
    assert repr(e) == f"NNP(n=200, p=1, q={e.q}, L=dense)"
    w = fixed_size_limit(uniform_points(30, 2, seed=2), GAUSS, 13).process
    assert repr(w) == "NNP(n=30, p=10, q=5, L=factor)"


def formations(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "flatdpp.ensembles" and " L formed as a dense " in r.getMessage()]


def test_a_wronskian_limit_through_the_cli_forms_l_once(caplog, tmp_path):
    out = tmp_path / "w.json"
    with caplog.at_level(logging.DEBUG, logger="flatdpp.ensembles"), redirect_stderr(io.StringIO()):
        assert main(["limit", "--gen", "uniform", "--n", "300", "--dim", "2", "--kernel",
                     "gaussian", "--m", "13", "--out", str(out)]) == 0
    formed = formations(caplog)
    assert len(formed) == 1
    assert re.fullmatch(r"factor L formed as a dense 300x300 array for an NNP\.L read "
                        r"\(\d+\.\d ms\)", formed[0])


def test_a_draw_from_a_fresh_factored_pair_forms_no_l(caplog):
    with caplog.at_level(logging.DEBUG, logger="flatdpp.ensembles"):
        e = fixed_size_limit(uniform_points(300, 2, seed=3), GAUSS, 13).process
        assert len(sample_fixed(e, 13, rng_from_seed(0))) == 13
    assert formations(caplog) == []


def test_a_scaled_pairs_decomposition_forms_one_transient(caplog):
    # read U first, a scaled pair takes its unit's spectrum: the one
    # transient is the unit's own, and the scaled pair forms none
    ps = uniform_points(300, 2, seed=3)
    unit = fixed_size_limit(ps, EXPO, 10).process
    with caplog.at_level(logging.DEBUG, logger="flatdpp.ensembles"):
        vary = varying_size_limit(ps, EXPO, 1, 0.1).process
        assert formations(caplog) == []
        vary.U
    formed = formations(caplog)
    assert len(formed) == 1
    assert formed[0].startswith("distance L formed as a dense 300x300 array for a "
                                "decomposition's transient (")
    assert vary.U is unit.U
    assert vary.lam.tobytes() == (0.1 * unit.lam).tobytes()
    # the dense pair is the referee: each spectrum is within beta of the
    # exact one (Weyl), so they differ by at most 2 beta
    ref = make_nnp(np.multiply(unit.L, 0.1), unit.V, spectrum="vectors")
    assert vary.q == ref.q
    assert np.abs(vary.lam - ref.lam).max() <= 2 * vary._bound.beta


def test_a_scaled_pair_drops_its_transient_before_the_eigensolver(monkeypatch):
    # read lam first, a scaled pair decomposes fl(gamma L_1): of the n x n
    # arrays made for that, only M = N^T L N is alive when eigvalsh runs
    n = 400
    vary = varying_size_limit(uniform_points(n, 2, seed=9), EXPO, 1, 0.1).process
    eigvalsh, seen = np.linalg.eigvalsh, {}

    def spy(a, *args, **kwargs):
        seen["live"] = tracemalloc.get_traced_memory()[0] - seen["start"]
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    tracemalloc.start()
    try:
        seen["start"] = tracemalloc.get_traced_memory()[0]
        vary.lam
    finally:
        tracemalloc.stop()
    assert seen["live"] < 1.5 * 8 * n * n


@pytest.mark.parametrize("first", ["fixed", "varying"])
def test_a_unit_and_its_scaled_pair_run_one_eigh_between_them(first, caplog, decompositions):
    n = 200
    ps = uniform_points(n, 2, seed=14)
    fixed = fixed_size_limit(ps, EXPO, 10).process
    vary = varying_size_limit(ps, EXPO, 1, 0.1).process
    decompositions.orders.clear()
    if first == "fixed":
        fixed.U
        # the unit is decomposed: the scaled pair's read runs no eigensolver
        # and forms no n x n array
        tracemalloc.start()
        try:
            with caplog.at_level(logging.DEBUG, logger="flatdpp.ensembles"):
                vary.U
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert formations(caplog) == [] and peak < 0.05 * 8 * n * n
    else:
        vary.U
        fixed.U
    assert decompositions.orders == [("eigh", n - fixed.p)]
    assert vary.U is fixed.U and vary.lam.tobytes() == (0.1 * fixed.lam).tobytes()


def test_a_scaled_pair_over_a_dense_unit_shares_its_spectrum(caplog, decompositions):
    unit = make_nnp(random_pd(40, 6))
    scaled = _scaled_nnp(unit, 2.5)
    decompositions.orders.clear()
    with caplog.at_level(logging.DEBUG, logger="flatdpp.ensembles"):
        scaled.U
    assert decompositions.orders == [("eigh", 40)]
    assert scaled.U is unit.U and scaled.lam.tobytes() == (2.5 * unit.lam).tobytes()
    shared = [r.getMessage() for r in caplog.records
              if r.name == "flatdpp.ensembles" and r.getMessage().startswith("scaled pair:")]
    assert shared == [f"scaled pair: lam and U taken from its unit pair's spectrum, gamma 2.5, "
                      f"q = {unit.q}: no decomposition"]
    assert formations(caplog) == []


def test_a_decomposition_takes_ms_buffer_before_it_forms_its_transient(monkeypatch):
    # so the transient's space, freed before the eigensolver, lies above M
    n = 300
    vary = varying_size_limit(uniform_points(n, 2, seed=9), EXPO, 1, 0.1).process
    rows, seen = ensembles._Distance.rows, {}

    def spy(self, lo, hi, scale=1.0):
        seen["live"] = tracemalloc.get_traced_memory()[0] - seen["start"]
        return rows(self, lo, hi, scale)

    monkeypatch.setattr(ensembles._Distance, "rows", spy)
    tracemalloc.start()
    try:
        seen["start"] = tracemalloc.get_traced_memory()[0]
        vary.U
    finally:
        tracemalloc.stop()
    assert seen["live"] >= 8 * n * (n - vary.p)


def test_a_wronskian_limit_and_a_draw_at_n_20000_stay_in_o_n_h_memory():
    n = 20000
    tracemalloc.start()
    try:
        res = fixed_size_limit(uniform_points(n, 2, seed=11), GAUSS, 13)
        X = sample_fixed(res.process, 13, rng_from_seed(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    e = res.process
    h = e.factor[0].shape[1]
    assert (e.p, h, len(X)) == (10, 5, 13) and kind(e) == "factor"
    assert peak < 10 * 8 * n * (e.p + h)


def test_a_factored_record_is_matched_by_row_blocks(monkeypatch):
    # row blocks of 7 rows on 30 points: the match never forms B C B^T whole
    monkeypatch.setattr(_numerics, "_ROW_BLOCK_ENTRIES", 7 * 30)
    e = fixed_size_limit(uniform_points(30, 2, seed=6), GAUSS, 13).process
    record = nnp_to_dict(e)
    assert nnp_from_dict(record).q == e.q
    for i, j, value in ((29, 3, None), (0, 0, math.nan)):
        L = np.array(record["L"])
        L[i, j] = L[i, j] * (1 + 1e-6) if value is None else value
        with pytest.raises(ValueError, match=r"^ensemble record: L does not match its factor"):
            nnp_from_dict({**record, "L": L})
    with pytest.raises(ValueError, match=r"^ensemble record: L of shape \(29, 29\) does not "
                                         r"match its factor's \(30, 30\)$"):
        nnp_from_dict({**record, "L": np.array(record["L"])[:29, :29]})


def test_a_factor_is_refused_as_make_nnp_refuses_its_product():
    rng = np.random.default_rng(2)
    B = rng.standard_normal((20, 3))
    C = np.diag([1.0, 2.0, 3.0])
    skew = C.copy()
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError, match="^L must be symmetric$"):
        make_factored_nnp(B, skew)
    # an asymmetry on the scale of rounding is not refused
    tiny = C.copy()
    tiny[0, 1] = 1e-17
    assert make_factored_nnp(B, tiny).q == 3
    with pytest.raises(ValueError, match="^L has a non-finite entry$"):
        make_factored_nnp(1e200 * B, C)
    with pytest.raises(ValueError, match="^the factor has a non-finite entry$"):
        make_factored_nnp(B, np.diag([1.0, math.nan, 1.0]))
    with pytest.raises(ValueError, match=r"^a factor needs B of shape \(n, h\)"):
        make_factored_nnp(B, np.eye(2))


# ---------------------------------------------------------------------------
# the distance kind: L = sign D^(beta) from coordinates
# ---------------------------------------------------------------------------


def dense_distance_pair(ps, beta, gamma=1.0):
    """make_nnp of the dense gamma (-1)^ceil(beta/2) D^(beta), as the unit
    pair was built when it held that array."""
    L = distance_power_matrix(ps, beta)
    L *= (-1.0) ** ((beta + 1) // 2)
    L = L if gamma == 1 else np.multiply(L, gamma)
    return make_nnp(L, vandermonde(ps, (beta + 1) // 2 - 1))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("beta", [1, 3, 5])
def test_a_distance_pairs_blocks_are_the_dense_slices(beta, d):
    ps = uniform_points(12, d, seed=30 + d)
    e = default_ensemble(ps, beta, 1.0)
    L = e.L
    assert kind(e) == "distance" and L.tobytes() == dense_distance_pair(ps, beta).L.tobytes()
    idx = np.random.default_rng(beta).permuted(np.tile(np.arange(12), (5, 1)), axis=1)[:, :7]
    m = idx.shape[1]
    LX = bordered_matrix(e, idx)[0][:, :m, :m]
    assert LX.tobytes() == L[idx[:, :, None], idx[:, None, :]].tobytes()


@pytest.mark.parametrize("points, beta", [((12, 2, 40), 1), ((3, 2, 41), 3)],
                         ids=["p = 1", "p = n"])
@pytest.mark.parametrize("gamma", [1.0, 0.0, 1e-5, 0.1])
def test_distance_and_scaled_pairs_have_the_dense_pairs_laws_bit_for_bit(points, beta, gamma):
    n, d, seed = points
    ps = uniform_points(n, d, seed=seed)
    e, ref = default_ensemble(ps, beta, gamma), dense_distance_pair(ps, beta, gamma)
    assert kind(e) == ("distance" if gamma == 1 else "scaled") and e.p == (1 if n > 3 else 3)
    np.testing.assert_array_equal(e.lam, ref.lam)
    np.testing.assert_array_equal(e.U, ref.U)
    for size in (None, e.p + min(e.q, 2)):
        law, expected = brute_force_distribution(e, size), brute_force_distribution(ref, size)
        np.testing.assert_array_equal(law.masks, expected.masks)
        np.testing.assert_array_equal(law.values, expected.values)


def test_the_minors_and_a_distance_pair_read_l_x_through_one_block_function(monkeypatch):
    ps = uniform_points(9, 2, seed=5)
    e = fixed_size_limit(ps, EXPO, 3).process
    block, calls = ensembles._distance_block, []

    def spy(rows, cols, beta, scale):
        calls.append((rows.shape, beta, scale))
        return block(rows, cols, beta, scale)

    assert flatlimit._distance_block is block
    monkeypatch.setattr(ensembles, "_distance_block", spy)
    monkeypatch.setattr(flatlimit, "_distance_block", spy)
    idx = np.array([[0, 2, 5], [1, 4, 8]])
    ref = log_unnorm_prob(e, idx)
    got = flatlimit._fixed_size_minors(EXPO, 3, 2)(ps.coords[idx])
    assert calls == [((2, 3, 2), 1, -1.0)] * 2
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1], ref[1])


def test_distance_limits_hold_no_l_and_a_draw_keeps_only_u():
    n = 1500
    ps = uniform_points(n, 2, seed=12)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fixed = fixed_size_limit(ps, EXPO, 10).process
        vary = varying_size_limit(ps, EXPO, 1, 0.1).process
        built = tracemalloc.get_traced_memory()[0] - start
        assert len(sample_fixed(fixed, 10, rng_from_seed(1))) == 10
        sample(vary, rng_from_seed(2))
        drawn = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert (kind(fixed), kind(vary)) == ("distance", "scaled")
    # an L held by either pair would add 8 n^2 bytes to each figure
    assert built < 0.05 * 8 * n * n
    # the scaled pair's draw takes the unit's U: one U is live, not two
    assert vary.U is fixed.U
    assert drawn < fixed.U.nbytes + 0.05 * 8 * n * n


def test_a_distance_or_scaled_record_round_trips_in_memory():
    ps = uniform_points(30, 2, seed=13)
    fixed = fixed_size_limit(ps, EXPO, 10).process
    for e in (fixed, varying_size_limit(ps, EXPO, 1, 0.1).process):
        record = nnp_to_dict(e)
        assert record["L"].shape == (30, 30) and not isinstance(record["L"], np.ndarray)
        assert np.asarray(record["L"]).tobytes() == e.L.tobytes() == record["L"].tobytes("F")
        e2 = nnp_from_dict(record, spectrum="vectors")
        assert (kind(e2), e2.L.tobytes()) == ("dense", e.L.tobytes())
        if e is fixed:
            np.testing.assert_array_equal(e2.U, e.U)
            continue
        # read U first, the scaled pair's spectrum is its unit's scaled: each
        # is within beta of the exact one (Weyl), and the laws agree
        e.U
        assert e2.q == e.q and np.abs(e2.lam - e.lam).max() <= 2 * e._bound.beta
        assert tv_distance(size_distribution(e), size_distribution(e2)) <= 1e-12
        m = e.p + 2
        assert tv_distance(brute_force_distribution(e, m), brute_force_distribution(e2, m)) <= 1e-12


# ---------------------------------------------------------------------------
# a factored reload: one sweep of B C B^T gives its match and its max |L|
# ---------------------------------------------------------------------------


def construct_large_cloud(seed):
    """The 2000-point cloud of the bench's construct-large workload at seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    return PointSet(rng.uniform(size=(2000, 2)))


@pytest.mark.parametrize("seed, limit", [
    (1, lambda ps: fixed_size_limit(ps, GAUSS, 13)),
    (2, lambda ps: fixed_size_limit(ps, GAUSS, 13)),
    (3, lambda ps: varying_size_limit(ps, GAUSS, 2)),
], ids=["gaussian m = 13, seed 1", "gaussian m = 13, seed 2", "gaussian p = 2, seed 3"])
def test_a_reloads_full_row_max_is_the_builds_upper_block_max(seed, limit):
    e = limit(construct_large_cloud(seed)).process
    B, C = e.factor
    S = 0.5 * (C + C.T)
    full = max(float(np.abs(rows).max()) for _, rows in _numerics._factor_rows(B, S))
    assert full == _numerics._factor_max(B, S) == e._bound.max_l
    assert ensembles._matched_max(e.L, B, C) == full


def test_a_factored_reload_takes_one_pass_of_the_row_blocks(monkeypatch):
    e = fixed_size_limit(uniform_points(60, 2, seed=6), GAUSS, 13).process
    record = nnp_to_dict(e)
    rows, passes = _numerics._factor_rows, []

    def spy(*args, **kwargs):
        passes.append(kwargs.get("upper", False))
        return rows(*args, **kwargs)

    monkeypatch.setattr(_numerics, "_factor_rows", spy)
    monkeypatch.setattr(ensembles, "_factor_rows", spy)
    e2 = nnp_from_dict(record)
    assert passes == [False]
    np.testing.assert_array_equal(e2.lam, e.lam)
    make_factored_nnp(*e.factor, e.V)
    assert passes == [False, True]
