"""L by kind: zero, dense, factor (B, C) and scaled (gamma, unit pair).

A factor or scaled pair holds no n x n array: its subset laws read L_X from
the kind, its dense L is formed only when ``NNP.L`` is read (and logged), and
a scaled pair's decomposition drops its transient gamma L_1 before the
eigensolver runs. Every law equals that of make_nnp on the same dense L.
"""

import io
import logging
import math
import re
import tracemalloc
from contextlib import redirect_stderr

import numpy as np
import pytest

from flatdpp import _numerics
from flatdpp.cli import main
from flatdpp.diagnostics import brute_force_distribution, tv_distance
from flatdpp.ensembles import (_scaled_nnp, bordered_matrix, log_unnorm_prob, make_factored_nnp,
                               make_nnp, nnp_from_dict, nnp_to_dict)
from flatdpp.flatlimit import fixed_size_limit, varying_size_limit
from flatdpp.geometry import uniform_points
from flatdpp.kernels import builtin_kernel
from flatdpp.sampling import rng_from_seed, sample_fixed

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
        "finite": (fixed_size_limit(ps, EXPO, 3), "dense"),
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
    ps = uniform_points(300, 2, seed=3)
    unit = fixed_size_limit(ps, EXPO, 10).process
    with caplog.at_level(logging.DEBUG, logger="flatdpp.ensembles"):
        vary = varying_size_limit(ps, EXPO, 1, 0.1).process
        assert formations(caplog) == []
        vary.U
    formed = formations(caplog)
    assert len(formed) == 1
    assert formed[0].startswith("scaled L formed as a dense 300x300 array for a "
                                "decomposition's transient (")
    ref = make_nnp(np.multiply(unit.L, 0.1), unit.V, spectrum="vectors")
    np.testing.assert_array_equal(vary.U, ref.U)
    np.testing.assert_array_equal(vary.lam, ref.lam)


def test_a_scaled_pair_drops_its_transient_before_the_eigensolver(monkeypatch):
    # of the n x n arrays made for the decomposition, only M = N^T L N is
    # alive when eigh runs: the transient gamma L_1 is gone
    n = 400
    vary = varying_size_limit(uniform_points(n, 2, seed=9), EXPO, 1, 0.1).process
    eigh, seen = np.linalg.eigh, {}

    def spy(a, *args, **kwargs):
        seen["live"] = tracemalloc.get_traced_memory()[0] - seen["start"]
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    tracemalloc.start()
    try:
        seen["start"] = tracemalloc.get_traced_memory()[0]
        vary.U
    finally:
        tracemalloc.stop()
    assert seen["live"] < 1.5 * 8 * n * n


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
