import base64
import io
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from flatdpp import cli, diagnostics, ensembles, flatlimit, sampling, store
from flatdpp.cli import CONSTRUCTION_OPTIONS, main, parse_args
from flatdpp.geometry import grid_points, uniform_points
from flatdpp.kernels import builtin_kernel


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_limit_fixed_size(capsys, tmp_path):
    out = tmp_path / "lim.json"
    code, _, err = run(capsys, "limit", "--gen", "uniform", "--n", "8", "--dim", "1",
                       "--seed", "42", "--kernel", "gaussian", "--m", "5",
                       "--out", str(out))
    assert code == 0
    assert "ProjectionSmooth(k=4)" in err
    obj = json.loads(out.read_text())
    assert obj["fixed_size"] == 5
    assert obj["metadata"]["bracket"] == [4, 5]


def test_limit_exponential_regime(capsys):
    code, out, err = run(capsys, "limit", "--gen", "uniform", "--n", "8",
                         "--kernel", "exponential", "--m", "5")
    assert code == 0
    assert "FiniteSmoothness(r=1)" in err
    assert json.loads(out)["regime"] == "FiniteSmoothness"


def test_limit_varying_fixed_pair(capsys):
    code, out, err = run(capsys, "limit", "--gen", "uniform", "--n", "6", "--dim", "1",
                         "--kernel", "gaussian", "--vary", "--p", "3", "--alpha", "1")
    assert code == 0
    assert json.loads(out)["fixed_size"] == 2


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_limit_refuses_an_alpha_that_is_not_finite(capsys, alpha):
    code, out, err = run(capsys, "limit", "--gen", "uniform", "--n", "20", "--dim", "2",
                         "--kernel", "gaussian", "--vary", "--p", "3", "--alpha", alpha)
    assert code == 2 and out == ""
    assert err.startswith(f"error: alpha must be a finite positive number, not {alpha}")


@pytest.mark.parametrize("name, value", [
    ("alpha", "nan"), ("alpha", "inf"), ("alpha", "-1"), ("alpha", "0"),
    ("eps", "nan"), ("eps", "inf")])
def test_size_dist_refuses_a_bad_pre_limit_input(capsys, name, value):
    given = {"eps": "0.5", "alpha": "1", name: value}
    code, out, err = run(capsys, "size-dist", "--gen", "uniform", "--n", "6", "--dim", "1",
                         "--kernel", "gaussian", "--eps", given["eps"], "--p", "2",
                         "--alpha", given["alpha"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be a finite positive number, not "
                          f"{float(value)}")


def test_limit_points_csv(capsys, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.0\n0.25\n0.5\n0.75\n1.0\n")
    code, out, _ = run(capsys, "limit", "--points", str(pts), "--kernel",
                       "exponential", "--m", "3")
    assert code == 0
    assert json.loads(out)["nnp"]["n"] == 5


#: One limit command per regime, plus n = 1. The FiniteSmoothness L
#: (720000 bytes) is no whole number of base64 chunks.
LIMIT_COMMANDS = {
    "ProjectionSmooth": "--n 8 --dim 1 --seed 42 --kernel gaussian --m 5",
    "NonMagicWronskian": "--n 10 --dim 2 --seed 1 --kernel gaussian --m 4",
    "FiniteSmoothness": "--n 300 --dim 2 --kernel exponential --m 20",
    "FullSetAlmostSurely": "--n 7 --dim 1 --seed 3 --kernel exponential --m 7",
    "VaryingProjection": "--n 6 --dim 1 --seed 4 --kernel gaussian --vary --p 3",
    "VaryingWronskian": "--n 6 --dim 1 --seed 4 --kernel gaussian --vary --p 10",
    "VaryingFiniteSmoothness": "--n 6 --dim 1 --seed 11 --kernel exponential --vary --p 1",
    "n=1": "--n 1 --dim 1 --kernel gaussian --m 1",
}


def block(arr) -> dict:
    """The file format's block of arr, encoded here rather than by the
    library: base64 of its float64 entries in column-major order."""
    return {"shape": list(arr.shape), "data": base64.b64encode(arr.tobytes("F")).decode()}


def array(obj) -> np.ndarray:
    """The writable array of a block."""
    data = np.frombuffer(base64.b64decode(obj["data"]))
    return data.reshape(obj["shape"], order="F").copy()


def limit_text(res) -> bytes:
    """What limit writes for res: json.dumps of its record, with each array
    as its block."""
    obj = res.to_dict()
    nnp = obj["nnp"]
    nnp.update(L=block(nnp["L"]), V=block(nnp["V"]))
    if "factor" in nnp:
        nnp["factor"] = {key: block(arr) for key, arr in nnp["factor"].items()}
    return (json.dumps(obj) + "\n").encode()


@pytest.mark.parametrize("case", LIMIT_COMMANDS)
def test_limit_writes_json_dumps_of_the_result(capsysbinary, tmp_path, case):
    argv = ["limit", "--gen", "uniform", *LIMIT_COMMANDS[case].split()]
    res = cli._limit_result(parse_args(argv))
    assert case in (res.regime, "n=1")
    expected = limit_text(res)
    out = tmp_path / "lim.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected
    assert main(argv) == 0 and main(argv + ["--out", "-"]) == 0
    assert capsysbinary.readouterr().out == 2 * expected


@pytest.mark.parametrize("chunk", [3, 24])
def test_limit_output_does_not_depend_on_the_chunk_size(capsys, monkeypatch, chunk):
    argv = ["limit", "--gen", "uniform", *LIMIT_COMMANDS["NonMagicWronskian"].split()]
    _, expected, _ = run(capsys, *argv)
    monkeypatch.setattr(store, "_CHUNK_BYTES", chunk)
    assert run(capsys, *argv)[1] == expected


def test_limit_to_a_text_only_stdout(monkeypatch, capsys):
    argv = ["limit", "--gen", "uniform", *LIMIT_COMMANDS["FiniteSmoothness"].split()]
    _, expected, _ = run(capsys, *argv)
    text = io.StringIO()
    monkeypatch.setattr("sys.stdout", text)
    assert main(argv) == 0
    assert text.getvalue() == expected


def test_failed_limit_write_leaves_the_old_file(monkeypatch, tmp_path):
    out = tmp_path / "lim.json"
    out.write_text("old\n")

    def broken(obj, write):
        write(b'{"regime": ')
        raise TypeError("Object of type set is not JSON serializable")

    monkeypatch.setattr(store, "write_json", broken)
    with pytest.raises(TypeError):
        main(["limit", "--n", "6", "--kernel", "gaussian", "--m", "3", "--out", str(out)])
    assert out.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == ["lim.json"]


def test_limit_file_mode_and_device_output(tmp_path):
    argv = ["limit", "--n", "6", "--kernel", "gaussian", "--m", "3"]
    plain = tmp_path / "plain"
    plain.open("w").close()
    out = tmp_path / "lim.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.stat().st_mode == plain.stat().st_mode
    # a device is written in place, not replaced
    assert main(argv + ["--out", os.devnull]) == 0
    assert not os.path.isfile(os.devnull)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_row_output_replaces_a_file_whole(capsys, monkeypatch, tmp_path, fmt):
    argv = ["size-dist", "--gen", "uniform", "--n", "6", "--kernel", "exponential",
            "--p", "1", "--format", fmt]
    _, expected, _ = run(capsys, *argv)
    out = tmp_path / "size.out"
    out.write_text("old\n")
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == expected

    def failed_replace(src, dst):
        raise OSError("no space left on device")

    # an output that cannot be put in place leaves the old file and no other
    out.write_text("old\n")
    monkeypatch.setattr(os, "replace", failed_replace)
    assert main(argv + ["--out", str(out)]) == 1
    assert out.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == ["size.out"]


def test_limit_streams_its_output(monkeypatch, tmp_path):
    """At n = 1000, L is 8 MB and its base64 text 10.7 MB; encoding the whole
    text and then the JSON text peaked at 32 MB, streaming stays under 1 MB."""
    res = flatlimit.fixed_size_limit(uniform_points(1000, 2, 0),
                                     builtin_kernel("exponential"), 20)
    monkeypatch.setattr(cli, "_limit_result", lambda args: res)
    out = tmp_path / "lim.json"
    tracemalloc.start()
    try:
        assert main(["limit", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < res.process.L.nbytes
    assert out.read_bytes() == limit_text(res)


def test_unknown_kernel_is_domain_error(capsys):
    code, _, err = run(capsys, "limit", "--kernel", "nosuch", "--m", "3")
    assert code == 2
    assert "unknown kernel" in err


def test_missing_points_file_is_io_error(capsys):
    code, _, err = run(capsys, "limit", "--points", "/nonexistent/p.csv",
                       "--kernel", "gaussian", "--m", "3")
    assert code == 1


def test_oversized_m_is_domain_error(capsys):
    code, _, _ = run(capsys, "limit", "--gen", "uniform", "--n", "4",
                     "--kernel", "gaussian", "--m", "9")
    assert code == 2


def test_sample_round_trip_byte_identical(capsys, tmp_path):
    lim = tmp_path / "lim.json"
    run(capsys, "limit", "--gen", "uniform", "--n", "8", "--dim", "1", "--seed", "42",
        "--kernel", "gaussian", "--m", "5", "--out", str(lim))
    s1 = tmp_path / "s1.csv"
    s2 = tmp_path / "s2.csv"
    for path in (s1, s2):
        code, _, _ = run(capsys, "sample", "--ensemble", str(lim), "--samples", "40",
                         "--seed", "7", "--out", str(path))
        assert code == 0
    assert s1.read_bytes() == s2.read_bytes()

    # identical to in-process draws with the same seed
    res = flatlimit.fixed_size_limit(uniform_points(8, 1, 42),
                                     builtin_kernel("gaussian"), 5)
    rng = sampling.rng_from_seed(7)
    draws = [sampling.sample_fixed(res.process, 5, rng) for _ in range(40)]
    rows = [line.split(",") for line in s1.read_text().splitlines()[1:]]
    assert [r[3] for r in rows] == [";".join(str(i) for i in X) for X in draws]
    assert [r[1] for r in rows] == [str(ensembles.mask_of(X)) for X in draws]


@pytest.mark.parametrize("n", [63, 64, 300])
def test_sample_bitmask_only_where_an_int64_holds_it(capsys, tmp_path, n):
    lim = str(tmp_path / "lim.json")
    run(capsys, "limit", "--gen", "uniform", "--n", str(n), "--dim", "2",
        "--kernel", "exponential", "--m", "20", "--out", lim)
    code, out, _ = run(capsys, "sample", "--ensemble", lim, "--samples", "5")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 5 and all(r[2] == "20" and len(r[3].split(";")) == 20 for r in rows)
    masks = [str(ensembles.mask_of(int(i) for i in r[3].split(";"))) for r in rows]
    assert [r[1] for r in rows] == (masks if n <= 63 else [""] * 5)


def test_size_dist_round_trip(capsys, tmp_path):
    lim = tmp_path / "lim.json"
    run(capsys, "limit", "--gen", "uniform", "--n", "6", "--dim", "1", "--seed", "11",
        "--kernel", "exponential", "--vary", "--p", "1", "--out", str(lim))
    code, out, _ = run(capsys, "size-dist", "--ensemble", str(lim))
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    vec = np.array([float(v) for _, v in rows])
    e = ensembles.nnp_from_dict(store.read_json(lim)["nnp"])
    np.testing.assert_allclose(vec, ensembles.size_distribution(e), rtol=1e-12)


def test_size_dist_limit_and_eps_paths(capsys):
    code, out, _ = run(capsys, "size-dist", "--gen", "uniform", "--n", "5",
                       "--dim", "1", "--seed", "3", "--kernel", "exponential",
                       "--p", "1")
    assert code == 0
    vec_lim = np.array([float(r.split(",")[1]) for r in out.splitlines()[1:]])
    code, out, _ = run(capsys, "size-dist", "--gen", "uniform", "--n", "5",
                       "--dim", "1", "--seed", "3", "--kernel", "exponential",
                       "--p", "1", "--eps", "1e-3")
    assert code == 0
    vec_eps = np.array([float(r.split(",")[1]) for r in out.splitlines()[1:]])
    assert np.sum(np.abs(vec_lim - vec_eps)) <= 0.05


def test_cond_density_columns(capsys):
    code, out, _ = run(capsys, "cond-density", "--kernel", "exponential",
                       "--Y", "0.1,0.3,0.5,0.9", "--grid", "25",
                       "--eps", "4,0.5", "--limit")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,density_eps_4,density_eps_0.5,density_limit"
    assert len(lines) == 26
    cols = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_allclose(cols[:, 1:].sum(axis=0), 1.0, atol=1e-9)


def test_inclusion_command(capsys):
    code, out, _ = run(capsys, "inclusion", "--gen", "uniform", "--n", "7",
                       "--dim", "1", "--seed", "5", "--kernel", "exponential",
                       "--m", "3", "--eps", "2.0", "--limit")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "point-index,inclusion_eps_2,inclusion_limit"
    cols = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_allclose(cols[:, 1].sum(), 3.0, atol=1e-6)
    np.testing.assert_allclose(cols[:, 2].sum(), 3.0, atol=1e-6)


def test_converge_command(capsys):
    code, out, err = run(capsys, "converge", "--gen", "uniform", "--n", "6",
                         "--dim", "1", "--seed", "9", "--kernel", "gaussian",
                         "--mode", "full-law", "--m", "3", "--eps", "2,0.2,0.02")
    assert code == 0
    assert "target:" in err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    tvs = [float(tv) for _, tv in rows]
    assert tvs[-1] <= tvs[0]


def curve_of(out) -> tuple[list[float], list[float]]:
    rows = [line.split(",") for line in out.splitlines()[1:]]
    return [float(e) for e, _ in rows], [float(tv) for _, tv in rows]


def test_converge_size_law_mode(capsys):
    code, out, err = run(capsys, "converge", "--gen", "uniform", "--n", "6", "--dim", "1",
                         "--seed", "9", "--kernel", "exponential", "--mode", "size-law",
                         "--p", "1", "--eps", "0.01,1,0.1")
    assert code == 0 and err == "target: size law, p=1, alpha=1.0\n"
    curve = diagnostics.convergence_curve(uniform_points(6, 1, 9), builtin_kernel("exponential"),
                                          [1, 0.1, 0.01], "size-law", p=1)
    assert curve_of(out) == (curve.epsilons, curve.values)
    assert curve.values[-1] < curve.values[0]


@pytest.mark.parametrize("flag, value, message", [
    ("--grid-range", "nan,1", "--grid-range must be two finite numbers lo,hi, not 'nan,1'"),
    ("--grid-range", "0,inf", "--grid-range must be two finite numbers lo,hi, not '0,inf'"),
    ("--grid-range", "0", "--grid-range must be two finite numbers lo,hi, not '0'"),
    ("--grid", "0", "--grid must be a positive number of points, not 0"),
    ("--grid", "-3", "--grid must be a positive number of points, not -3"),
    ("--Y", "0.2,nan", "conditioning points Y: coordinates must be finite"),
    ("--Y", "0.2,0.2", "conditioning points Y: points are not pairwise distinct"),
    ("--Y", ",", "conditioning points Y: need n >= 1 points"),
])
@pytest.mark.parametrize("command", ["cond-density", "converge"])
def test_conditional_inputs_are_refused_by_name(capsys, command, flag, value, message):
    extra = ["--limit"] if command == "cond-density" else ["--mode", "conditional",
                                                           "--eps", "1,0.1"]
    code, out, err = run(capsys, command, "--kernel", "gaussian", "--Y", "0.2,0.6",
                         *extra, flag, value)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


def test_converge_conditional_mode(capsys):
    code, out, err = run(capsys, "converge", "--kernel", "gaussian", "--mode", "conditional",
                         "--Y", "0.2,0.5,0.8", "--grid", "30", "--grid-range", "0,2",
                         "--eps", "1,0.1")
    assert code == 0 and err == "target: conditional density\n"
    curve = diagnostics.convergence_curve(
        uniform_points(8, 1, 0), builtin_kernel("gaussian"), [1, 0.1], "conditional",
        Y=np.array([0.2, 0.5, 0.8]), x_grid=np.linspace(0, 2, 30))
    assert curve_of(out) == (curve.epsilons, curve.values)
    code, out, err = run(capsys, "converge", "--kernel", "gaussian", "--mode", "conditional",
                         "--eps", "1,0.1")
    assert code == 2 and out == "" and err == "error: conditional mode needs --Y\n"


def test_converge_conditional_mode_loads_no_ground_set(capsys, monkeypatch):
    def no_load(args):
        raise AssertionError("conditional mode loaded a ground set")

    monkeypatch.setattr(cli, "_load_points", no_load)
    code, out, _ = run(capsys, "converge", "--kernel", "gaussian", "--mode", "conditional",
                       "--Y", "0.2,0.5", "--grid", "10", "--eps", "1,0.1")
    assert code == 0 and out.startswith("epsilon,tv\n")


def series(name, factor=1.0) -> str:
    """--coeffs for the builtin kernel's Taylor series times factor."""
    return ",".join(repr(float(factor * c)) for c in builtin_kernel(name).taylor)


@pytest.mark.parametrize("factor", [1.0, 1e-15, 1e15])
def test_limit_of_a_grid_from_coefficients(capsys, tmp_path, factor):
    # the exponential kernel's series, at any scale, gives the exponential limit
    grid = ["limit", "--gen", "grid", "--n", "9", "--dim", "2", "--m", "5"]
    lim = tmp_path / "lim.json"
    code, _, err = run(capsys, *grid, "--coeffs", series("exponential", factor),
                       "--out", str(lim))
    assert code == 0 and err == "regime: FiniteSmoothness(r=1) bracket: (1, None)\n"
    assert lim.read_text() == run(capsys, *grid, "--kernel", "exponential")[1]
    L = store.read_json(lim)["nnp"]["L"]
    np.testing.assert_array_equal(L, flatlimit.default_ensemble(grid_points(9, 2), 1, 1.0).L)


@pytest.mark.parametrize("command, limit, built, reloaded", [
    ("sample", ["--m", "5"], ["--m", "5", "--samples", "20"], ["--seed", "3", "--samples", "20"]),
    ("size-dist", ["--vary", "--p", "1"], ["--p", "1"], []),
    # at alpha != 1 the limit is the unit pair scaled, not the unit pair itself
    ("size-dist", ["--vary", "--p", "1", "--alpha", "0.1"], ["--p", "1", "--alpha", "0.1"],
     [])])
def test_built_and_reloaded_commands_give_the_same_bytes(capsys, tmp_path, command, limit,
                                                         built, reloaded):
    # sample and size-dist built from --gen and --kernel, without --ensemble;
    # a reloaded sample reads its fixed size from the record and seeds its draws
    cloud = ["--gen", "uniform", "--n", "8", "--dim", "2", "--seed", "3",
             "--kernel", "exponential"]
    lim = str(tmp_path / "lim.json")
    assert run(capsys, "limit", *cloud, *limit, "--out", lim)[0] == 0
    code, out, _ = run(capsys, command, *cloud, *built)
    assert code == 0 and run(capsys, command, "--ensemble", lim, *reloaded) == (0, out, "")


@pytest.mark.parametrize("fixed", [5.0, "5", True])
@pytest.mark.parametrize("command", ["sample", "size-dist"])
def test_a_fixed_size_that_is_not_an_integer_is_refused(capsys, tmp_path, command, fixed):
    lim = tmp_path / "lim.json"
    run(capsys, "limit", "--gen", "uniform", "--n", "8", "--kernel", "exponential",
        "--m", "5", "--out", str(lim))
    obj = json.loads(lim.read_text())
    obj["fixed_size"] = fixed
    lim.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, "--ensemble", str(lim))
    assert code == 2 and out == ""
    assert err == f"error: ensemble record: fixed_size {fixed!r} is not an integer\n"


def test_oracle_command(capsys, tmp_path):
    law = tmp_path / "law.csv"
    code, out, _ = run(capsys, "oracle", "--n", "5", "--samples", "4000",
                       "--seed", "1", "--out", str(law))
    assert code == 0
    assert "varying-size sampler" in out and "fixed-size sampler" in out
    tvs = [float(tok.split("=")[1]) for line in out.splitlines()
           for tok in line.split() if tok.startswith("tv=")]
    assert all(tv <= 0.2 for tv in tvs)
    lines = law.read_text().splitlines()
    assert lines[0] == "subset-bitmask,probability"
    masks = [int(line.split(",")[0]) for line in lines[1:]]
    # ascending as numbers: 2 comes before 10
    assert masks == sorted(set(masks)) and masks[0] < 10 <= masks[-1]
    assert sum(float(line.split(",")[1]) for line in lines[1:]) == pytest.approx(1.0, abs=1e-12)


def test_json_format_output(capsys):
    code, out, _ = run(capsys, "size-dist", "--gen", "uniform", "--n", "4",
                       "--dim", "1", "--seed", "2", "--kernel", "gaussian",
                       "--p", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["columns"] == ["m", "probability"]
    assert sum(v for _, v in obj["rows"]) == pytest.approx(1.0, abs=1e-10)


UNREAD = "unrecognized arguments"


@pytest.mark.parametrize("argv, message", [
    (("limit", "--kernel", "gaussian", "--m", "3", "--format", "json"), UNREAD),
    (("size-dist", "--kernel", "exponential", "--m", "3"), UNREAD),
    (("size-dist", "--kernel", "exponential", "--vary"), UNREAD),
    (("cond-density", "--kernel", "exponential", "--Y", "0.2,0.6", "--dim", "1"), UNREAD),
    (("cond-density", "--kernel", "exponential", "--Y", "0.2,0.6", "--seed", "3"), UNREAD),
    (("size-dist", "--kernel", "exponential", "--eps", "0.5,0.001"),
     "argument --eps: invalid float value: '0.5,0.001'"),
    # beta alone decides a pair: there is no tolerance to set
    (("size-dist", "--ensemble", "f.json", "--psd-tol", "1e-6"), UNREAD),
    # an ensemble file leaves nothing to construct; it is never opened here
    *[((command, "--ensemble", "lim.json", *flags),
       f"argument {flags[0]}: not allowed with argument --ensemble")
      for command in ("size-dist", "sample")
      for flags in (("--points", "p.csv"), ("--gen", "grid"), ("--n", "3"),
                    ("--dim", "2"), ("--kernel", "nosuch"), ("--coeffs", "1,-1"),
                    ("--p", "0"), ("--alpha", "9"))],
    (("sample", "--ensemble", "lim.json", "--vary"),
     "argument --vary: not allowed with argument --ensemble"),
    (("size-dist", "--ensemble", "lim.json", "--seed", "3"),
     "argument --seed: not allowed with argument --ensemble"),
    (("size-dist", "--ensemble", "lim.json", "--eps", "0.1"),
     "argument --eps: not allowed with argument --ensemble"),
    # a fixed-size limit reads no scaling, a varying-size one no size
    (("sample", "--kernel", "gaussian", "--vary", "--p", "2", "--m", "3"),
     "argument --m: not allowed with argument --vary"),
    (("limit", "--kernel", "gaussian", "--vary", "--m", "3"),
     "argument --m: not allowed with argument --vary"),
    *[((command, "--kernel", "gaussian", "--m", "5", *flags),
       f"argument {flags[0]}: only read with argument --vary")
      for command in ("limit", "sample")
      for flags in (("--p", "3"), ("--alpha", "7"))],
    # a conditional curve reads no ground set: a missing file is never opened
    *[(("converge", "--kernel", "gaussian", "--mode", "conditional", "--Y", "0.2,0.5",
        "--grid", "10", "--eps", "1,0.1", *flags),
       f"argument {flags[0]}: not read with --mode conditional")
      for flags in (("--points", "missing.csv"), ("--gen", "grid"), ("--n", "3"),
                    ("--dim", "2"), ("--seed", "3"))],
])
def test_unread_options_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_construction_defaults_fill_in_and_show_in_help(capsys):
    args = parse_args(["sample", "--kernel", "gaussian", "--m", "3"])
    for dest, default in CONSTRUCTION_OPTIONS.items():
        if dest != "kernel":
            assert getattr(args, dest, None) == default
    assert parse_args(["sample", "--kernel", "gaussian", "--n", "5"]).n == 5
    with pytest.raises(SystemExit):
        main(["sample", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for flag in ("gen", "n", "dim", "seed", "p", "alpha"):
        assert f"--{flag} " in help_text
        assert f"default {CONSTRUCTION_OPTIONS[flag]}" in help_text


def test_sample_beside_ensemble_reads_seed_and_size(capsys, tmp_path):
    # --seed seeds the sampler and --m picks the size
    lim = str(tmp_path / "lim.json")
    run(capsys, "limit", "--gen", "uniform", "--n", "6", "--seed", "11",
        "--kernel", "exponential", "--m", "3", "--out", lim)
    code, out, _ = run(capsys, "sample", "--ensemble", lim, "--m", "4", "--seed", "5",
                       "--samples", "20")
    assert code == 0
    sizes = {line.split(",")[2] for line in out.splitlines()[1:]}
    assert sizes == {"4"}
    _, again, _ = run(capsys, "sample", "--ensemble", lim, "--m", "4", "--seed", "5",
                      "--samples", "20")
    _, other, _ = run(capsys, "sample", "--ensemble", lim, "--m", "4", "--seed", "6",
                      "--samples", "20")
    assert out == again and out != other


def test_tampered_ensemble_is_domain_error(capsys, tmp_path):
    lim = tmp_path / "lim.json"
    run(capsys, "limit", "--gen", "uniform", "--n", "5", "--kernel", "exponential",
        "--m", "3", "--out", str(lim))
    obj = json.loads(lim.read_text())
    L = array(obj["nnp"]["L"])
    L[1, 2] = np.nan
    obj["nnp"]["L"] = block(L)
    lim.write_text(json.dumps(obj))
    code, out, err = run(capsys, "size-dist", "--ensemble", str(lim))
    assert code == 2 and out == ""
    assert "L has a non-finite entry" in err


@pytest.mark.parametrize("command", ["size-dist", "sample"])
def test_unreadable_ensemble_is_domain_error(capsys, tmp_path, command):
    lim = tmp_path / "lim.json"
    run(capsys, "limit", "--gen", "uniform", "--n", "5", "--kernel", "exponential",
        "--m", "3", "--out", str(lim))
    text = lim.read_bytes()
    bad = tmp_path / "bad.json"
    # not UTF-8, then cut off
    for data in (b'{"n": \xff}', text[: len(text) // 2]):
        bad.write_bytes(data)
        code, out, err = run(capsys, command, "--ensemble", str(bad))
        assert code == 2 and out == "" and err.startswith("error: ")


#: Ensemble files that are valid JSON but no ensemble record.
MALFORMED_RECORDS = {
    "list": "[1, 2]",
    "number": "5",
    "nnp-number": '{"nnp": 3}',
    "data-number": '{"L": {"shape": [1, 1], "data": 5}, "V": {"shape": [1, 0], "data": ""}}',
    "shape-number": '{"L": {"shape": 4, "data": "AAAAAAAAAAA="}, '
                    '"V": {"shape": [1, 0], "data": ""}}',
    "factor-number": '{"L": {"shape": [1, 1], "data": "AAAAAAAAAAA="}, '
                     '"V": {"shape": [1, 0], "data": ""}, "factor": {"B": 1, "C": 2}}',
    "repeated-key": '{"L": {"shape": [1, 1], "data": "AAAAAAAA8D8=", "data": "AAAAAAAA8D8="}, '
                    '"V": {"shape": [1, 0], "data": ""}}',
    "n-mismatch": '{"n": 7, "p": 0, "L": {"shape": [1, 1], "data": "AAAAAAAA8D8="}, '
                  '"V": {"shape": [1, 0], "data": ""}}',
    "p-string": '{"n": 1, "p": "x", "L": {"shape": [1, 1], "data": "AAAAAAAA8D8="}, '
                '"V": {"shape": [1, 0], "data": ""}}',
}


@pytest.mark.parametrize("command", ["size-dist", "sample"])
@pytest.mark.parametrize("body", MALFORMED_RECORDS)
def test_malformed_ensemble_record_is_domain_error(capsys, tmp_path, command, body):
    bad = tmp_path / "bad.json"
    bad.write_text(MALFORMED_RECORDS[body])
    code, out, err = run(capsys, command, "--ensemble", str(bad))
    assert code == 2 and out == "" and err.startswith("error: ensemble record: ")


@pytest.mark.parametrize("command", ["size-dist", "sample"])
def test_a_bad_string_under_a_repeated_key_is_refused(capsys, tmp_path, command):
    # json.loads would keep the last "data" and refuses the raw tab in the
    # first; the reader refuses the document with json.loads's error
    bad = tmp_path / "bad.json"
    bad.write_text('{"L": {"shape": [1, 1], "data": "x\ty", "data": "AAAAAAAA8D8="}, '
                   '"V": {"shape": [1, 0], "data": ""}}')
    code, out, err = run(capsys, command, "--ensemble", str(bad))
    assert code == 2 and out == "" and err.startswith("error: Invalid control character")


#: A Wronskian limit: Gaussian m = 13 in the plane, p = 10, h = q = 5.
WRONSKIAN = ["limit", "--gen", "uniform", "--n", "300", "--dim", "2", "--seed", "11",
             "--kernel", "gaussian", "--m", "13"]


@pytest.fixture
def wronskian_file(capsys, tmp_path):
    lim = tmp_path / "w.json"
    assert run(capsys, *WRONSKIAN, "--out", str(lim))[0] == 0
    return lim


def test_wronskian_pipeline_decomposes_only_the_factor(capsys, tmp_path, decompositions):
    lim = tmp_path / "w.json"
    assert run(capsys, *WRONSKIAN, "--out", str(lim))[0] == 0
    record = json.loads(lim.read_text())["nnp"]
    assert record["factor"]["B"]["shape"] == [300, 5]
    assert record["factor"]["C"]["shape"] == [5, 5]
    code, out, _ = run(capsys, "size-dist", "--ensemble", str(lim))
    positive = [row.split(",") for row in out.splitlines()[1:] if float(row.split(",")[1]) > 0]
    assert code == 0 and positive[0][0] == "10" and positive[-1][0] == "15"
    code, out, _ = run(capsys, "sample", "--ensemble", str(lim), "--samples", "5")
    assert code == 0 and len(out.splitlines()) == 6
    assert decompositions == {"eigh": 3, "eigvalsh": 0, "cholesky": 0}
    assert max(order for _, order in decompositions.orders) == 5


def tamper(lim, edit):
    obj = json.loads(lim.read_text())
    nnp = obj["nnp"]
    blocks = {"L": nnp["L"], "B": nnp["factor"]["B"], "C": nnp["factor"]["C"]}
    name, arr = edit({key: array(b) for key, b in blocks.items()})
    (nnp if name == "L" else nnp["factor"])[name] = block(arr)
    lim.write_text(json.dumps(obj))


def _scaled(name, factor):
    return lambda blocks: (name, factor * blocks[name])


def _bumped_L(blocks):
    L = blocks["L"]
    L[3, 7] += 1e-6 * np.abs(L).max()
    return "L", L


@pytest.mark.parametrize("edit", [_bumped_L, _scaled("B", 1.001), _scaled("C", 2.0)],
                         ids=["L", "B", "C"])
def test_tampered_wronskian_record_does_not_match(capsys, wronskian_file, edit):
    tamper(wronskian_file, edit)
    code, out, err = run(capsys, "size-dist", "--ensemble", str(wronskian_file))
    assert code == 2 and out == "" and "does not match" in err


def test_record_without_its_factor_reloads_to_the_same_law(capsys, tmp_path, wronskian_file):
    _, factored, _ = run(capsys, "size-dist", "--ensemble", str(wronskian_file))
    obj = json.loads(wronskian_file.read_text())
    del obj["nnp"]["factor"]
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps(obj))
    _, plain, _ = run(capsys, "size-dist", "--ensemble", str(dense))
    law = [[float(c) for c in row.split(",")] for row in factored.splitlines()[1:]]
    ref = [[float(c) for c in row.split(",")] for row in plain.splitlines()[1:]]
    np.testing.assert_allclose(law, ref, rtol=0, atol=1e-10)


def test_a_stored_psd_tol_is_not_read(capsys, tmp_path):
    # a factor whose Schur block has one eigenvalue of -1e-9, in a record
    # that holds "psd_tol": 1e-6, as records written before beta alone
    # decided did; it was accepted then
    e = flatlimit.fixed_size_limit(uniform_points(300, 2, seed=11),
                                   builtin_kernel("gaussian"), 13).process
    B, C = e.factor
    w, Z = np.linalg.eigh(C)
    w[0] = -1e-9
    C = (Z * w) @ Z.T
    L = B @ C @ B.T
    L = 0.5 * (L + L.T)
    lim = tmp_path / "neg.json"
    with lim.open("wb") as fh:
        store.write_json({"n": 300, "p": 10, "L": L, "V": e.V, "psd_tol": 1e-6,
                              "factor": {"B": B, "C": C}}, fh.write)
    code, out, err = run(capsys, "size-dist", "--ensemble", str(lim))
    assert code == 2 and out == "" and "Wronskian Schur block" in err
    # refused by beta = n eps (max |L| + ||N^T L N||_F), which is below 1e-9
    low, beta = re.search(r"min eigenvalue (\S+) < -(\S+)$", err.strip()).groups()
    N = np.linalg.svd(e.V)[0][:, 10:]
    ref = 300 * np.finfo(float).eps * (np.abs(L).max() + np.linalg.norm(N.T @ L @ N))
    assert float(beta) == pytest.approx(ref, rel=1e-2) and float(low) < -float(beta)


def test_limit_validates_only_and_size_dist_reads_eigenvalues_only(
        capsys, tmp_path, decompositions):
    lim = tmp_path / "lim.json"
    code, _, _ = run(capsys, "limit", "--gen", "uniform", "--n", "300", "--dim", "2",
                     "--kernel", "exponential", "--m", "20", "--out", str(lim))
    # validation only: a Cholesky of each diagonal block of N^T L N (n - p = 299)
    assert code == 0 and decompositions.orders == [("cholesky", 256), ("cholesky", 43)]
    # the record holds no tolerance: beta is re-derived from the identical pair
    assert "psd_tol" not in json.loads(lim.read_text())["nnp"]
    decompositions.orders.clear()
    code, out, _ = run(capsys, "size-dist", "--ensemble", str(lim))
    # the one eigvalsh that gives the size law also decides the check
    assert code == 0 and decompositions.orders == [("eigvalsh", 299)]
    assert sum(float(r.split(",")[1]) for r in out.splitlines()[1:]) == pytest.approx(1.0)
    decompositions.orders.clear()
    code, _, _ = run(capsys, "sample", "--ensemble", str(lim), "--samples", "5")
    assert code == 0 and decompositions.orders == [("eigh", 299)]


#: An exponential m = 10 limit on 1000 points: L = -D, V = 1.
MEMORY_LIMIT = ("limit", "--gen", "uniform", "--n", "1000", "--dim", "2",
                "--kernel", "exponential", "--m", "10")


def traced_peak(fn) -> float:
    """Peak of fn's traced allocations, in units of a 1000 x 1000 float64 array."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (1000 * 1000 * 8)
    finally:
        tracemalloc.stop()


def test_limit_working_set(tmp_path):
    """The distance matrix, kept as L, and N^T L N, plus panels of 256 rows:
    no Cholesky factor (4.1 with one) and no symmetrized copy of L (3.6 with
    one)."""
    peak = traced_peak(lambda: main([*MEMORY_LIMIT, "--out", str(tmp_path / "lim.json")]))
    assert peak <= 2.8


def test_reload_working_set(tmp_path):
    """From the record read_json parsed to the size law: N^T L N, plus row
    blocks of 256; the decoded L is kept (2.3 with a symmetrized copy of it,
    4.0 when the blocks were decoded here and a Cholesky ran before the
    eigvalsh)."""
    lim = tmp_path / "lim.json"
    assert main([*MEMORY_LIMIT, "--out", str(lim)]) == 0
    record = store.read_json(lim)["nnp"]
    peak = traced_peak(lambda: ensembles.size_distribution(
        ensembles.nnp_from_dict(record, spectrum="values")))
    assert peak <= 1.5


def test_outputs_deterministic(capsys):
    args = ("inclusion", "--gen", "uniform", "--n", "6", "--dim", "1",
            "--seed", "5", "--kernel", "gaussian", "--m", "2", "--eps", "1.0")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
