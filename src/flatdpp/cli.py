"""Command-line front end: flat limits, samples, densities and sweeps as CSV.

Exit codes: 0 ok, 1 I/O error, 2 domain or usage error. Floats print with 17
significant digits so files round-trip losslessly. Every command is a
deterministic function of its inputs and the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile

import numpy as np

from . import diagnostics, ensembles, flatlimit, sampling, store
from .geometry import PointSet, grid_points, uniform_points
from .kernels import builtin_kernel, custom_kernel


def _fmt(x) -> str:
    return f"{float(x):.17g}"


@contextlib.contextmanager
def _byte_output(path):
    """A write(bytes) for the file at path, or for stdout when path is None
    or "-"; text already written to stdout goes first.

    A regular file is written to a temporary file beside it, which replaces
    it only once the body has finished: a failed write leaves an existing
    file as it was and no cut-off file behind. Devices and pipes such as
    /dev/null are written in place.
    """
    if path is None or path == "-":
        sys.stdout.flush()
        buffer = getattr(sys.stdout, "buffer", None)
        # a text-only stream (io.StringIO) takes the ASCII bytes as text
        yield buffer.write if buffer else lambda b: sys.stdout.write(b.decode("ascii"))
        return
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as fh:
            yield fh.write
        return
    directory, name = os.path.split(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh.write
        # the mode open() would give a new file, not mkstemp's 0600
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_rows(path, header, rows, fmt="csv"):
    if fmt == "json":
        payload = {"columns": list(header),
                   "rows": [[c if isinstance(c, str) else float(c) for c in row]
                            for row in rows]}
        text = json.dumps(payload) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(c) if not isinstance(c, str) else c for c in row)
                  for row in rows]
        text = "\n".join(lines) + "\n"
    with _byte_output(path) as write:
        write(text.encode())


def _load_points(args) -> PointSet:
    if args.points:
        return PointSet.from_csv(args.points)
    if args.gen == "uniform":
        return uniform_points(args.n, args.dim, args.seed)
    if args.gen == "grid":
        return grid_points(args.n, args.dim)
    raise ValueError("no points source: give --points FILE or --gen uniform|grid with --n")


def _load_kernel(args):
    if args.coeffs:
        return custom_kernel([float(c) for c in args.coeffs.split(",")])
    if args.kernel:
        return builtin_kernel(args.kernel)
    raise ValueError("no kernel: give --kernel NAME or --coeffs f0,f1,...")


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _limit_result(args) -> flatlimit.FlatLimitResult:
    ps = _load_points(args)
    kernel = _load_kernel(args)
    if args.vary:
        return flatlimit.varying_size_limit(ps, kernel, args.p, args.alpha)
    if args.m is None:
        raise ValueError("fixed-size limit needs --m (or use --vary with --p)")
    return flatlimit.fixed_size_limit(ps, kernel, args.m)


def cmd_limit(args) -> int:
    res = _limit_result(args)
    bracket = res.metadata.get("bracket")
    print(f"regime: {res.label}" + (f" bracket: {bracket}" if bracket else ""),
          file=sys.stderr)
    with _byte_output(args.out) as write:
        store.write_json(res.to_dict(), write)
        write(b"\n")
    return 0


def _ensemble_from_args(args, spectrum: str):
    """NNP plus optional fixed size, from --ensemble JSON or a limit construction.

    The file holds a limit record {"nnp": ..., "fixed_size": ...} or a bare
    ensemble record; a malformed one is a ValueError. Its blocks are decoded
    as the file is parsed, and the reloaded pair is validated by the one
    decomposition the command needs: spectrum is "values" or "vectors" (see
    :func:`ensembles.make_nnp`).
    """
    if args.ensemble:
        obj = store.read_json(args.ensemble)
        if not (isinstance(obj, dict) and "nnp" in obj):
            return ensembles.nnp_from_dict(obj, spectrum=spectrum), None
        fixed = obj.get("fixed_size")
        if fixed is not None and type(fixed) is not int:
            raise ValueError(f"ensemble record: fixed_size {fixed!r} is not an integer")
        e = ensembles.nnp_from_dict(obj["nnp"], spectrum=spectrum)
        return e, fixed
    res = _limit_result(args)
    return res.process, res.fixed_size


def cmd_sample(args) -> int:
    e, fixed = _ensemble_from_args(args, "vectors")
    if args.m is not None and args.ensemble:
        fixed = args.m
    rng = sampling.rng_from_seed(args.seed)
    rows = []
    for t in range(args.samples):
        X = (sampling.sample_fixed(e, fixed, rng) if fixed is not None
             else sampling.sample(e, rng))
        # a bitmask fits an int64 only for n <= 63; past that it is left empty
        mask = str(ensembles.mask_of(X)) if e.n <= 63 else ""
        rows.append((str(t), mask, str(len(X)), ";".join(str(i) for i in X)))
    _write_rows(args.out, ["draw", "subset-bitmask", "size", "indices"], rows,
                args.format)
    return 0


def cmd_size_dist(args) -> int:
    if args.ensemble:
        e, _ = _ensemble_from_args(args, "values")
        vec = ensembles.size_distribution(e)
    elif args.eps is not None:
        dist = diagnostics.eps_ensemble_distribution(
            _load_points(args), _load_kernel(args), args.eps, p=args.p, alpha=args.alpha)
        vec = dist.size_marginal()
    else:
        vec = flatlimit.limit_size_distribution(
            _load_points(args), _load_kernel(args), args.p, args.alpha)
    _write_rows(args.out, ["m", "probability"],
                [(str(m), v) for m, v in enumerate(vec)], args.format)
    return 0


def _grid(args) -> np.ndarray:
    """--grid points evenly spaced over --grid-range, or ValueError."""
    bounds = _parse_floats(args.grid_range)
    if len(bounds) != 2 or not np.all(np.isfinite(bounds)):
        raise ValueError(f"--grid-range must be two finite numbers lo,hi, "
                         f"not {args.grid_range!r}")
    if args.grid < 1:
        raise ValueError(f"--grid must be a positive number of points, not {args.grid}")
    return np.linspace(*bounds, args.grid)


def cmd_cond_density(args) -> int:
    kernel = _load_kernel(args)
    Y = np.array(_parse_floats(args.Y))
    grid = _grid(args)
    header = ["x"]
    cols = [grid]
    for eps in _parse_floats(args.eps) if args.eps else []:
        header.append(f"density_eps_{eps:g}")
        cols.append(diagnostics.conditional_density(kernel, Y, grid, eps=eps))
    if args.limit:
        header.append("density_limit")
        cols.append(diagnostics.conditional_density(kernel, Y, grid, eps=None))
    _write_rows(args.out, header, list(zip(*cols)), args.format)
    return 0


def cmd_inclusion(args) -> int:
    ps = _load_points(args)
    kernel = _load_kernel(args)
    header = ["point-index"]
    cols = [np.arange(ps.n)]
    for eps in _parse_floats(args.eps) if args.eps else []:
        dist = diagnostics.eps_ensemble_distribution(ps, kernel, eps, m=args.m)
        header.append(f"inclusion_eps_{eps:g}")
        cols.append(dist.inclusion_vector())
    if args.limit:
        res = flatlimit.fixed_size_limit(ps, kernel, args.m)
        header.append("inclusion_limit")
        cols.append(diagnostics.inclusion_probabilities(res.process, args.m))
    _write_rows(args.out, header, list(zip(*cols)), args.format)
    return 0


def cmd_converge(args) -> int:
    # the conditional density is of the kernel alone: no ground set is read
    ps = None if args.mode == "conditional" else _load_points(args)
    kernel = _load_kernel(args)
    kwargs = {}
    if args.mode in ("full-law", "inclusion"):
        kwargs["m"] = args.m
    elif args.mode == "size-law":
        kwargs["p"], kwargs["alpha"] = args.p, args.alpha
    else:
        if not args.Y:
            raise ValueError("conditional mode needs --Y")
        kwargs["Y"] = np.array(_parse_floats(args.Y))
        kwargs["x_grid"] = _grid(args)
    curve = diagnostics.convergence_curve(
        ps, kernel, _parse_floats(args.eps), args.mode, **kwargs)
    print(f"target: {curve.target}", file=sys.stderr)
    _write_rows(args.out, ["epsilon", "tv"],
                list(zip(curve.epsilons, curve.values)), args.format)
    return 0


def cmd_oracle(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.n
    A = rng.standard_normal((n, n))
    L = A @ A.T / n
    V = rng.standard_normal((n, 2))
    e = ensembles.make_nnp(L, V)
    exact = diagnostics.brute_force_distribution(e)
    tv, size_tv = diagnostics.empirical_check(
        lambda r: sampling.sample(e, r), exact, args.samples, args.seed + 1)
    print(f"varying-size sampler: tv={tv:.5f} size-tv={size_tv:.5f}")
    m = e.p + max(1, e.q // 2)
    exact_m = diagnostics.brute_force_distribution(e, m)
    tv_m, _ = diagnostics.empirical_check(
        lambda r: sampling.sample_fixed(e, m, r), exact_m, args.samples, args.seed + 2)
    print(f"fixed-size sampler (m={m}): tv={tv_m:.5f}")
    if args.out:
        rows = zip(map(str, exact.masks.tolist()), exact.values)
        _write_rows(args.out, ["subset-bitmask", "probability"], rows)
    return 0


#: Options that construct a ground set, a kernel or a limit, with their
#: defaults. They parse as None and :func:`parse_args` fills the defaults in,
#: so that an option given beside --ensemble can be told from one left out.
CONSTRUCTION_OPTIONS = {"points": None, "gen": "uniform", "n": 8, "dim": 1, "seed": 0,
                         "kernel": None, "coeffs": None, "p": 1, "alpha": 1.0,
                         "vary": None, "eps": None}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="flatdpp", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def construction(p, dest, help=None, **kwargs):
        # parsed as None; parse_args fills in the CONSTRUCTION_OPTIONS default
        default = CONSTRUCTION_OPTIONS[dest]
        if default is not None:
            help = f"{help} (default {default})" if help else f"default {default}"
        p.add_argument(f"--{dest}", help=help, **kwargs)

    def ground_set(p):
        construction(p, "points", "CSV of points, one per row, no header")
        construction(p, "gen", choices=["uniform", "grid"])
        construction(p, "n", "generated ground-set size", type=int)
        construction(p, "dim", type=int)
        construction(p, "seed", type=int)

    def kernel(p):
        construction(p, "kernel", "builtin kernel name")
        construction(p, "coeffs", "comma-separated Taylor coefficients")

    def out(p):
        p.add_argument("--out", help="output path (default stdout)")

    def row_output(p):
        out(p)
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    def scaling(p):
        construction(p, "p", type=int)
        construction(p, "alpha", type=float)

    def limit_choice(p):
        p.add_argument("--m", type=int)
        construction(p, "vary", action="store_true", default=None)
        scaling(p)

    def ensemble_file(p):
        p.add_argument("--ensemble", help="JSON produced by the limit command")

    def command(name, func, help, *groups):
        p = sub.add_parser(name, help=help)
        for group in groups:
            group(p)
        p.set_defaults(func=func, parser=p)
        return p

    command("limit", cmd_limit, "construct a flat-limit process (JSON)",
            ground_set, kernel, out, limit_choice)

    p = command("sample", cmd_sample, "draw subsets from an ensemble",
                ground_set, kernel, row_output, limit_choice, ensemble_file)
    p.add_argument("--samples", type=int, default=100)

    p = command("size-dist", cmd_size_dist, "size distribution of a process",
                ground_set, kernel, row_output, scaling, ensemble_file)
    construction(p, "eps", "evaluate the pre-limit ensemble at this eps", type=float)

    p = command("cond-density", cmd_cond_density, "conditional density over a grid",
                kernel, row_output)
    p.add_argument("--Y", required=True, help="conditioning points, comma-separated")
    p.add_argument("--grid", type=int, default=400)
    p.add_argument("--grid-range", default="0,1")
    p.add_argument("--eps", help="comma-separated eps values")
    p.add_argument("--limit", action="store_true", help="append the limit column")

    p = command("inclusion", cmd_inclusion, "inclusion probabilities at fixed size",
                ground_set, kernel, row_output)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", help="comma-separated eps values")
    p.add_argument("--limit", action="store_true")

    p = command("converge", cmd_converge, "distance to the flat limit per eps",
                ground_set, kernel, row_output, scaling)
    p.add_argument("--mode", choices=["full-law", "size-law", "conditional", "inclusion"],
                   default="full-law")
    p.add_argument("--m", type=int)
    p.add_argument("--eps", required=True)
    p.add_argument("--Y")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--grid-range", default="0,1")

    p = command("oracle", cmd_oracle, "sampler vs enumeration TV on a random ensemble")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="also dump the enumerated law as (bitmask, probability)")

    return top


def _check_ensemble_options(args) -> None:
    """Usage error for a construction option given beside --ensemble (sample
    keeps --seed, which seeds its sampler)."""
    if getattr(args, "ensemble", None) is None:
        return
    for dest in CONSTRUCTION_OPTIONS:
        if getattr(args, dest, None) is not None and not (
                dest == "seed" and args.command == "sample"):
            args.parser.error(f"argument --{dest}: not allowed with argument --ensemble")


def _check_limit_choice(args) -> None:
    """Usage error for a limit option the chosen limit does not read: --m
    beside --vary, or --p or --alpha without it."""
    if not hasattr(args, "vary"):
        return
    if args.vary and args.m is not None:
        args.parser.error("argument --m: not allowed with argument --vary")
    for dest in ("p", "alpha"):
        if not args.vary and getattr(args, dest) is not None:
            args.parser.error(f"argument --{dest}: only read with argument --vary")


def _check_conditional_mode(args) -> None:
    """Usage error for a ground-set option given to converge --mode
    conditional, which reads no ground set."""
    if args.command != "converge" or args.mode != "conditional":
        return
    for dest in ("points", "gen", "n", "dim", "seed"):
        if getattr(args, dest) is not None:
            args.parser.error(f"argument --{dest}: not read with --mode conditional")


def parse_args(argv=None) -> argparse.Namespace:
    """Parse a command line; the construction defaults are filled in after
    the checks that none was given beside --ensemble, outside its limit or
    to a mode that reads no ground set."""
    args = build_parser().parse_args(argv)
    _check_ensemble_options(args)
    _check_limit_choice(args)
    _check_conditional_mode(args)
    for dest, default in CONSTRUCTION_OPTIONS.items():
        if default is not None and getattr(args, dest, default) is None:
            setattr(args, dest, default)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
