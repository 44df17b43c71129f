"""The three workloads, the operation recorder, and one benchmark run end to end.

Each workload is a closed loop with one caller. `__init__` makes the inputs
from the seed and the benchmark's own references (untimed); `setup` is the
set-up a user pays before the first result (timed, repeated); `round` runs one
round of operations through the public API or `flatdpp.cli.main`, checking
the outputs of the round once its last operation has returned; `finish`
makes the checks that pool a whole run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import resource
import statistics
import time
from pathlib import Path

import mpmath
import numpy as np

import flatdpp as fd
from flatdpp.cli import main as cli_main

import reference as ref
from spans import WARMUP, Tracer

#: Set-up is repeated at least SETUP_MIN times and until SETUP_MIN_S seconds
#: have been spent on it (at most SETUP_MAX times); its median is reported.
SETUP_MIN, SETUP_MIN_S, SETUP_MAX = 3, 2.0, 400

#: Seed of the translated cloud in construct-large. It does not follow
#: --seed, so the commands that fail on it fail in every run.
TRANSLATED_SEED = 20210715

EPS_GRID = [4.0, 1.5, 0.5, 0.1, 0.01, 1e-3]

#: The reference loops run at most this often (seconds) during a run.
PROBE_EVERY_S = 0.2


#: A fixed 5 x 5 Hilbert matrix for the mpmath reference loop, and mpmath.det
#: bound before a traced run wraps it, so the loop's calls are not counted.
_HILBERT = mpmath.matrix([[mpmath.mpf(1) / (i + j + 1) for j in range(5)] for i in range(5)])
_MP_DET = mpmath.det


def mpmath_loop() -> float:
    """Fixed interpreted work like verify-small's subset determinants (mpmath,
    independent of flatdpp); returns its duration."""
    t0 = time.perf_counter()
    with mpmath.workdps(40):
        for _ in range(4):
            _MP_DET(_HILBERT)
    return time.perf_counter() - t0


def memory_loop() -> float:
    """Fixed numpy work shaped like one chain-rule step at n = 2000 (fresh
    n x n arrays, a rank-one downdate), independent of flatdpp; returns its duration."""
    t0 = time.perf_counter()
    c = np.linspace(0.0, 1.0, 2000)
    P = np.outer(c, c)
    P = P - np.outer(c, c)
    return time.perf_counter() - t0


#: Probe kind -> (reference loop, its median duration in seconds on the
#: machine the README figures come from).
PROBES = {"mpmath": (mpmath_loop, 3.5e-3), "memory": (memory_loop, 33e-3)}


class SpeedProbe:
    """Times a reference loop now and then through a run.

    On a shared VM the speed of the machine drifts by a third within minutes
    and by a fifth within one run. A workload with a probe reports each timed
    phase (its set-up, each round) scaled by the loop's reference duration
    over the loop's median duration during that phase, which cancels the
    drift the loop shares with the workload; wall times stay in the info
    lines. verify-small is interpreted mpmath and Python (mpmath loop);
    sample-large's draws allocate and downdate n x n arrays (memory loop).
    A workload's `scaled` names the metrics its probe applies to.
    """

    def __init__(self, kind: str):
        self.loop, self.reference_s = PROBES[kind]
        self.samples: list[float] = []
        self.last = -math.inf

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.samples.append(self.loop())
            self.last = time.perf_counter()

    def scale_since(self, first: int) -> float:
        """Reference over median duration of the samples from index `first` on."""
        if first >= len(self.samples):  # a phase shorter than PROBE_EVERY_S
            self.samples.append(self.loop())
        return self.reference_s / statistics.median(self.samples[first:])


class ProgramFailed(RuntimeError):
    """A CLI command exited with a nonzero code."""


def run_cli(args: list) -> str:
    """Call the CLI in-process; returns its stderr, raises on a nonzero exit code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in args])
    if code != 0:
        raise ProgramFailed(f"exit {code}: {err.getvalue().strip()}")
    return err.getvalue()


class Run:
    """Operation counts, timings and check results of one run."""

    def __init__(self, tracer: Tracer | None, probe: SpeedProbe | None):
        self.tracer = tracer
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []      # outputs that failed a check
        self.failures: list[str] = []   # operations that failed
        self.group_times: dict[str, list[float]] = {}
        self.round_times: list[float] = []
        self.round_units: list[float] = []  # work done per round, if the workload counts it
        self.round_scales: list[float] = []  # speed scale of each round (1 without a probe)
        self._probe_mark = 0
        self.round = -1
        self.peak_mb = math.nan
        self._pending: list[tuple] = []  # (name, output, check, fails_op) of this round

    def begin_round(self) -> None:
        self.round += 1
        self.round_times.append(0.0)
        self.round_units.append(0.0)
        if self.probe:
            self.probe.maybe()
            self._probe_mark = len(self.probe.samples) - 1

    def end_round(self) -> None:
        """Check the round's outputs. The peak resident set is read before the
        first round's checks, so it is the program's and not the checker's."""
        if self.round == 0:
            self.peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.round_scales.append(self.probe.scale_since(self._probe_mark) if self.probe else 1.0)
        pending, self._pending = self._pending, []
        for name, out, check, fails_op in pending:
            try:
                check(out)
            except ref.CheckFailed as err:
                if fails_op:
                    self.failed += 1
                    self.failures.append(f"{name}: {err}")
                else:
                    self.wrong.append(f"{name}: {err}")

    def op(self, name: str, group: str | None, fn, check=None, fails_op: bool = False):
        """Run one operation; time it into `group` unless group is None.

        An exception from the program fails the operation. The output is
        checked when the round ends; a failed check marks it wrong, or fails
        the operation when fails_op is set (operations kept as counted
        failures of a known fault).
        """
        self.attempted += 1
        if self.probe:
            self.probe.maybe()
        if self.tracer:
            self.tracer.op = f"r{self.round}:{name}"
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as err:  # the program's failure is the operation's outcome
            self.failed += 1
            self.failures.append(f"{name}: {type(err).__name__}: {err}")
            return None
        dt = time.perf_counter() - t0
        if group is not None:
            self.round_times[-1] += dt
            self.group_times.setdefault(group, []).append(dt)
        if check is not None:
            self._pending.append((name, out, check, fails_op))
        return out

    def rate(self, group: str) -> float:
        times = self.group_times.get(group, [])
        return len(times) / sum(times) if times else math.nan

    def check(self, what: str, fn) -> None:
        """An end-of-run check over pooled outputs."""
        try:
            fn()
        except ref.CheckFailed as err:
            self.wrong.append(f"{what}: {err}")


def streams(seed: int, k: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(k)]


# ---------------------------------------------------------------------------
# sample-large
# ---------------------------------------------------------------------------


class SampleLarge:
    """Round-robin draws from three flat limits on n seeded points in [0,1]^2."""

    name = "sample-large"
    probe, scaled = "memory", ("round_s",)  # set-up is LAPACK-bound, not memory-bound
    M = 10
    ALPHA = 0.1
    #: A round's time is reported per this many chain-rule steps (10 + 10 +
    #: E|X| of about 25), so the random size of the varying draw does not move it.
    STEPS_PER_ROUND = 45

    def __init__(self, seed: int, workdir: Path, n: int = 2000):
        cloud_rng, self.rng = streams(seed, 2)
        self.coords = cloud_rng.uniform(size=(n, 2))
        self.n = n
        self.strip = np.min(np.minimum(self.coords, 1.0 - self.coords), axis=1) < 0.1
        self.V_proj = ref.monomials(ref.centred(self.coords), 3)
        self.tally = {kind: [0, 0.0, 0.0] for kind in ("proj", "fixed", "vary")}

    def setup(self) -> None:
        self.proj = self.fixed = self.vary = None  # one set of ensembles alive at a time
        ps = fd.PointSet(self.coords)
        gauss, expo = fd.builtin_kernel("gaussian"), fd.builtin_kernel("exponential")
        self.proj = fd.fixed_size_limit(ps, gauss, self.M)
        self.fixed = fd.fixed_size_limit(ps, expo, self.M)
        self.vary = fd.varying_size_limit(ps, expo, 1, self.ALPHA)

    def _checker(self, kind: str):
        n, M = self.n, self.M
        size_range = (1, n) if kind == "vary" else (M, M)

        def check(X):
            X = ref.check_draw(X, n, size_range, f"{kind} draw")
            if kind == "proj":
                ref.check_positive_mass(np.zeros((M, M)), self.V_proj[X], range(M), "proj draw")
            else:
                scale = 1.0 if kind == "fixed" else self.ALPHA
                ref.check_positive_mass(-scale * ref.distance_power(self.coords[X], 1),
                                        np.ones((len(X), 1)), range(len(X)), f"{kind} draw")
            t = self.tally[kind]
            t[0] += 1
            t[1] += int(self.strip[X].sum())
            t[2] += len(X)

        return check

    def round(self, run: Run) -> None:
        rng, M = self.rng, self.M
        draws = [
            run.op("proj-draw", "proj_draws", lambda: fd.sample_fixed(self.proj.process, M, rng),
                   self._checker("proj")),
            run.op("fixed-draw", "fixed_draws",
                   lambda: fd.sample_fixed(self.fixed.process, M, rng), self._checker("fixed")),
            run.op("vary-draw", "vary_draws", lambda: fd.sample(self.vary.process, rng),
                   self._checker("vary"))]
        run.round_units[-1] = sum(len(X) for X in draws if X is not None) / self.STEPS_PER_ROUND

    def finish(self, run: Run) -> dict:
        run.check("regimes", lambda: ref.require(
            [self.proj.label, self.fixed.label, self.vary.label]
            == ["ProjectionSmooth(k=3)", "FiniteSmoothness(r=1)", "VaryingFiniteSmoothness(r=1)"],
            "sample-large ensembles built in unexpected regimes"))
        Q, lam, U = ref.complement_spectrum(-ref.distance_power(self.coords, 1),
                                            np.ones((self.n, 1)))
        incl = {"proj": ref.inclusion_projection(self.V_proj),
                "fixed": ref.inclusion_fixed(Q, lam, U, self.M),
                "vary": ref.inclusion_varying(Q, self.ALPHA * lam, U)}
        everywhere = np.ones(self.n, dtype=bool)
        for kind, (draws, in_strip, points) in self.tally.items():
            if draws:
                run.check(f"{kind} strip count", lambda: ref.check_region_mean(
                    in_strip / draws, incl[kind], self.strip, draws, f"{kind} strip count"))
        draws, _, points = self.tally["vary"]
        if draws:
            run.check("vary size", lambda: ref.check_region_mean(
                points / draws, incl["vary"], everywhere, draws, "vary mean size"))
        return {"proj_draws_per_s": (run.rate("proj_draws"), "draws/s"),
                "fixed_draws_per_s": (run.rate("fixed_draws"), "draws/s"),
                "vary_draws_per_s": (run.rate("vary_draws"), "draws/s")}


# ---------------------------------------------------------------------------
# construct-large
# ---------------------------------------------------------------------------

FIXED_LIMITS = [("gaussian", 10), ("gaussian", 13), ("exponential", 10),
                ("(3+3d+d^2)exp(-d)", 8)]
VARYING_LIMITS = [("exponential", 1), ("gaussian", 2), ("gaussian", 3)]


def projective_rank(regime: str, param: int, d: int) -> int:
    degree = {"ProjectionSmooth": param, "VaryingProjection": param - 1,
              "NonMagicWronskian": param - 1, "VaryingWronskian": param - 1,
              "FiniteSmoothness": param - 1, "VaryingFiniteSmoothness": param - 1}[regime]
    return ref.npoly(degree, d)


class ConstructLarge:
    """CLI `limit` then `size-dist --ensemble` for every regime on n points in [0,1]^2.

    The four fixed-size `limit` commands also run on a cloud translated into
    [10,11]^2; those are counted, not timed into any end-to-end metric.
    """

    name = "construct-large"
    probe, scaled = None, ()
    SUBSETS = 8

    def __init__(self, seed: int, workdir: Path, n: int = 2000):
        cloud_rng, subset_rng = streams(seed, 2)
        fixed_rng = np.random.default_rng(TRANSLATED_SEED)
        self.n, self.dir = n, workdir
        self.coords = cloud_rng.uniform(size=(n, 2))
        self.translated_coords = fixed_rng.uniform(size=(n, 2)) + 10.0
        sizes = sorted({m for _, m in FIXED_LIMITS})
        self.subsets = {m: self.draw_subsets(subset_rng, m) for m in sizes}
        self.translated_subsets = {m: self.draw_subsets(fixed_rng, m) for m in sizes}
        self.points = workdir / "points.csv"
        self.translated = workdir / "translated.csv"
        self.specs = []
        for kernel, m in FIXED_LIMITS:
            regime, param = ref.fixed_regime(2, ref.SMOOTHNESS[kernel], m)
            self.specs.append((f"{kernel}-m{m}", kernel, ["--m", m], regime, param, m))
        for kernel, p in VARYING_LIMITS:
            regime, param = ref.varying_regime(n, 2, ref.SMOOTHNESS[kernel], p)
            self.specs.append((f"{kernel}-p{p}", kernel, ["--vary", "--p", p], regime, param, None))

    def draw_subsets(self, rng, m: int) -> list[list[int]]:
        return [sorted(rng.choice(self.n, size=m, replace=False).tolist())
                for _ in range(self.SUBSETS)]

    def setup(self) -> None:
        np.savetxt(self.points, self.coords, delimiter=",", fmt="%.17g")
        np.savetxt(self.translated, self.translated_coords, delimiter=",", fmt="%.17g")

    def round(self, run: Run) -> None:
        """Every output file of a round has its own name: the checks read them
        after the round's last command."""
        for i, (tag, kernel, flags, regime, param, m) in enumerate(self.specs):
            out = self.dir / f"limit{i}.json"
            dist = self.dir / f"size{i}.csv"
            out.unlink(missing_ok=True)
            run.op(f"limit:{tag}", "limits",
                   functools.partial(run_cli, ["limit", "--points", self.points,
                                               "--kernel", kernel, *flags, "--out", out]),
                   functools.partial(self.check_limit, out, kernel, regime, param, m, tag))
            run.op(f"size-dist:{tag}", "reloads",
                   functools.partial(run_cli, ["size-dist", "--ensemble", out, "--out", dist]),
                   functools.partial(self.check_size_dist, dist, regime, param, m, tag))
        for i, (tag, kernel, flags, regime, param, m) in enumerate(self.specs):
            if m is None:
                continue
            out = self.dir / f"translated{i}.json"
            out.unlink(missing_ok=True)
            run.op(f"limit-translated:{tag}", None,
                   functools.partial(run_cli, ["limit", "--points", self.translated,
                                               "--kernel", kernel, *flags, "--out", out]),
                   functools.partial(self.check_translated, out, kernel, regime, param, m, tag),
                   fails_op=True)

    def check_limit(self, out: Path, kernel, regime, param, m, tag, _stderr) -> None:
        subsets = self.subsets[m] if regime == "ProjectionSmooth" else []
        ref.check_limit_payload(json.loads(out.read_text()), self.coords, kernel, regime,
                                param, m, subsets, f"limit {tag}")

    def check_size_dist(self, dist: Path, regime, param, m, tag, _stderr) -> None:
        ref.check_size_dist(ref.read_size_dist(dist), self.n, projective_rank(regime, param, 2),
                            m, f"size-dist {tag}")

    def check_translated(self, out: Path, kernel, regime, param, m, tag, _stderr) -> None:
        """Same law as the untranslated construction, on the same subsets, within 1e-8.

        Translation maps the monomial basis by a unit-triangular matrix and
        adds span(V) terms to L, so bordered determinants are invariant; the
        reference is built on the centred cloud. The subsets, like the cloud,
        do not follow --seed, so the outcome is the same in every run.
        """
        nnp = json.loads(out.read_text())["nnp"]
        L, V = ref.decode_block(nnp["L"]), ref.decode_block(nnp["V"])
        L_ref, V_ref = ref.limit_pair(ref.centred(self.translated_coords), kernel, regime, param)
        ref.check_subset_laws(L, V, L_ref, V_ref, self.translated_subsets[m], 1e-8,
                              f"translated {tag}")

    def finish(self, run: Run) -> dict:
        return {"limits_per_s": (run.rate("limits"), "commands/s"),
                "reloads_per_s": (run.rate("reloads"), "commands/s")}


# ---------------------------------------------------------------------------
# verify-small
# ---------------------------------------------------------------------------

KERNELS = ["gaussian", "exponential", "(1+d)exp(-d)", "sin(d+pi/4)exp(-d)", "(3+3d+d^2)exp(-d)"]

#: Full-law curves at n = 8, d = 1. Gaussian m = 5 is left out: on about one
#: seed in four its float-backend TV at eps = 0.1 is off (clustered points
#: lose more digits than the float/mp switch assumes) and the curve rises.
FULL_LAW = [(name, m) for name in KERNELS for m in (3, 5) if (name, m) != ("gaussian", 5)]


class VerifySmall:
    """The paper's verification loop at small n: curves, an mp law, small draws."""

    name = "verify-small"
    probe, scaled = "mpmath", ("setup_s", "round_s")

    def __init__(self, seed: int, workdir: Path, n_law: int = 10, n_size: int = 8,
                 grid: int = 200, draws: int = 2000):
        cloud, rng = streams(seed, 2)
        self.x8 = cloud.uniform(size=(8, 1))
        self.x7 = cloud.uniform(size=(7, 2))
        self.x_law = cloud.uniform(size=(n_law, 1))
        self.x_size = self.x8[:n_size]
        self.Y = np.sort(cloud.uniform(size=4))
        self.grid = np.linspace(0.0, 1.0, grid)
        A = cloud.standard_normal((6, 6))
        self.L, self.V = A @ A.T / 6, cloud.standard_normal((6, 2))
        self.rng, self.draws = rng, draws
        x = self.x8[:, 0]
        self.closed = {}
        self.closed["gaussian", 3] = ref.squared_difference_law(x, 3)
        for m in (3, 5):
            self.closed["exponential", m] = ref.gap_product_law(x, m)
            regime, param = ref.fixed_regime(1, 3, m)
            self.closed["(3+3d+d^2)exp(-d)", m] = ref.fixed_law(
                *ref.limit_pair(self.x8, "(3+3d+d^2)exp(-d)", regime, param), m)
        self.closed["bivariate"] = ref.fixed_law(
            *ref.limit_pair(self.x7, "gaussian", "NonMagicWronskian", 2), 4)
        self.law_vary = ref.varying_law(self.L, self.V)
        self.law_fixed = ref.fixed_law(self.L, self.V, 3)
        self.counts = {"vary": {}, "fixed": {}}
        self.r2_laws: dict[int, dict] = {}

    def setup(self) -> None:
        self.ps8, self.ps7 = fd.PointSet(self.x8), fd.PointSet(self.x7)
        self.ps_law, self.ps_size = fd.PointSet(self.x_law), fd.PointSet(self.x_size)
        self.kernels = {name: fd.builtin_kernel(name) for name in KERNELS}
        self.ensemble = fd.make_nnp(self.L, self.V)

    def _full_law(self, ps, kernel, m):
        curve = fd.convergence_curve(ps, kernel, EPS_GRID, "full-law", m=m)
        law = fd.brute_force_distribution(fd.fixed_size_limit(ps, kernel, m).process, m)
        return curve, law.probs

    def _check_full_law(self, name: str, m: int):
        def check(out):
            curve, law = out
            ref.check_curve(curve.values, f"{name} m={m} curve")
            if (name, m) in self.closed:
                ref.check_law(law, self.closed[name, m], 1e-10, f"{name} m={m} limit law")
            elif m in self.r2_laws:
                ref.check_law(law, self.r2_laws[m], 1e-8, f"r=2 kernels at m={m}")
            else:
                self.r2_laws[m] = law
        return check

    def _tally(self, kind: str, size_range):
        counts = self.counts[kind]

        def check(X):
            X = ref.check_draw(X, 6, size_range, f"{kind} draw")
            key = ref.mask(X)
            counts[key] = counts.get(key, 0) + 1
        return check

    def round(self, run: Run) -> None:
        self.r2_laws.clear()
        for name, m in FULL_LAW:
            run.op(f"curve:{name}-m{m}", "curves",
                   lambda: self._full_law(self.ps8, self.kernels[name], m),
                   self._check_full_law(name, m))

        def check_bivariate(out):
            ref.check_curve(out[0].values, "bivariate curve")
            ref.check_law(out[1], self.closed["bivariate"], 1e-10, "bivariate limit law")
        run.op("curve:bivariate", "curves",
               lambda: self._full_law(self.ps7, self.kernels["gaussian"], 4), check_bivariate)
        run.op("curve:size-law", "curves",
               lambda: fd.convergence_curve(self.ps_size, self.kernels["exponential"], EPS_GRID,
                                            "size-law", p=1),
               lambda c: ref.check_curve(c.values, "size-law curve"))
        run.op("curve:conditional", "curves",
               lambda: fd.convergence_curve(self.ps8, self.kernels["exponential"], EPS_GRID,
                                            "conditional", Y=self.Y, x_grid=self.grid),
               lambda c: ref.check_curve(c.values, "conditional curve"))

        def backends():
            kw = dict(eps=0.5, p=1, alpha=1.0)
            return [fd.eps_ensemble_distribution(self.ps_law, self.kernels["exponential"],
                                                 precision=prec, **kw).probs
                    for prec in ("mp", "float")]
        run.op("mp-law", "mp_laws", backends,
               lambda laws: ref.check_law(laws[0], laws[1], 1e-8, "mp vs float backend"))
        for _ in range(self.draws):
            run.op("vary-draw", "vary_draws", lambda: fd.sample(self.ensemble, self.rng),
                   self._tally("vary", (2, 6)))
            run.op("fixed-draw", "fixed_draws", lambda: fd.sample_fixed(self.ensemble, 3, self.rng),
                   self._tally("fixed", (3, 3)))

    def finish(self, run: Run) -> dict:
        run.check("vary sampler", lambda: ref.check_empirical_law(
            self.counts["vary"], self.law_vary, "sample vs enumeration"))
        run.check("fixed sampler", lambda: ref.check_empirical_law(
            self.counts["fixed"], self.law_fixed, "sample_fixed vs enumeration"))
        return {"curves_per_s": (run.rate("curves"), "curves/s"),
                "fixed_draws_per_s": (run.rate("fixed_draws"), "draws/s"),
                "vary_draws_per_s": (run.rate("vary_draws"), "draws/s")}


WORKLOADS = {w.name: w for w in (SampleLarge, ConstructLarge, VerifySmall)}


# ---------------------------------------------------------------------------
# One run.
# ---------------------------------------------------------------------------


def warm_up(workdir: Path) -> None:
    """Reach every traced function once on tiny inputs before anything is timed.

    This pays first-call costs (BLAS and LAPACK thread start-up, mpmath, argument
    parsing) and gives every layer at least one span in every workload.
    """
    coords = np.random.default_rng(0).uniform(size=(12, 2))
    csv, out, dist = workdir / "warmup.csv", workdir / "warmup.json", workdir / "warmup-size.csv"
    np.savetxt(csv, coords, delimiter=",", fmt="%.17g")
    run_cli(["limit", "--points", csv, "--kernel", "gaussian", "--m", 4, "--out", out])
    run_cli(["size-dist", "--ensemble", out, "--out", dist])
    ps = fd.PointSet(coords[:6, :1])
    expo = fd.builtin_kernel("exponential")
    fd.convergence_curve(ps, expo, [0.5, 1e-3], "full-law", m=3)
    fd.convergence_curve(ps, expo, [0.5], "size-law", p=1)
    fd.convergence_curve(ps, expo, [0.5], "conditional", Y=[0.2, 0.6],
                         x_grid=np.linspace(0.0, 1.0, 5))
    process = fd.varying_size_limit(ps, expo, 1, 1.0).process
    rng = np.random.default_rng(0)
    fd.sample(process, rng)
    fd.sample_fixed(process, 2, rng)


#: End-to-end metrics of an untraced run, with units.
END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def execute(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
            import_s: float = 0.0, **sizes) -> tuple[dict, dict, Run, Tracer | None]:
    """Warm up, set up repeatedly, run whole rounds for `seconds`, check.

    Returns the result object, the per-kind rates and other info figures
    (name -> (value, unit)), the run's record, and the tracer when tracing.
    Import and warm-up times are info figures only: they are paid once per
    process and vary most, so `setup_s` is the median repeated set-up.
    """
    cls = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    probe = SpeedProbe(cls.probe) if cls.probe else None
    if tracer:
        tracer.install()
    try:
        if probe:
            probe.maybe()
        t0 = time.perf_counter()
        if tracer:
            tracer.op = WARMUP
        warm_up(workdir)
        warm_s = time.perf_counter() - t0
        wl = cls(seed, workdir, **sizes)
        setup_times: list[float] = []
        setup_mark = len(probe.samples) if probe else 0
        while (len(setup_times) < SETUP_MIN
               or (sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX)):
            if tracer:
                tracer.op = f"setup{len(setup_times)}"
            if probe:
                probe.maybe()
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_scale = probe.scale_since(setup_mark) if probe else 1.0
        run = Run(tracer, probe)
        start = time.perf_counter()
        while run.round < 0 or time.perf_counter() - start < seconds:
            run.begin_round()
            wl.round(run)
            run.end_round()
        rates = wl.finish(run)
    finally:
        if tracer:
            tracer.uninstall()
    rounds = run.round + 1
    round_times = [t / u if u else t for t, u in zip(run.round_times, run.round_units)]
    wall_setup = statistics.median(setup_times)
    wall_round = statistics.median(round_times)
    setup_s = wall_setup * (setup_scale if "setup_s" in cls.scaled else 1.0)
    round_s = statistics.median([t * (k if "round_s" in cls.scaled else 1.0)
                                 for t, k in zip(round_times, run.round_scales)])
    if tracer:
        values = tracer.layer_metrics(rounds)
        units = {k: ("ms" if k.endswith("_ms") else "count") for k in values}
        rates.update(setup_s=(setup_s, "s"), round_s=(round_s, "s"))
    else:
        values = {"setup_s": setup_s, "round_s": round_s, "peak_rss_mb": run.peak_mb}
        units = END_TO_END
    rates.update(rounds=(rounds, "count"), setups=(len(setup_times), "count"),
                 import_s=(import_s, "s"), warm_up_s=(warm_s, "s"),
                 wall_setup_s=(wall_setup, "s"), wall_round_s=(wall_round, "s"))
    if probe:
        rates.update(setup_speed_scale=(setup_scale, "x"),
                     round_speed_scale=(statistics.median(run.round_scales), "x"))
    result = {"correct": not run.wrong, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    return result, rates, run, tracer
