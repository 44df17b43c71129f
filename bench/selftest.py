"""Tests of the benchmark itself: each check rejects a known-wrong output, and
every workload runs end to end at a tiny size.

    python3 bench/selftest.py
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import shutil
import sys
import unittest
from pathlib import Path

import run

run.pin_blas_threads()
run.import_program()

import numpy as np  # noqa: E402

import flatdpp as fd  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"sample-large": {"n": 60}, "construct-large": {"n": 40},
        "verify-small": {"n_law": 6, "n_size": 5, "grid": 20, "draws": 300}}


def scratch_dir(name: str) -> Path:
    path = run.HERE / "out" / f"selftest-{name}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def limit_payload(coords: np.ndarray, kernel: str, m: int, workdir: Path) -> dict:
    """What `flatdpp limit` writes for these points."""
    csv, out = workdir / "points.csv", workdir / "limit.json"
    np.savetxt(csv, coords, delimiter=",", fmt="%.17g")
    workloads.run_cli(["limit", "--points", csv, "--kernel", kernel, "--m", m, "--out", out])
    return json.loads(out.read_text())


def with_V(payload: dict, V: np.ndarray) -> dict:
    V = np.asarray(V, dtype=float)
    changed = json.loads(json.dumps(payload))
    changed["nnp"]["V"] = {"shape": list(V.shape),
                           "data": base64.b64encode(np.asfortranarray(V).tobytes(order="F")).decode()}
    return changed


class WrongOutputsAreRejected(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.dir = scratch_dir("checks")
        cls.coords = np.random.default_rng(7).uniform(size=(40, 2))
        cls.payload = limit_payload(cls.coords, "gaussian", 10, cls.dir)
        cls.subsets = [sorted(np.random.default_rng(8).choice(40, 10, replace=False).tolist())
                       for _ in range(4)]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def check_payload(self, payload):
        ref.check_limit_payload(payload, self.coords, "gaussian", "ProjectionSmooth", 3, 10,
                                self.subsets, "limit gaussian-m10")

    def test_program_payload_passes(self):
        self.check_payload(self.payload)

    def test_vandermonde_missing_a_monomial(self):
        V = ref.decode_block(self.payload["nnp"]["V"])
        with self.assertRaisesRegex(ref.CheckFailed, "span"):
            self.check_payload(with_V(self.payload, V[:, :-1]))

    def test_V_column_replaced_by_higher_degree_monomial(self):
        V = ref.decode_block(self.payload["nnp"]["V"]).copy()
        V[:, -1] = self.coords[:, 0] ** 4
        with self.assertRaisesRegex(ref.CheckFailed, "span"):
            self.check_payload(with_V(self.payload, V))

    def test_limit_law_perturbed_by_1e6(self):
        x = np.random.default_rng(9).uniform(size=8)
        ps = fd.PointSet(x[:, None])
        law = fd.brute_force_distribution(
            fd.fixed_size_limit(ps, fd.builtin_kernel("gaussian"), 5).process, 5).probs
        closed = ref.squared_difference_law(x, 5)
        ref.check_law(law, closed, 1e-10, "gaussian limit law")
        first, second = sorted(law)[:2]
        wrong = dict(law)
        wrong[first] += 1e-6
        wrong[second] -= 1e-6
        with self.assertRaisesRegex(ref.CheckFailed, "laws differ"):
            ref.check_law(wrong, closed, 1e-10, "gaussian limit law")

    def test_uniform_subset_sampler(self):
        wl = workloads.VerifySmall(1, self.dir, **TINY["verify-small"])
        wl.setup()
        rng = np.random.default_rng(10)
        good = {}
        for _ in range(3000):
            key = ref.mask(fd.sample(wl.ensemble, rng))
            good[key] = good.get(key, 0) + 1
        ref.check_empirical_law(good, wl.law_vary, "sample vs enumeration")
        sizes = [k for k in range(64) if bin(k).count("1") >= 2]
        uniform = {}
        for key in rng.choice(sizes, size=3000):
            uniform[int(key)] = uniform.get(int(key), 0) + 1
        with self.assertRaisesRegex(ref.CheckFailed, "TV"):
            ref.check_empirical_law(uniform, wl.law_vary, "sample vs enumeration")

    def test_region_count_of_wrong_inclusions(self):
        incl = np.full(100, 0.1)
        region = np.arange(100) < 50
        ref.check_region_mean(5.0, incl, region, 50, "strip")
        with self.assertRaisesRegex(ref.CheckFailed, "mean count"):
            ref.check_region_mean(8.0, incl, region, 50, "strip")

    def test_increasing_curve(self):
        ref.check_curve([0.5, 0.1, 0.01], "curve")
        with self.assertRaisesRegex(ref.CheckFailed, "increases"):
            ref.check_curve([0.5, 0.1, 0.2, 0.01], "curve")


class RunRecord(unittest.TestCase):

    def test_checks_run_when_the_round_ends(self):
        def wrong(_):
            raise ref.CheckFailed("wrong")
        run = workloads.Run(None, None)
        run.begin_round()
        run.op("kept", "g", lambda: 1, wrong)
        run.op("known-fault", None, lambda: 2, wrong, fails_op=True)
        self.assertEqual((run.wrong, run.failed), ([], 0))
        run.end_round()
        self.assertEqual((len(run.wrong), run.failed, run.attempted), (1, 1, 2))
        self.assertGreater(run.peak_mb, 0)


class TinyWorkloads(unittest.TestCase):
    """Every workload, traced and untraced, at a size that takes seconds."""

    def run_tiny(self, name: str, trace: bool):
        workdir = scratch_dir(f"{name}-{int(trace)}")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return workloads.execute(name, 3, 0.0, trace, workdir, **TINY[name])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_untraced(self):
        for name in TINY:
            with self.subTest(workload=name):
                result, rates, record, _ = self.run_tiny(name, False)
                self.assertTrue(result["correct"], record.wrong)
                self.assertGreater(result["attempted"], 0)
                self.assertTrue(all(f.startswith("limit-translated:") for f in record.failures),
                                record.failures)
                self.assertEqual(set(result["metrics"]), set(workloads.END_TO_END))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_spans_carry_parents(self):
        result, _, _, tracer = self.run_tiny("verify-small", True)
        self.assertEqual(list(result["metrics"]), spans.metric_names())
        names = {s[0] for s in tracer.spans}
        self.assertTrue({p for _, _, p in spans.TRACED} <= names)
        self.assertTrue(set(tracer.warm_up_only) <= set(result["metrics"]))
        self.assertIn("cli.limit_ms", tracer.warm_up_only)
        children = [s for s in tracer.spans if s[3] is not None]
        self.assertTrue(children)
        for name, start, end, parent, _ in children:
            p = tracer.spans[parent]
            self.assertLessEqual(p[1], start)
            self.assertLessEqual(end, p[2])


if __name__ == "__main__":
    unittest.main()
