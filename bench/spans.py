"""Spans around the public functions of each flatdpp layer, recorded from outside.

`install` replaces each listed function, in every flatdpp module that holds a
reference to it, with a wrapper that records one span per call: name, start,
end, parent span and the operation it belongs to. Spans stay in memory until
the run ends; `layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

#: (module, attribute, metric prefix). PointSet is timed through __init__;
#: mpmath.det is counted as the diagnostics layer's subset determinants.
TRACED = [
    ("geometry", "PointSet.__init__", "geometry.PointSet"),
    ("geometry", "PointSet.from_csv", "geometry.from_csv"),
    ("geometry", "distance_power_matrix", "geometry.distance_power_matrix"),
    ("kernels", "kernel_matrix", "kernels.kernel_matrix"),
    ("kernels", "builtin_kernel", "kernels.builtin_kernel"),
    ("polybasis", "vandermonde", "polybasis.vandermonde"),
    ("polybasis", "vandermonde_block", "polybasis.vandermonde_block"),
    ("polybasis", "orthonormal_basis", "polybasis.orthonormal_basis"),
    ("wronskian", "wronskian_matrix", "wronskian.wronskian_matrix"),
    ("wronskian", "schur_block", "wronskian.schur_block"),
    ("ensembles", "make_nnp", "ensembles.make_nnp"),
    ("ensembles", "nnp_to_dict", "ensembles.nnp_to_dict"),
    ("ensembles", "nnp_from_dict", "ensembles.nnp_from_dict"),
    ("ensembles", "size_distribution", "ensembles.size_distribution"),
    ("ensembles", "log_unnorm_prob", "ensembles.log_unnorm_prob"),
    ("sampling", "sample_projection", "sampling.sample_projection"),
    ("sampling", "sample_fixed", "sampling.sample_fixed"),
    ("sampling", "sample", "sampling.sample"),
    ("flatlimit", "fixed_size_limit", "flatlimit.fixed_size_limit"),
    ("flatlimit", "varying_size_limit", "flatlimit.varying_size_limit"),
    ("flatlimit", "limit_size_distribution", "flatlimit.limit_size_distribution"),
    ("diagnostics", "brute_force_distribution", "diagnostics.brute_force_distribution"),
    ("diagnostics", "eps_ensemble_distribution", "diagnostics.eps_ensemble_distribution"),
    ("diagnostics", "conditional_density", "diagnostics.conditional_density"),
    ("diagnostics", "convergence_curve", "diagnostics.convergence_curve"),
    ("diagnostics", "tv_distance", "diagnostics.tv_distance"),
    ("cli", "cmd_limit", "cli.limit"),
    ("cli", "cmd_size_dist", "cli.size_dist"),
    ("mpmath", "det", "diagnostics.mp_dets"),
]

#: Per-round counts reported next to the self times: metric -> span name.
COUNTS = {
    "ensembles.make_nnp_calls": "ensembles.make_nnp",
    "ensembles.log_unnorm_prob_calls": "ensembles.log_unnorm_prob",
    "sampling.sample_projection_calls": "sampling.sample_projection",
    "diagnostics.mp_dets": "diagnostics.mp_dets",
}

#: Sum of draw sizes per round, counted from sample_projection results.
DRAW_STEPS = "sampling.draw_steps"

WARMUP = "warmup"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run prints, in BENCHMARK.json order."""
    timed = [f"{prefix}_ms" for _, _, prefix in TRACED if prefix != "diagnostics.mp_dets"]
    return timed + list(COUNTS) + [DRAW_STEPS]


class Tracer:
    """In-memory span recorder; `op` names the operation spans belong to."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.steps: dict[str, int] = {}
        self.op = "setup"
        self.warm_up_only: list[str] = []  # _ms metrics the workload reaches only in warm-up
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, count_steps: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if count_steps:
                self.steps[self.op] = self.steps.get(self.op, 0) + len(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function wherever flatdpp holds a reference to it."""
        import mpmath

        for modname, attr, prefix in TRACED:
            module = mpmath if modname == "mpmath" else sys.modules[f"flatdpp.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(prefix, raw.__func__))
                else:
                    new = self._wrap(prefix, raw)
                setattr(cls, meth, new)
                self._restore.append((cls, meth, raw))
                continue
            orig = getattr(module, attr)
            new = self._wrap(prefix, orig, count_steps=prefix == "sampling.sample_projection")
            holders = [module] + [m for k, m in sys.modules.items()
                                  if k.startswith("flatdpp") and m is not module]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, new)
                        self._restore.append((holder, key, orig))

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Median self time per call (ms) and per-round counts.

        Medians are taken over calls outside warm-up. A function the workload
        reaches only during warm-up reports its warm-up calls on tiny inputs,
        which describe no workload; those metrics are listed in warm_up_only.
        Counts are averaged over the measured rounds (operations whose id
        starts with 'r').
        """
        own = self.self_times()
        by_name: dict[str, list[float]] = {}
        warm: dict[str, list[float]] = {}
        calls: dict[str, int] = {}
        for (name, _, _, _, op), t in zip(self.spans, own):
            (warm if op == WARMUP else by_name).setdefault(name, []).append(t)
            if op.startswith("r"):
                calls[name] = calls.get(name, 0) + 1
        out = {}
        for name in metric_names():
            if name.endswith("_ms"):
                prefix = name[:-3]
                values = by_name.get(prefix)
                if not values:
                    self.warm_up_only.append(name)
                    values = warm.get(prefix) or [0.0]
                out[name] = 1e3 * statistics.median(values)
        for metric, span in COUNTS.items():
            out[metric] = calls.get(span, 0) / rounds
        out[DRAW_STEPS] = sum(v for op, v in self.steps.items() if op.startswith("r")) / rounds
        return out

    def dump(self, path) -> None:
        """Write spans as JSON lines: id, name, start, end, parent, op; the
        first line names the metrics that come from warm-up calls only."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"warm_up_only": self.warm_up_only}) + "\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
