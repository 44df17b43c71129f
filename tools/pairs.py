"""Compare two versions of the program on the benchmark, in alternating pairs.

    python3 tools/pairs.py --parent HEAD --change . --pairs 10 --out bench-pairs.json

Each side is exported once into a fresh temporary tree: a git revision with
`git archive`, a directory as the files git would commit from it (tracked
and untracked, less the ignored). For every workload, each pair runs
`bench/run.py` once per side with the same seed and run length, alternating
which side goes first, under PYTHONDONTWRITEBYTECODE=1 so that neither side
reuses compiled sources. `bench/selftest.py` runs once, in the change's tree.

The JSON written holds, per workload and end-to-end metric, each side's
median and quartiles, the per-pair values, the number of pairs where the
change read lower, whether the gap between the medians exceeds the
parent's interquartile range, the gap relative to the parent's median, and
whether that relative gap is past the metric's bound in the change tree's
`BENCHMARK.json`, in the metric's better direction (such a move refuses a
change); per workload, each side's failed operations. A metric that runs no
flatdpp code is flagged, so that its moves are not read as the program's. A
run of fewer than 10 pairs carries a top-level warning.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

WORKLOADS = ("sample-large", "construct-large", "verify-small")
SIDES = ("parent", "change")

#: (workload, metric) -> why the metric does not time the program
FLATDPP_FREE = {
    ("construct-large", "setup_s"):
        "times two np.savetxt calls in ConstructLarge.setup and runs no flatdpp code; "
        "its mode follows the CPU load before the run: about 9 ms right after sustained "
        "load, 14-16 ms after idling (ROADMAP item 1)",
}


#: Pairs below which a run carries a warning: a bias between two trees that
#: do the same work has read as a gap in every one of 6 pairs.
MIN_PAIRS = 10


def pairs_warning(pairs: int) -> str | None:
    """The report's warning for a run of this many pairs, or None."""
    if pairs >= MIN_PAIRS:
        return None
    return (f"{pairs} pairs, fewer than {MIN_PAIRS}: a bias between two trees that do the "
            f"same work has passed 6 pairs as a gap; rerun with --pairs {MIN_PAIRS} and a "
            f"second seed before reading a gain")


def past_bound(relative_gap: float, bound: dict | None) -> bool | None:
    """Whether relative_gap is worse than bound {"bound", "better"}, an
    end-to-end metric of BENCHMARK.json; None without one."""
    if bound is None:
        return None
    worse = relative_gap if bound["better"] == "lower" else -relative_gap
    return worse > bound["bound"]


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (linear interpolation) and their spread."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(workload: str, pairs: list[dict], bounds: dict | None = None) -> dict:
    """The comparison of one workload from its pairs; a metric that runs no
    flatdpp code carries the reason as "flatdpp_free". bounds maps a metric's
    name to its end-to-end entry of BENCHMARK.json ({"bound", "better"}); a
    metric with none has "past_bound" None.

    Each pair is {"first": side, "parent": result, "change": result}, a result
    being {"metrics": {name: {"value", "unit"}}, "attempted", "failed",
    "failures": [lines]}, or {"error": text} for a run that gave no result.
    """
    done = [p for p in pairs if all("metrics" in p[side] for side in SIDES)]
    names = list(done[0]["parent"]["metrics"]) if done else []
    metrics = {}
    for name in names:
        values = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                  for p in done]
        parent, change = (quartiles([v[i] for v in values]) for i in (0, 1))
        gap = change["median"] - parent["median"]
        relative = gap / parent["median"] if parent["median"] else None
        metrics[name] = {
            "unit": done[0]["parent"]["metrics"][name]["unit"],
            "parent": parent,
            "change": change,
            "pairs": [list(v) for v in values],
            "change_lower": sum(c < p for p, c in values),
            "change_higher": sum(c > p for p, c in values),
            "median_gap": gap,
            "gap_exceeds_parent_iqr": abs(gap) > parent["iqr"],
            "relative_gap": relative,
            "past_bound": None if relative is None else past_bound(relative,
                                                                   (bounds or {}).get(name)),
        }
        if (workload, name) in FLATDPP_FREE:
            metrics[name]["flatdpp_free"] = FLATDPP_FREE[workload, name]
    return {
        "pairs_run": len(pairs),
        "pairs_compared": len(done),
        "first": [p["first"] for p in pairs],
        "metrics": metrics,
        "attempted": {side: sum(p[side].get("attempted", 0) for p in pairs) for side in SIDES},
        "failed": {side: sum(p[side].get("failed", 0) for p in pairs) for side in SIDES},
        "failures": {side: sorted({line for p in pairs for line in p[side].get("failures", [])}
                                  | {p[side]["error"] for p in pairs if "error" in p[side]})
                     for side in SIDES},
    }


def export(source: str, dest: Path) -> None:
    """Write the tree of source, a directory or a git revision, into dest."""
    if Path(source).is_dir():
        listed = subprocess.run(
            ["git", "-C", source, "ls-files", "-z", "-co", "--exclude-standard"],
            check=True, capture_output=True).stdout
        files = listed.decode().split("\0")
        for name in filter(None, files):
            src = Path(source) / name
            if src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return
    archive = subprocess.run(["git", "archive", source], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py process in tree: its result with its failed operations."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result = json.loads(lines[-1])
    result["failures"] = [line for line in proc.stderr.splitlines()
                          if line.startswith(("failed operation:", "WRONG OUTPUT:"))]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="git revision or directory (default HEAD)")
    ap.add_argument("--change", default=".", help="git revision or directory (default .)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    report = {"parent": args.parent, "change": args.change, "seed": args.seed,
              "seconds": args.seconds,
              "machine": {"cpus": len(os.sched_getaffinity(0)),
                          "python": platform.python_version(), "platform": platform.platform()},
              "workloads": {}}
    warning = pairs_warning(args.pairs)
    if warning:
        report["warning"] = warning
        print(f"warning: {warning}", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="flatdpp-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            trees[side].mkdir()
            export(getattr(args, side), trees[side])
        declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        bounds = {m["name"]: m for m in declared["end_to_end"]}
        for workload in args.workloads:
            pairs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, args.seed, args.seconds)
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{side} {pair[side].get('metrics', {}).get('setup_s', {}).get('value')}"
                    for side in SIDES) + " (setup_s)", file=sys.stderr)
            report["workloads"][workload] = summarize(workload, pairs, bounds)
        start = time.perf_counter()
        selftest = subprocess.run([sys.executable, "bench/selftest.py"], cwd=trees["change"],
                                  env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                                  capture_output=True, text=True)
        tail = (selftest.stderr or selftest.stdout).strip().splitlines()
        report["selftest"] = {"tree": "change", "passed": selftest.returncode == 0,
                              "last_line": tail[-1] if tail else "",
                              "seconds": round(time.perf_counter() - start, 1)}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if report["selftest"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
