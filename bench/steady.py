"""Run every workload several times, one process at a time, and report the spread.

    python3 bench/steady.py --runs 10 [--sets 2] [--workload verify-small ...] [--first-seed 1]

Each run uses the next seed and the run length of BENCHMARK.json. For every
end-to-end metric and every info figure the script prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to
the metric's bound, flagging a spread above a third of the bound; then the
attempted and failed operation counts. With --sets 2 it makes a second set of
runs and prints how far each end-to-end median moved from the first set. With
--traced it also makes traced runs and reports their round time against the
untraced median, which is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result object, {name: value} of the info and metric lines) of one run.
    A traced run's line naming its warm-up-only metrics is printed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    figures = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts and parts[0] in ("info", "metric"):
            figures[parts[1]] = float(parts[2])
        elif line.startswith("warm-up only"):
            print(f"  {workload} {line}")
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return json.loads(lines[-1]), figures


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def report(workload: str, first_seed: int, seconds: int, results: list, figures: list,
           bounds: dict) -> None:
    runs = len(results)
    print(f"\n{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, {seconds} s each")
    print(f"  {'figure':<22} {'median':>11} {'Q1':>11} {'Q3':>11} {'spread':>8} {'bound':>6}")
    for name in figures[0]:
        if name in ("rounds", "setups"):
            continue
        med, q1, q3, rel = spread([f[name] for f in figures])
        bound = bounds.get(name)
        flag = "" if bound is None else f"{bound:>6g}" + ("  OVER bound/3" if rel > bound / 3 else "")
        print(f"  {name:<22} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {rel:>8.2%} {flag}")
    rounds = [f["rounds"] for f in figures]
    setups = [f["setups"] for f in figures]
    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"  rounds per run {min(rounds):g}..{max(rounds):g}; set-ups per run "
          f"{min(setups):g}..{max(setups):g}; (failed, attempted) {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in results)}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--sets", type=int, default=1,
                    help="repeat the whole set of runs; later sets use the next seeds")
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workload or names

    medians: dict[str, list[dict]] = {w: [] for w in workloads}
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        for workload in workloads:
            results, figures = [], []
            for seed in range(first, first + args.runs):
                result, figs = one_run(workload, seed, seconds, 0)
                results.append(result)
                figures.append(figs)
                print(f"  {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr)
            report(workload, first, seconds, results, figures, bounds)
            medians[workload].append({m: statistics.median(f[m] for f in figures) for m in bounds})
            if args.traced and k == 0:
                untraced = medians[workload][0]["round_s"]
                traced = [one_run(workload, seed, seconds, 1)[1]["round_s"]
                          for seed in range(first, first + args.traced)]
                over = statistics.median(traced) / untraced - 1.0
                print(f"  tracing overhead on round_s: {over:+.1%} "
                      f"({args.traced} traced runs, median {statistics.median(traced):.4g} s)")
    if args.sets > 1:
        print("\nmedian of each later set against the first (lower is better for all)")
        for workload in workloads:
            for name, bound in bounds.items():
                base = medians[workload][0][name]
                shifts = [m[name] / base - 1.0 for m in medians[workload][1:]]
                flag = "  OVER bound" if any(abs(x) > bound for x in shifts) else ""
                print(f"  {workload:<16} {name:<12} {base:>10.5g} "
                      + " ".join(f"{x:+.2%}" for x in shifts) + f"  bound {bound:g}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
