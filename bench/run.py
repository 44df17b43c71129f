"""Run one benchmark workload in one process and print its result.

    python3 bench/run.py --workload sample-large --seed 1 --seconds 15 --trace 0

Workloads: sample-large, construct-large, verify-small (see README.md). The
program is imported from `src/` of the checkout this file sits in. BLAS
threads are pinned to the number of CPUs this process may run on.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). Lines before it name each figure with its unit; failed operations
and wrong outputs are listed on standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sample-large", "construct-large", "verify-small")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measure whole rounds until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas_threads() -> int:
    """Must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def import_program() -> float:
    """Import flatdpp from this checkout's src/; returns the import time in seconds."""
    src = ROOT / "src"
    if not (src / "flatdpp" / "__init__.py").is_file():
        sys.exit(f"bench: no flatdpp sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    t0 = time.perf_counter()
    import flatdpp
    import workloads  # noqa: F401  (numpy, mpmath and the benchmark's own modules)
    elapsed = time.perf_counter() - t0
    if Path(flatdpp.__file__).resolve().parent != src / "flatdpp":
        sys.exit(f"bench: flatdpp imported from {flatdpp.__file__}, not from {src}")
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    import_s = import_program()
    import workloads

    out_dir = HERE / "out"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = out_dir / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, rates, run, tracer = workloads.execute(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        tracer.dump(out_dir / f"spans-{tag}.jsonl")
    for line in run.failures:
        print(f"failed operation: {line}", file=sys.stderr)
    for line in run.wrong:
        print(f"WRONG OUTPUT: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} blas_threads {nproc}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {str(result['correct']).lower()}")
    for name, (value, unit) in rates.items():
        print(f"info {name} {value:.6g} {unit}")
    if tracer and tracer.warm_up_only:
        print("warm-up only (tiny warm-up inputs, not this workload): "
              + " ".join(tracer.warm_up_only))
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    line = json.dumps(result)
    (out_dir / f"result-{tag}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
