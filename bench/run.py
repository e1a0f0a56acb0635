"""Benchmark command for pdsplit.

One workload, as a measuring harness runs it:

    python3 bench/run.py --workload desk-schemes --seed 7 --seconds 20 --trace 0

prints human-readable lines and, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  It
exits 1 when any solve or cell fails its correctness gate.

Every workload, both ways, with a summary table and the tracing overhead:

    python3 bench/run.py --all [--seed 7] [--seconds N]

The package is imported from ``src/`` of the checkout this file sits in and
from nowhere else; without it the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# BLAS threads per workload, pinned before numpy loads.  At 500x10000 grad f
# takes about 1.9 ms with 2 threads and 4.0 ms with 1; at 100x2000 a second
# thread makes a PD3O iteration slower (about 250 against 180 us) and bimodal.
BLAS_THREADS = {"desk-schemes": 1, "sweep-compare": 1, "paper-reference": 2}


def import_package(blas_threads: int = 1):
    """Import pdsplit from ROOT/src, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "pdsplit" / "__init__.py").is_file():
        print(f"error: no pdsplit package under {src}", file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(src))
    import pdsplit

    if Path(pdsplit.__file__).resolve().parent != src / "pdsplit":
        print(f"error: pdsplit was imported from {pdsplit.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def run_one(args) -> int:
    threads = min(BLAS_THREADS[args.workload], len(os.sched_getaffinity(0)))
    import_package(threads)
    import workloads

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               workdir, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in result.notes:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if result.failed == 0 else 1


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    summary, status = {}, 0
    for name in BLAS_THREADS:
        summary[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace} exited {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            summary[name]["trace" if trace else "end_to_end"] = result
            print(f"== {name} (trace {trace}) ==")
            print("\n".join(lines[:-1]))
        both = summary[name]
        if "trace" in both and "end_to_end" in both:
            traced = both["trace"]["metrics"]["trace.iter_us.p50"]["value"]
            plain = both["end_to_end"]["metrics"]["iter_us.p50"]["value"]
            both["tracing_overhead_us_per_iter"] = traced - plain
            print(f"tracing overhead = {traced - plain:.4g} us per iteration "
                  f"({traced:.4g} traced, {plain:.4g} untraced)")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {OUT_DIR / 'summary.json'}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(BLAS_THREADS))
    parser.add_argument("--all", action="store_true", help="run every workload both ways")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
