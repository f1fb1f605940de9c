#!/usr/bin/env python3
"""galasim benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload gala_n12 --seed 1 --seconds 50 --trace 0

Prints a JSON details line, then as the last line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See bench/NOTES.md.
"""

import os

# One BLAS thread per process, set before numpy loads: the sweep already runs
# one worker per core, and more threads than cores oversubscribe (NOTES.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def result(outcome, bench: dict, trace: bool) -> dict:
    """The result line: every metric BENCHMARK.json declares for the mode,
    with its declared unit."""
    declared = bench["per_layer" if trace else "end_to_end"]
    return {"correct": outcome.attempted > 0 and outcome.failed == 0,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "metrics": {m["name"]: {"value": outcome.metrics[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("gala_n12", "sweep_glyph"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "galasim" / "__init__.py").is_file():
        print(f"galasim sources not found under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import harness

    work = BENCH_DIR / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"details": outcome.details}))
    print(json.dumps(result(outcome, bench, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
