#!/usr/bin/env python3
"""Regenerate bench/reference.json: the record digest and final accuracy of
every protocol seed in each workload's pool, and each workload's accuracy
floor (the lowest final accuracy minus FLOOR_MARGIN).

Run it only on a commit whose outputs are meant to become the reference:

    python3 bench/make_reference.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import math
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import suites  # noqa: E402
from galasim import experiment, federation  # noqa: E402

FLOOR_MARGIN = 0.05


def direct_reference(w) -> dict:
    sources, target = suites.suite_12_sources()
    digests, finals = {}, {}
    for seed in w.seed_pool:
        result = federation.run_gala(harness.protocol_config(w, seed), sources, target)
        digests[str(seed)] = checks.records_digest(result.records)
        finals[str(seed)] = result.final_accuracy
    return {"digests": digests, "final_acc": finals}


def sweep_reference(w, work: Path) -> dict:
    digests, finals = {}, {}
    for base in w.seed_pool:
        spec = experiment.parse_config(harness.write_config(work, f"ref{base}", base))
        if experiment.run_experiment(spec, parallel=harness.SWEEP_WORKERS) != 0:
            raise SystemExit(f"sweep with base seed {base} failed")
        for path in sorted((work / f"ref{base}" / "runs").glob("*.csv")):
            digests[path.name] = checks.file_digest(path)
            finals[path.name] = checks.read_csv(path)[-1]["target_acc"]
    return {"digests": digests, "final_acc": finals}


def main() -> None:
    work = BENCH_DIR / "_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = {}
    try:
        for w in harness.WORKLOADS.values():
            ref = sweep_reference(w, work) if w.name == "sweep_glyph" else direct_reference(w)
            ref["floor"] = math.floor((min(ref["final_acc"].values()) - FLOOR_MARGIN) * 100) / 100
            out[w.name] = ref
            print(w.name, "floor", ref["floor"], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
