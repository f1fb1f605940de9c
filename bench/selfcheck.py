#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark harness (a few seconds):

* every workload, traced and untraced, emits exactly the metrics that
  BENCHMARK.json names, with the units it names, as finite numbers;
* a corrupted record or metrics CSV trips the output checks.

Usage, from the root of a checkout:  python3 bench/selfcheck.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import math
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import suites  # noqa: E402
from galasim import emit_metrics, federation  # noqa: E402

TINY_ROUNDS = 2


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {what}")


def shrink() -> None:
    """Make every workload tiny: 2 rounds, one run, one set-up, small glyphs."""
    full_config = harness.protocol_config
    harness.protocol_config = lambda w, seed, rounds=TINY_ROUNDS: full_config(w, seed, rounds)
    harness.SWEEP_ROUNDS = TINY_ROUNDS
    suites.GLYPH_CONFIG = (suites.GLYPH_CONFIG.replace("rounds = 20", f"rounds = {TINY_ROUNDS}")
                           .replace("samples_per_class = 60", "samples_per_class = 10"))
    for name, w in harness.WORKLOADS.items():
        harness.WORKLOADS[name] = replace(w, min_runs=1, setup_reps=1, tail_percentile=50)
    reference = checks.load_reference()
    for ref in reference.values():
        ref["floor"] = 0.0  # two rounds do not reach the full-size floors
    checks.load_reference = lambda: reference


def check_emission(bench: dict, work_root: Path) -> None:
    for w in bench["workloads"]:
        for trace in (False, True):
            work = work_root / f"{w['name']}-{int(trace)}"
            work.mkdir(parents=True)
            outcome = harness.run(w["name"], 1, 0.0, trace, work)
            where = f"{w['name']} trace={int(trace)}"
            declared = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
            require(set(outcome.metrics) == declared,
                    f"{where}: emitted names differ by {sorted(set(outcome.metrics) ^ declared)}")
            line = json.loads(json.dumps(run.result(outcome, bench, trace)))
            require(line["correct"] and line["failed"] == 0, f"{where}: runs failed")
            for name, metric in line["metrics"].items():
                value = metric["value"]
                require(isinstance(value, (int, float)) and math.isfinite(value),
                        f"{where}: {name} = {value!r}")
                require(bool(metric["unit"]), f"{where}: {name} has no unit")
                if not trace:
                    require(value > 0, f"{where}: end-to-end {name} is {value!r}")
            print(f"selfcheck: {where}: {len(line['metrics'])} metrics emitted with units")


def check_corruption(work_root: Path) -> None:
    w = harness.WORKLOADS["gala_n12"]
    cfg = harness.protocol_config(w, 0)
    sources, target = suites.suite_12_sources()
    records = federation.run_gala(cfg, sources, target).records
    expect = checks.expected_bytes(cfg, len(sources), harness.GAUSS_INPUT_DIM,
                                   harness.GAUSS_CLASSES)
    require(checks.check_records(records, cfg, expect, 0.0) == [], "clean records rejected")

    def corrupted(**changes):
        bad = [replace(r) for r in records]
        bad[-1] = replace(bad[-1], **changes)
        return checks.check_records(bad, cfg, expect, 0.0)

    weights = records[-1].weights.copy()
    weights[0] += 1e-6
    require(corrupted(weights=weights) != [], "weights off by 1e-6 not caught")
    require(corrupted(target_accuracy=float("nan")) != [], "NaN accuracy not caught")
    require(corrupted(bytes_up=records[-1].bytes_up + 4) != [], "byte count not caught")
    require(checks.check_records(records, cfg, expect, 1.01) != [], "accuracy floor not caught")

    path = work_root / "run.csv"
    emit_metrics(records, path)
    rows = checks.read_csv(path)
    require(checks.check_csv_rows(rows, "gala", cfg.rounds, expect, 0.0) == [],
            "clean CSV rejected")
    rows[0]["igd_loss"] = float("inf")
    require(checks.check_csv_rows(rows, "gala", cfg.rounds, expect, 0.0) != [],
            "non-finite CSV cell not caught")
    require(checks.records_digest(records) != checks.records_digest(
        [replace(records[0], lr=np.nextafter(records[0].lr, 1.0))] + records[1:]),
        "digest blind to a one-ulp change")
    print("selfcheck: corrupted records and CSV cells are caught")


def main() -> None:
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    shrink()
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=BENCH_DIR / "_work"))
    try:
        check_corruption(work_root)
        check_emission(bench, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print("selfcheck ok")


if __name__ == "__main__":
    main()
