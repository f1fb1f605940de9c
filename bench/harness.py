"""Workload runners for the galasim benchmark.

An untraced pass gives the end-to-end metrics. A traced pass wraps the
library's functions from outside (see tracer.py) and gives the per-layer
metrics; it alternates untraced and traced runs so that its overhead shows.
Workloads, metric definitions and the reasons behind them are in NOTES.md.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from galasim import (FeatureExtractor, GroupClassifier, ParamVec, ProtocolConfig,
                     discrepancy, domains, experiment, federation)

import checks
import suites
from tracer import Tracer

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# span name -> the Tracer.totals() figures reported per round, as <span>.<figure>
_PER_ROUND_SPANS = {
    "nn.cross_entropy_grad": ("calls", "self_ms"),
    "nn.forward_trace": ("calls", "ms"),
    "nn.backprop": ("calls", "ms"),
    "nn.sgd_step": ("calls", "ms"),
    "nn.weighted_mean": ("ms",),
    "discrepancy.igd_loss": ("calls", "self_ms"),
    "discrepancy.idd_loss": ("calls",),
    "discrepancy.predict": ("calls",),
    "weighting.compute_centroids": ("calls", "ms"),
    "weighting.similarity_score": ("calls", "ms"),
    "weighting.weights": ("ms",),
    "domains.mixup": ("calls", "ms"),
    "federation.evaluate_accuracy": ("ms",),
}

SWEEP_WORKERS = 2  # one per core of the 2-core reference box; BLAS is pinned to 1 thread
SWEEP_RUNS = 6     # 3 protocols x 2 seeds, see suites.GLYPH_CONFIG
SWEEP_ROUNDS = 20
GLYPH_INPUT_DIM, GLYPH_CLASSES = 768, 6
GAUSS_INPUT_DIM, GAUSS_CLASSES = 8, 4


@dataclass(frozen=True)
class Workload:
    name: str
    seed_pool: tuple[int, ...]  # protocol seeds (sweep: base seeds); reference.json covers them
    min_runs: int               # runs (sweeps) every untraced pass completes
    tail_percentile: int        # leaves >= 10 samples above it at min_runs
    setup_reps: int             # set-ups timed before the first run and after each run
    protocol: str = ""          # the protocol a direct workload runs


WORKLOADS = {
    w.name: w for w in (
        Workload("gala_n12", tuple(range(16)), min_runs=5, tail_percentile=90,
                 setup_reps=5, protocol="gala"),
        Workload("sweep_glyph", tuple(range(0, 16, 2)), min_runs=1, tail_percentile=90,
                 setup_reps=1),
    )
}


def protocol_config(w: Workload, seed: int, rounds: int = 24) -> ProtocolConfig:
    return ProtocolConfig(protocol=w.protocol, rounds=rounds, batch_size=128,
                          lr0=0.05, tau=3.0, seed=seed)


def seed_order(w: Workload, bench_seed: int) -> list[int]:
    """Protocol seeds in run order. The first min_runs are always the first
    min_runs of the pool, so final_acc averages the same runs for every
    benchmark seed; the benchmark seed orders them and picks the rest."""
    rng = random.Random(bench_seed)
    anchors, rest = list(w.seed_pool[:w.min_runs]), list(w.seed_pool[w.min_runs:])
    rng.shuffle(anchors)
    rng.shuffle(rest)
    return anchors + rest


@dataclass
class Tally:
    """What one pass measured and checked."""

    attempted: int = 0
    failed: int = 0
    compared: int = 0
    identical: int = 0
    run_s: list = field(default_factory=list)     # wall of each run (each sweep)
    round_ms: list = field(default_factory=list)
    run_p50_ms: list = field(default_factory=list)  # median round time of each run (sweep)
    finals: list = field(default_factory=list)    # final accuracies in run order
    bytes_per_round: list = field(default_factory=list)
    modeled_ms: list = field(default_factory=list)
    resume_ms: list = field(default_factory=list)

    def fail(self, what: str, problems) -> None:
        self.failed += 1
        for p in problems[:5]:
            print(f"check failed: {what}: {p}", file=sys.stderr)

    def compare(self, digest: str, expected) -> None:
        self.compared += 1
        self.identical += digest == expected


def repeat(seconds: float, min_count: int, body, between=None) -> None:
    """Call body(k) for k = 0, 1, ... until `seconds` passed and at least
    min_count calls were made, and between() after each call. Set-up is
    timed in between so that its samples span the run like the others: the
    box's speed drifts within seconds."""
    start = perf_counter()
    k = 0
    while k < min_count or perf_counter() - start < seconds:
        body(k)
        if between is not None:
            between()
        k += 1


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "start_method": multiprocessing.get_start_method()}


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# direct protocol workload (gala_n12)


def direct_setup(reps: int):
    """Build the suite `reps` times; returns (domains, setup seconds each)."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        built = suites.suite_12_sources()
        times.append(perf_counter() - t0)
    return built, times


def direct_run(w: Workload, sources, target, seed: int, ref, tally: Tally,
               tracer: Tracer | None = None) -> None:
    """One protocol run: time its rounds, check and digest its records."""
    cfg = protocol_config(w, seed)
    expect = checks.expected_bytes(cfg, len(sources), GAUSS_INPUT_DIM, GAUSS_CLASSES)
    tally.attempted += 1
    stamps = [perf_counter()]

    def hook(_info):
        stamps.append(perf_counter())

    try:
        with tracer.span("federation.run") if tracer else nullcontext():
            result = federation.run_gala(cfg, sources, target, round_hook=hook)
    except Exception:  # a failed run is counted, the benchmark goes on
        traceback.print_exc(file=sys.stderr)
        tally.fail(f"seed {seed}", ["raised"])
        return
    tally.run_s.append(stamps[-1] - stamps[0])
    round_ms = list(np.diff(stamps) * 1e3)
    tally.round_ms += round_ms
    tally.run_p50_ms.append(statistics.median(round_ms))
    problems = checks.check_records(result.records, cfg, expect, ref["floor"])
    if problems:
        tally.fail(f"seed {seed}", problems)
    tally.finals.append(result.final_accuracy)
    tally.compare(checks.records_digest(result.records), ref["digests"].get(str(seed)))
    rec = result.records[0]
    tally.bytes_per_round.append(rec.bytes_up + rec.bytes_down)
    tally.modeled_ms += [r.wall_max_client_ms + r.wall_server_ms for r in result.records]


# ---------------------------------------------------------------------------
# sweep workload (sweep_glyph)

_ORIGINAL_EXECUTE_RUN = experiment._execute_run


def timed_execute_run(job):
    """Stands in for experiment._execute_run_star in the untraced sweep: runs
    the job and leaves its round times next to the run's CSV. Pool workers
    unpickle it by name, so it works under fork and spawn alike."""
    cfg, sources, target, path = job
    stamps = [perf_counter()]
    original = federation.evaluate_accuracy  # each protocol evaluates once per round

    def stamped(*args, **kwargs):
        value = original(*args, **kwargs)
        stamps.append(perf_counter())
        return value

    federation.evaluate_accuracy = stamped
    try:
        out = _ORIGINAL_EXECUTE_RUN(cfg, sources, target, path)
    finally:
        federation.evaluate_accuracy = original
    side = Path(path).parent.parent / "round_times" / (Path(path).stem + ".json")
    side.parent.mkdir(exist_ok=True)
    side.write_text(json.dumps(list(np.diff(stamps) * 1e3)))
    return out


def write_config(work: Path, tag: str, base_seed: int) -> Path:
    ini = work / f"{tag}.ini"
    ini.write_text(suites.GLYPH_CONFIG.format(out=work / tag, seed=base_seed),
                   encoding="utf-8")
    return ini


def sweep_setup(work: Path, reps: int, tracer: Tracer | None = None):
    """Parse the config and build its domains into an empty cache, `reps`
    times; returns (cache dir, set-up seconds each). A traced set-up also
    rebuilds from the full cache."""
    ini = write_config(work, "setup", 0)
    cache = work / "setup" / "cache"
    times = []
    for _ in range(reps):
        shutil.rmtree(cache, ignore_errors=True)
        t0 = perf_counter()
        spec = experiment.parse_config(ini)
        with tracer.span("experiment.build_domains.cold") if tracer else nullcontext():
            experiment.build_domains(spec, cache_dir=cache)
        times.append(perf_counter() - t0)
        if tracer is not None:
            with tracer.span("experiment.build_domains.warm"):
                experiment.build_domains(spec, cache_dir=cache)
    return cache, times


def _check_sweep(out: Path, spec, ref, tally: Tally) -> tuple[int, list[str]]:
    """Check every CSV of a finished sweep; returns (runs missing or failing
    a check, problems)."""
    problems, bad = [], 0
    csvs = sorted((out / "runs").glob("*.csv"))
    for path in csvs:
        protocol = path.name.split("__")[1].split("=", 1)[1]
        cfg = replace(spec.protocol, protocol=protocol)
        rows = checks.read_csv(path)
        expect = checks.expected_bytes(cfg, len(spec.domains) - 1,
                                       GLYPH_INPUT_DIM, GLYPH_CLASSES)
        found = checks.check_csv_rows(rows, protocol, SWEEP_ROUNDS, expect, ref["floor"])
        bad += bool(found)
        problems += [f"{path.name}: {p}" for p in found]
        tally.compare(checks.file_digest(path), ref["digests"].get(path.name))
        tally.finals.append(rows[-1]["target_acc"])
        tally.bytes_per_round += [r["bytes_up"] + r["bytes_down"] for r in rows]
        tally.modeled_ms += [r["wall_max_client_ms"] + r["wall_server_ms"] for r in rows]
    if not (out / "summary.csv").exists():
        problems.append("summary.csv missing")
    return SWEEP_RUNS - len(csvs) + bad, problems


def sweep_run(work: Path, cache: Path, k: int, base_seed: int, parallel: int, ref,
              tally: Tally, tracer: Tracer | None = None, resume: bool = False) -> None:
    """One sweep on a cold output directory, then its checks; with `resume`,
    also a timed rerun that must leave the outputs unchanged."""
    tag = f"sweep{k}"
    spec = experiment.parse_config(write_config(work, tag, base_seed))
    out = work / tag
    shutil.copytree(cache, out / "cache")  # domains come from set-up, runs are cold
    tally.attempted += SWEEP_RUNS
    timed = tracer is None
    if timed:
        original_star = experiment._execute_run_star
        experiment._execute_run_star = timed_execute_run
    t0 = perf_counter()
    try:
        code = experiment.run_experiment(spec, parallel=parallel)
    except Exception:  # a failed sweep is counted, the benchmark goes on
        traceback.print_exc(file=sys.stderr)
        code = -1
    finally:
        if timed:
            experiment._execute_run_star = original_star
    wall = perf_counter() - t0
    failed, problems = _check_sweep(out, spec, ref, tally)
    if code != 0:
        problems.append(f"run_experiment returned {code}")
    if timed:
        sides = sorted((out / "round_times").glob("*.json"))
        if len(sides) != SWEEP_RUNS:
            problems.append(f"round times of {len(sides)} runs for {SWEEP_RUNS}")
        round_ms = [ms for side in sides for ms in json.loads(side.read_text())]
        tally.round_ms += round_ms
        if round_ms:
            tally.run_p50_ms.append(statistics.median(round_ms))
    if resume:
        before = {p.name: p.read_bytes() for p in (out / "runs").glob("*.csv")}
        t0 = perf_counter()
        code = experiment.run_experiment(spec, parallel=parallel)
        tally.resume_ms.append((perf_counter() - t0) * 1e3)
        after = {p.name: p.read_bytes() for p in (out / "runs").glob("*.csv")}
        if code != 0 or after != before:
            problems.append("resume changed the outputs")
    tally.run_s.append(wall)
    if problems and not failed:
        failed = 1  # a sweep-level problem fails at least one run
    for _ in range(min(failed, SWEEP_RUNS)):
        tally.fail(f"sweep base seed {base_seed}", problems or ["run missing"])
    shutil.rmtree(out)


# ---------------------------------------------------------------------------
# tracing


@contextmanager
def layers_traced(tracer: Tracer, job_bytes: list | None = None):
    """Wrap each layer's functions under the names the round loop calls for
    the duration of the block. With `job_bytes`, also trace the runner's
    per-job functions and record the pickled size of each job."""
    for attr, name in (("cross_entropy_grad", "nn.cross_entropy_grad"),
                       ("sgd_step", "nn.sgd_step"),
                       ("weighted_mean", "nn.weighted_mean"),
                       ("compute_centroids", "weighting.compute_centroids"),
                       ("similarity_score", "weighting.similarity_score"),
                       ("mdmgb_plus", "weighting.weights"),
                       ("group_normalize", "weighting.weights"),
                       ("igd_loss", "discrepancy.igd_loss"),
                       ("idd_loss", "discrepancy.idd_loss"),
                       ("mixup", "domains.mixup"),
                       ("evaluate_accuracy", "federation.evaluate_accuracy")):
        tracer.wrap(federation, attr, name)
    tracer.wrap(discrepancy, "igd_loss", "discrepancy.igd_loss")  # idd_loss calls it
    tracer.wrap(FeatureExtractor, "forward_trace", "nn.forward_trace")
    tracer.wrap(FeatureExtractor, "backprop", "nn.backprop")
    tracer.wrap(GroupClassifier, "predict", "discrepancy.predict")
    tracer.count(ParamVec, "__init__", "nn.paramvec_built")
    if job_bytes is not None:
        tracer.wrap(experiment, "emit_metrics", "experiment.emit_metrics")
        tracer.wrap(experiment, "_execute_run", "federation.run")
        traced_run = experiment._execute_run

        def measure_job(*job):
            job_bytes.append(len(pickle.dumps(job)))
            return traced_run(*job)

        tracer.patch(experiment, "_execute_run", measure_job)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def install_domain_wrappers(tracer: Tracer) -> None:
    """Wrap dataset construction and the GDSD format, for set-up."""
    tracer.wrap(domains, "gen_gaussian_domain", "domains.generate")
    tracer.wrap(domains, "apply_transform_chain", "domains.transform")
    tracer.wrap(experiment, "gen_gaussian_domain", "domains.generate")
    tracer.wrap(experiment, "gen_glyph_domain", "domains.generate")
    tracer.wrap(experiment, "apply_transform_chain", "domains.transform")
    tracer.wrap(experiment, "save_dataset", "domains.save_dataset")
    tracer.wrap(experiment, "load_dataset", "domains.load_dataset")
    tracer.wrap(experiment, "parse_config", "experiment.parse_config")


def layer_metrics(tracer: Tracer, setup: Tracer, rounds: int, runs: int,
                  setups: int) -> dict:
    """Per-layer figures of a traced pass over `rounds` rounds in `runs`
    runs, and of `setups` traced set-ups."""
    totals = tracer.totals()
    setup_totals = setup.totals()
    out = {}
    blank = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
    for span, figures in _PER_ROUND_SPANS.items():
        for figure in figures:
            out[f"{span}.{figure}"] = totals.get(span, blank)[figure] / rounds
    out["nn.paramvec_built"] = tracer.counts["nn.paramvec_built"] / rounds
    out["federation.self_ms"] = totals["federation.run"]["self_ms"] / rounds
    out["experiment.emit_metrics.ms"] = totals.get("experiment.emit_metrics", blank)["ms"] / runs
    for span, metric, key in (("domains.generate", "domains.generate.ms", "self_ms"),
                              ("domains.transform", "domains.transform.ms", "ms"),
                              ("domains.save_dataset", "domains.save_dataset.ms", "ms"),
                              ("domains.load_dataset", "domains.load_dataset.ms", "ms"),
                              ("experiment.parse_config", "experiment.parse_config.ms", "ms"),
                              ("experiment.build_domains.cold",
                               "experiment.build_domains.cold_ms", "ms"),
                              ("experiment.build_domains.warm",
                               "experiment.build_domains.warm_ms", "ms")):
        out[metric] = setup_totals.get(span, blank)[key] / setups
    out["experiment.cache_hits"] = (setup_totals.get("domains.load_dataset", blank)["calls"]
                                    / setups)
    return out


# ---------------------------------------------------------------------------
# workload entry points


@dataclass
class Outcome:
    metrics: dict            # name -> value
    attempted: int
    failed: int
    details: dict


def _merge(*tallies: Tally) -> tuple[int, int, int, int]:
    return (sum(t.attempted for t in tallies), sum(t.failed for t in tallies),
            sum(t.compared for t in tallies), sum(t.identical for t in tallies))


def _e2e(w: Workload, tally: Tally, setup_medians, rounds_per_run: int,
         runs_per_timed: int, with_children: bool) -> dict:
    # The reference box switches between a fast and a slow state for tens of
    # seconds at a time. A median over a run that mixes both jumps from one
    # state to the other; a mean over runs (set-up batches) of their medians
    # moves in proportion to the mix, so it spreads less between runs.
    runs = runs_per_timed * len(tally.run_s)
    return {
        "rounds_per_s": runs * rounds_per_run / sum(tally.run_s),
        "runs_per_s": runs / sum(tally.run_s),
        "round_ms_p50": statistics.mean(tally.run_p50_ms),
        "round_ms_tail": float(np.percentile(tally.round_ms, w.tail_percentile)),
        "setup_s": statistics.mean(setup_medians),
        "peak_rss_mb": peak_rss_mb(with_children),
        "final_acc": float(np.mean(tally.finals[:w.min_runs * runs_per_timed])),
    }


def run_direct(w: Workload, bench_seed: int, seconds: float, trace: bool,
               work: Path) -> Outcome:
    ref = checks.load_reference()[w.name]
    order = seed_order(w, bench_seed)
    rounds = protocol_config(w, 0).rounds
    if not trace:
        (sources, target), times = direct_setup(w.setup_reps)
        setup_medians = [statistics.median(times)]
        tally = Tally()
        repeat(seconds, w.min_runs,
               lambda k: direct_run(w, sources, target, order[k % len(order)], ref, tally),
               between=lambda: setup_medians.append(
                   statistics.median(direct_setup(w.setup_reps)[1])))
        metrics = _e2e(w, tally, setup_medians, rounds, 1, with_children=False)
        return Outcome(metrics, tally.attempted, tally.failed, _details(w, order, tally))

    with Tracer() as setup:
        install_domain_wrappers(setup)
        (sources, target), _ = direct_setup(w.setup_reps)
    plain, traced, tracer = Tally(), Tally(), Tracer()

    def alternate(k: int) -> None:
        # untraced and traced runs alternate on the same seeds, so that the
        # box's drift does not land on one side of the overhead ratio
        seed = order[(k // 2) % len(order)]
        if k % 2 == 0:
            direct_run(w, sources, target, seed, ref, plain)
        else:
            with layers_traced(tracer):
                direct_run(w, sources, target, seed, ref, traced, tracer)

    repeat(seconds, 2, alternate)
    traced_rounds = len(traced.run_s) * rounds
    metrics = layer_metrics(tracer, setup, traced_rounds, len(traced.run_s), w.setup_reps)
    # median over run pairs of the traced over the untraced rounds_per_s
    overhead = statistics.median(p / t for p, t in zip(plain.run_s, traced.run_s))
    metrics.update(_common_layer(plain, traced, overhead))
    metrics.update({"domains.dataset_bytes": 0, "experiment.resume_ms": 0.0,
                    "experiment.job_bytes": 0, "experiment.parallel_efficiency": 0.0})
    _write_trace(work, w, bench_seed, tracer, setup)
    attempted, failed, _, _ = _merge(plain, traced)
    return Outcome(metrics, attempted, failed, _details(w, order, plain, traced))


def _common_layer(plain: Tally, traced: Tally, overhead_ratio: float) -> dict:
    modeled = statistics.median(plain.modeled_ms + traced.modeled_ms)
    return {
        "federation.bytes_per_round": statistics.mean(plain.bytes_per_round),
        "federation.modeled_round_ms": modeled,
        "federation.measured_over_modeled": statistics.median(plain.round_ms) / modeled,
        "federation.records_identical": plain.identical + traced.identical,
        "trace.overhead_ratio": overhead_ratio,
    }


def run_sweep(w: Workload, bench_seed: int, seconds: float, trace: bool,
              work: Path) -> Outcome:
    ref = checks.load_reference()[w.name]
    order = seed_order(w, bench_seed)
    if not trace:
        cache, times = sweep_setup(work, w.setup_reps)
        setup_medians = [statistics.median(times)]
        tally = Tally()
        repeat(seconds, w.min_runs,
               lambda k: sweep_run(work, cache, k, order[k % len(order)], SWEEP_WORKERS,
                                   ref, tally),
               between=lambda: setup_medians.append(
                   statistics.median(sweep_setup(work, w.setup_reps)[1])))
        metrics = _e2e(w, tally, setup_medians, SWEEP_ROUNDS, SWEEP_RUNS, with_children=True)
        return Outcome(metrics, tally.attempted, tally.failed, _details(w, order, tally))

    with Tracer() as setup:
        install_domain_wrappers(setup)
        cache, _ = sweep_setup(work, w.setup_reps, setup)
    dataset_bytes = sum(p.stat().st_size for p in cache.glob("*.gdsd"))
    plain, traced, tracer, job_bytes = Tally(), Tally(), Tracer(), []

    def alternate(k: int) -> None:
        # the traced sweep runs serially, so that its spans stay in this process
        base = order[(k // 2) % len(order)]
        if k % 2 == 0:
            sweep_run(work, cache, k, base, SWEEP_WORKERS, ref, plain, resume=True)
        else:
            with layers_traced(tracer, job_bytes):
                sweep_run(work, cache, k, base, 1, ref, traced, tracer)

    repeat(seconds, 2, alternate)
    runs = len(traced.run_s) * SWEEP_RUNS
    metrics = layer_metrics(tracer, setup, runs * SWEEP_ROUNDS, runs, w.setup_reps)
    serial_run_ms = tracer.totals()["federation.run"]["ms"] / runs
    plain_run_ms = statistics.median(plain.run_s) * 1e3 / SWEEP_RUNS
    # per-run time inside the pool workers, from their round times
    worker_run_ms = sum(plain.round_ms) / (len(plain.run_s) * SWEEP_RUNS)
    metrics.update(_common_layer(plain, traced, worker_run_ms / serial_run_ms))
    metrics.update({
        "domains.dataset_bytes": dataset_bytes,
        "experiment.resume_ms": statistics.median(plain.resume_ms),
        "experiment.job_bytes": statistics.median(job_bytes),
        "experiment.parallel_efficiency": serial_run_ms / (SWEEP_WORKERS * plain_run_ms),
    })
    _write_trace(work, w, bench_seed, tracer, setup)
    attempted, failed, _, _ = _merge(plain, traced)
    return Outcome(metrics, attempted, failed, _details(w, order, plain, traced))


def _write_trace(work: Path, w: Workload, bench_seed: int, tracer: Tracer,
                 setup: Tracer) -> None:
    tracer.write(work.parent / f"trace-{w.name}-s{bench_seed}.json")
    setup.write(work.parent / f"trace-{w.name}-s{bench_seed}-setup.json")


def _details(w: Workload, order, *tallies: Tally) -> dict:
    attempted, failed, compared, identical = _merge(*tallies)
    return {
        "workload": w.name,
        "protocol_seeds": order,
        "fail_rate": failed / attempted if attempted else 1.0,
        "records_identical": f"{identical}/{compared}",
        "round_samples": len(tallies[0].round_ms),
        "round_ms_tail_percentile": w.tail_percentile,
        "environment": environment(),
    }


def run(workload: str, bench_seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    w = WORKLOADS[workload]
    runner = run_sweep if w.name == "sweep_glyph" else run_direct
    return runner(w, bench_seed, seconds, trace, work)
