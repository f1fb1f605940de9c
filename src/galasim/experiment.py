"""Config-driven experiment runner.

Configs are INI-style text (key = value under [sections]); a suite declares
its domains, the protocol, an optional sweep grid, and a seed count. Runs are
cached by content hash so interrupted sweeps resume where they stopped, and a
rerun of an identical spec is bit-identical. Metrics land in one CSV per run
plus a mean/std summary per configuration.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import inspect
import itertools
import logging
import os
import re
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .domains import (
    TRANSFORMS,
    DomainDataset,
    TransformSpec,
    apply_transform_chain,
    check_compatible,
    gen_gaussian_domain,
    gen_glyph_domain,
    load_dataset,
    save_dataset,
)
from .errors import ConfigError, DataError, GalaError, IntegrityError, ParseError, WorkerError
from .federation import ProtocolConfig, RoundRecord, run_protocol

log = logging.getLogger(__name__)

_EXPERIMENT_KEYS = {"name", "target", "output_dir", "num_seeds"}
_PROTOCOL_FIELDS = {f.name: f for f in fields(ProtocolConfig)}
# Version of the generators and the GDSD format behind cached domains. It is
# part of the cache digest: bump it when a change alters the bytes a domain
# entry builds or saves, so stale cache files are rebuilt, not reused.
_DOMAIN_CACHE_VERSION = 1


@dataclass
class DomainEntry:
    """One generator invocation plus its transform chain; `params` are its arguments."""

    name: str
    generator: str
    params: dict
    transforms: tuple[TransformSpec, ...]

    def content_key(self) -> str:
        items = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        chain = ";".join(t.describe() for t in self.transforms)
        return f"{self.generator}({items})|{chain}"

    def build(self) -> DomainDataset:
        """A value the generator or a transform rejects is a ConfigError."""
        generate = _generator(self.generator, f"domain {self.name!r}")
        try:
            return apply_transform_chain(generate(name=self.name, **self.params),
                                         self.transforms)
        except (ValueError, TypeError, DataError) as exc:
            raise ConfigError(f"domain {self.name!r}: {exc}") from exc


def _generator(kind: str, where: str):
    """The generator function `kind` names, looked up by module name on each call."""
    generators = {"gaussian": gen_gaussian_domain, "glyph": gen_glyph_domain}
    if kind not in generators:
        raise ConfigError(f"{where}: generator must be one of {sorted(generators)}, got {kind!r}")
    return generators[kind]


@dataclass
class ExperimentSpec:
    name: str
    domains: list[DomainEntry]
    target_name: str
    protocol: ProtocolConfig
    sweep: list[tuple[str, list]]
    output_dir: str
    num_seeds: int

    def validate(self) -> None:
        names = [d.name for d in self.domains]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate domain names in suite")
        if names.count(self.target_name) != 1:
            raise ConfigError(
                f"target {self.target_name!r} must appear exactly once in the suite")
        for field_name, values in self.sweep:
            if field_name not in _PROTOCOL_FIELDS:
                raise ConfigError(f"sweep field {field_name!r} is not a protocol field")
            if not values:
                raise ConfigError(f"sweep field {field_name!r} has no values")
        if self.num_seeds < 1:
            raise ConfigError("num_seeds must be >= 1")
        self.protocol.validate()


# ---------------------------------------------------------------------------
# config parsing

_TRANSFORM_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$")


def _parse_scalar(text: str):
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", ""):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _check_args(fn, args: dict, where: str) -> None:
    """Check a config's `args` for fn against its signature: they are its int
    and float parameters, the required ones given, each of its type (an int
    passes for a float). Value ranges are left to fn."""
    params = inspect.signature(fn).parameters  # annotations are strings in domains.py
    keys = {k for k, p in params.items() if p.annotation in ("int", "float")}
    required = {k for k in keys if params[k].default is params[k].empty}
    for problem, names in (("unknown", set(args) - keys), ("missing", required - set(args))):
        if names:
            raise ConfigError(f"{where}: {problem} key(s) {sorted(names)}")
    for key, value in args.items():
        hint = params[key].annotation
        if type(value) not in ((int,) if hint == "int" else (int, float)):
            raise ConfigError(f"{where}: {key} must be of type {hint}, got {value!r}")


def _parse_transforms(text: str, where: str) -> tuple[TransformSpec, ...]:
    chain = []
    for piece in filter(None, (p.strip() for p in text.split(";"))):
        m = _TRANSFORM_RE.match(piece)
        if not m:
            raise ConfigError(f"{where}: cannot parse transform {piece!r}; "
                              f"expected kind(key=value, ...)")
        kind, argtext = m.group(1), m.group(2)
        if kind not in TRANSFORMS:
            raise ConfigError(f"{where}: unknown transform kind {kind!r}")
        params = {}
        for arg in filter(None, (a.strip() for a in argtext.split(","))):
            key, eq, value = (s.strip() for s in arg.partition("="))
            if not eq or key in params:
                raise ConfigError(f"{where}: transform argument {arg!r} needs key=value, "
                                  f"each key once")
            params[key] = _parse_scalar(value)
        _check_args(TRANSFORMS[kind], params, f"{where}: {kind}")
        seed = params.pop("seed", 0)
        chain.append(TransformSpec(kind, params, seed))
    return tuple(chain)


def _coerce_protocol_value(name: str, raw: str):
    if name == "hidden_dims":
        return tuple(int(v) for v in raw.split(",") if v.strip())
    value = _parse_scalar(raw)
    if name == "mixup_alpha":
        return None if value is None else float(value)
    hint = _PROTOCOL_FIELDS[name].type
    if value is None:
        raise ConfigError(f"protocol.{name}: value required")
    if hint in ("int", int):
        return int(value)
    if hint in ("float", float):
        return float(value)
    if hint in ("bool", bool):
        if not isinstance(value, bool):
            raise ConfigError(f"protocol.{name}: expected true/false, got {raw!r}")
        return value
    return value


def parse_config(path) -> ExperimentSpec:
    """Parse an experiment config file; unknown keys are hard errors."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except configparser.ParsingError as exc:
        first = exc.errors[0] if getattr(exc, "errors", None) else None
        lineno = first[0] if first else "?"
        raise ParseError(f"{path}: parse error at line {lineno}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"{path}: parse error: {exc}") from exc

    if not parser.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    exp = dict(parser.items("experiment"))
    unknown = set(exp) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) in [experiment]: {sorted(unknown)}")
    for required in ("name", "target"):
        if required not in exp:
            raise ConfigError(f"{path}: [experiment] needs key {required!r}")

    protocol_kwargs = {}
    if parser.has_section("protocol"):
        for key, raw in parser.items("protocol"):
            if key not in _PROTOCOL_FIELDS:
                raise ConfigError(f"{path}: unknown key protocol.{key}")
            protocol_kwargs[key] = _coerce_protocol_value(key, raw)
    protocol = ProtocolConfig(**protocol_kwargs)

    sweep = []
    if parser.has_section("sweep"):
        for key, raw in parser.items("sweep"):
            if key not in _PROTOCOL_FIELDS:
                raise ConfigError(f"{path}: unknown sweep field {key!r}")
            values = [_coerce_protocol_value(key, v.strip())
                      for v in raw.split(",") if v.strip()]
            sweep.append((key, values))

    domains = []
    for section in parser.sections():
        if section in ("experiment", "protocol", "sweep"):
            continue
        if not section.startswith("domain "):
            raise ConfigError(f"{path}: unknown section [{section}]")
        name = section[len("domain "):].strip()
        if not name:
            raise ConfigError(f"{path}: domain section needs a name: [domain <name>]")
        where = f"{path}: [{section}]"
        items = dict(parser.items(section))
        generator = items.pop("generator", None)
        transforms = _parse_transforms(items.pop("transforms", ""), where)
        params = {k: _parse_scalar(v) for k, v in items.items()}
        _check_args(_generator(generator, where), params, where)
        domains.append(DomainEntry(name, generator, params, transforms))

    spec = ExperimentSpec(
        name=exp["name"],
        domains=domains,
        target_name=exp["target"],
        protocol=protocol,
        sweep=sweep,
        output_dir=exp.get("output_dir", "galasim_out"),
        num_seeds=int(exp.get("num_seeds", 1)),
    )
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# metrics CSV

_FIXED_COLUMNS = ("round", "target_acc", "igd_loss", "mean_source_loss",
                  "bytes_up", "bytes_down", "wall_max_client_ms",
                  "wall_server_ms", "lr")


def emit_metrics(records: Sequence[RoundRecord], path) -> None:
    """Write one CSV row per round: the fixed columns, then w_0..w_{N-1},
    then the g1 membership bitmask. LF endings, RFC-4180 quoting.

    The file appears at `path` only once complete, since resume treats any
    existing run CSV as done."""
    if not records:
        raise ValueError("emit_metrics: no records")
    n = records[0].weights.size
    header = list(_FIXED_COLUMNS) + [f"w_{i}" for i in range(n)] + ["g1_bitmask"]

    def write(tmp: str) -> None:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for rec in records:
                mean_loss = float(np.nanmean(rec.source_losses)) \
                    if rec.source_losses.size else 0.0
                row = [rec.round_index, repr(float(rec.target_accuracy)),
                       repr(float(rec.igd_loss)), repr(mean_loss),
                       rec.bytes_up, rec.bytes_down,
                       repr(float(rec.wall_max_client_ms)),
                       repr(float(rec.wall_server_ms)), repr(float(rec.lr))]
                row += [repr(float(w)) for w in rec.weights]
                row.append(rec.partition.bitmask_g1() if rec.partition else 0)
                writer.writerow(row)

    try:
        _atomic_write(Path(path), write)
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# suite execution


def build_domains(spec: ExperimentSpec, cache_dir: Optional[Path] = None
                  ) -> dict[str, DomainDataset]:
    """Generate every suite domain, reusing a disk cache keyed by content and
    `_DOMAIN_CACHE_VERSION`. A cached file that fails its checksum is rebuilt
    and rewritten."""
    out = {}
    for entry in spec.domains:
        key = f"v{_DOMAIN_CACHE_VERSION}|{entry.content_key()}"
        digest = hashlib.sha256(key.encode()).hexdigest()[:16]
        cached = cache_dir / f"{digest}.gdsd" if cache_dir else None
        if cached is not None and cached.exists():
            try:
                out[entry.name] = load_dataset(cached)
                log.info("domain %r: cache hit", entry.name)
                continue
            except IntegrityError as exc:
                log.warning("rebuilding domain %r: corrupt cache file: %s", entry.name, exc)
        dataset = entry.build()
        log.info("domain %r: built", entry.name)
        if cached is not None:
            cache_dir.mkdir(parents=True, exist_ok=True)
            _atomic_write(cached, lambda tmp: save_dataset(dataset, tmp))
        out[entry.name] = dataset
    return out


def _atomic_write(path: Path, write) -> None:
    """Call write(tmp) on a file beside `path`, then move it into place: a
    failure partway leaves nothing at `path`. `write` creates the file, so it
    gets the usual umask permissions; the pid keeps workers apart."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _remove_stale_temp_files(out_dir: Path) -> None:
    """Delete the temp files of `_atomic_write` calls whose process died mid-write."""
    for pattern in ("runs/*.tmp", "cache/*.tmp", "summary.csv.*.tmp"):
        for tmp in out_dir.glob(pattern):
            try:
                os.kill(int(tmp.name.rsplit(".", 2)[-2]), 0)  # signal 0: is it running?
            except ProcessLookupError:
                tmp.unlink(missing_ok=True)  # another run may have removed it
            except (ValueError, PermissionError):
                pass  # not a pid, or another user's running process


def _sweep_grid(spec: ExperimentSpec) -> list[dict]:
    if not spec.sweep:
        return [{}]
    keys = [k for k, _ in spec.sweep]
    grids = [v for _, v in spec.sweep]
    return [dict(zip(keys, combo)) for combo in itertools.product(*grids)]


def _run_label(overrides: dict) -> str:
    if not overrides:
        return "base"
    return "_".join(f"{k}={v}" for k, v in sorted(overrides.items()))


def _run_hash(cfg: ProtocolConfig, domain_key: str) -> str:
    text = repr(sorted(cfg.__dict__.items())) + "|" + domain_key
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _execute_run(cfg: ProtocolConfig, sources: list[DomainDataset],
                 target: DomainDataset, path: str) -> tuple[str, Optional[str]]:
    """Worker: run one protocol config and write its CSV. Returns (path, error).

    A run that raises a `GalaError` (numeric abort, bad data or config) or a
    `ValueError` writes no CSV and returns the error, so the other runs of a
    sweep still finish."""
    try:
        result = run_protocol(cfg, sources, target)
    except (GalaError, ValueError) as exc:
        return path, f"{type(exc).__name__}: {exc}"
    emit_metrics(result.records, path)
    return path, None


def run_experiment(spec: ExperimentSpec, parallel: int = 1) -> int:
    """Execute the (sweep x seed) grid; returns the process exit code
    (0 ok, 3 if any run failed, 4 on I/O failure). A failed run leaves no
    CSV and is counted in its configuration's num_failed in summary.csv; the
    other runs and the summary are still written.

    With `parallel` > 1 the pending runs go to a pool of min(parallel,
    pending) worker processes. Each worker is started with the runner and
    the whole job list, and is then sent job indices only: under `fork` the
    workers inherit the domains, so none is pickled; under `spawn` or
    `forkserver` the suite is pickled once per worker. A worker that dies
    breaks the pool; the runs still pending run again in fresh pools, so
    only the run whose worker died fails, with a `WorkerError` (see
    `_pool_results`), the summary is still written and the call returns 3.
    `parallel` < 1, a domain value its generator or a transform rejects, or
    built domains that disagree on feature dim or class count raise
    `ConfigError` before any run starts.

    Completed runs are skipped by content hash, so interrupted suites resume
    (temp files of writers killed mid-write are removed first); rerunning an
    identical spec is a no-op that leaves bytes unchanged.
    Progress goes to the `galasim.experiment` logger at INFO.
    """
    if parallel < 1:
        raise ConfigError(f"parallel must be >= 1, got {parallel}")
    spec.validate()
    out_dir = Path(spec.output_dir)
    runs_dir = out_dir / "runs"
    try:
        runs_dir.mkdir(parents=True, exist_ok=True)
        _remove_stale_temp_files(out_dir)
        domains = build_domains(spec, cache_dir=out_dir / "cache")
    except OSError as exc:
        print(f"I/O error: {exc}")
        return 4
    check_compatible(list(domains.values()))  # else every run would fail alike
    target = domains[spec.target_name]
    sources = [domains[e.name] for e in spec.domains if e.name != spec.target_name]
    domain_key = "|".join(e.content_key() for e in spec.domains)

    jobs = []
    run_index = []  # (label, seed, csv path)
    for overrides in _sweep_grid(spec):
        label = _run_label(overrides)
        for k in range(spec.num_seeds):
            cfg = replace(spec.protocol, **overrides, seed=spec.protocol.seed + k)
            digest = _run_hash(cfg, domain_key)
            path = runs_dir / f"{spec.name}__{label}__s{k}__{digest}.csv"
            run_index.append((label, k, path))
            if not path.exists():
                jobs.append((cfg, sources, target, str(path)))
    log.info("%s: %d runs, %d already done", spec.name, len(run_index),
             len(run_index) - len(jobs))

    failures = []
    try:
        if parallel > 1 and len(jobs) > 1:
            results = _pool_results(jobs, min(parallel, len(jobs)))
        else:
            results = (_execute_run(*job) for job in jobs)
        for k, (path, error) in enumerate(results, 1):
            log.info("run %d/%d %s: %s", k, len(jobs), "aborted" if error else "done",
                     Path(path).name)
            if error:
                failures.append((path, error))
        _write_summary(out_dir / "summary.csv", run_index)
    except OSError as exc:
        print(f"I/O error: {exc}")
        return 4
    for path, error in failures:
        print(f"run {path}: aborted: {error}")
    return 3 if failures else 0


def _execute_run_star(job):
    return _execute_run(*job)


_worker_state = None  # (runner, jobs) in a sweep pool worker; see _init_worker


def _init_worker(runner, jobs) -> None:
    """Pool initializer: the worker keeps the runner and the job list for its
    life, so a job is sent as its index."""
    global _worker_state
    _worker_state = (runner, jobs)


def _run_job(k: int):
    runner, jobs = _worker_state
    return runner(jobs[k])


def _pool_results(jobs: list, workers: int):
    """Yield each job's (path, error) from pools of at most `workers`
    processes started with `_execute_run_star` as the parent reads it now.

    A worker that dies breaks its pool. The jobs not yet yielded whose CSV
    does not exist then run in a fresh pool; after a second break each runs
    in a one-worker pool of its own, so a job that kills its worker fails
    alone, with a WorkerError. That is at most 2 + pending pools; results
    come in job order unless a pool breaks."""
    left = yield from _one_pool(jobs, range(len(jobs)), workers)
    if left:
        left = yield from _one_pool(jobs, left, workers)
    for k in left:
        lost = yield from _one_pool(jobs, [k], 1)
        if lost:
            error = WorkerError("its sweep worker process died")
            yield jobs[k][3], f"{type(error).__name__}: {error}"


def _one_pool(jobs: list, indices, workers: int):
    """Yield the results of jobs[k], k in indices, from one pool; if a worker
    dies, yield those whose CSV was written and return the others' indices."""
    done = 0
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(indices)),
                                 initializer=_init_worker,
                                 initargs=(_execute_run_star, jobs)) as pool:
            for result in pool.map(_run_job, indices):
                done += 1
                yield result
    except BrokenProcessPool:
        left = []
        for k in indices[done:]:
            if Path(jobs[k][3]).exists():
                yield jobs[k][3], None
            else:
                left.append(k)
        return left
    return []


def _final_accuracy_from_csv(path: Path) -> float:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("target_acc")
    return float(rows[-1][col])


def _write_summary(path: Path, run_index: list) -> None:
    """Mean and population std of final-round accuracy per configuration,
    then the number of its runs that failed (left no CSV); a configuration
    whose every run failed has num_runs 0 and empty mean and std. The file
    is replaced only once complete."""
    finals: dict[str, list[float]] = {}
    failed: dict[str, int] = {}
    for label, _, csv_path in run_index:
        finals.setdefault(label, [])
        failed.setdefault(label, 0)
        if Path(csv_path).exists():
            finals[label].append(_final_accuracy_from_csv(Path(csv_path)))
        else:
            failed[label] += 1

    def write(tmp: str) -> None:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["config", "num_runs", "mean_final_acc", "std_final_acc",
                             "num_failed"])
            for label in sorted(finals):
                values = np.asarray(finals[label])
                stats = ([repr(float(values.mean())), repr(float(values.std()))]
                         if values.size else ["", ""])
                writer.writerow([label, values.size, *stats, failed[label]])

    _atomic_write(path, write)
