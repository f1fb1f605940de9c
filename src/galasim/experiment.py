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
import functools
import hashlib
import inspect
import itertools
import logging
import os
import re
from contextlib import closing
from dataclasses import dataclass, replace
from multiprocessing.connection import wait
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
from .errors import ConfigError, DataError, GalaError, ParseError, WorkerError
from .federation import (ProtocolConfig, RoundRecord, _processes, _Worker, check_source_count,
                         run_protocol)

log = logging.getLogger(__name__)

# Version of the generators and the GDSD format behind cached domains. It is
# part of the cache digest: bump it when a change alters the bytes a domain
# entry builds or saves, so stale cache files are rebuilt, not reused. 1 saved
# GDSD version 1, which kept no raster shape; 2 saves version 2, which does.
_DOMAIN_CACHE_VERSION = 2

# Version of the engine's numeric results. It is part of every run hash, so
# the run CSVs of an output directory written before a bump are not taken
# for finished runs but run again: bump it when a change alters the results
# on purpose (tests/test_golden.py pins it to its digest tables). 1 was the
# float64 training of releases whose run hash had no version; 2 trains the
# extractor in float32.
_RESULTS_VERSION = 2


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
        """Check the suite, the protocol and every configuration of the sweep
        grid; a message starts with the config section at fault."""
        if Path(self.name).name != self.name:  # it starts each run CSV's file name
            raise ConfigError(f"[experiment]: name must not contain a path separator, "
                              f"got {self.name!r}")
        names = [d.name for d in self.domains]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate domain names in suite")
        if names.count(self.target_name) != 1:
            raise ConfigError(f"[experiment]: target {self.target_name!r} must appear "
                              f"exactly once in the suite")
        if self.num_seeds < 1:
            raise ConfigError("[experiment]: num_seeds must be >= 1")
        for field_name, values in self.sweep:
            if field_name not in _parameters(ProtocolConfig) or field_name == "seed":
                raise ConfigError(f"[sweep]: {field_name!r} is not a protocol field to sweep "
                                  f"(seeds come from [protocol] seed and num_seeds)")
            if not values:
                raise ConfigError(f"[sweep]: {field_name} has no values")
            if any(v in values[:k] for k, v in enumerate(values)):
                raise ConfigError(f"[sweep]: {field_name} repeats a value: {values}")
        for overrides in [{}, *_sweep_grid(self)]:  # the protocol, then the grid
            try:
                cfg = replace(self.protocol, **overrides)
                cfg.validate()
                if overrides or "protocol" not in dict(self.sweep):  # a protocol that runs
                    check_source_count(cfg.protocol, len(self.domains) - 1)
            except ConfigError as exc:
                where = f"[sweep] {_run_label(overrides)}" if overrides else "[protocol]"
                raise ConfigError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# config parsing

_TRANSFORM_RE = re.compile(r"^\s*(\w+)\s*\((.*)\)\s*$")


def _number(text: str):
    """A float parameter's value as written: an int stays an int."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


# The reader of each parameter annotation a config value may have (annotations
# are strings: domains.py and federation.py import `annotations`). A reader
# raises ValueError on text that is not of its type.
_READERS = {
    "int": int,  # int("2.5"), int("1e3") and int("true") raise
    "float": float,
    "bool": _bool,
    "str": str,
    "Optional[float]": lambda text: None if text.lower() == "none" else float(text),
    "tuple[int, ...]": lambda text: tuple(int(v) for v in text.split(",")) if text else (),
}


@functools.lru_cache(maxsize=32)  # parse_config reads a schema per section and sweep value
def _parameters(fn):
    return inspect.signature(fn).parameters


def _check_args(fn, raw: dict, where: str, keep_ints: bool = False) -> dict:
    """Read a config section's raw strings as arguments of fn: its parameters
    with an annotation in `_READERS` are the keys, those without a default
    are required, and each value is read as its annotated type. With
    `keep_ints`, an int given for a float stays an int, as a domain's content
    key spells it. Value ranges are left to fn."""
    params = _parameters(fn)
    keys = {k for k, p in params.items() if p.annotation in _READERS}
    required = {k for k in keys if params[k].default is params[k].empty}
    for problem, names in (("unknown", set(raw) - keys), ("missing", required - set(raw))):
        if names:
            raise ConfigError(f"{where}: {problem} key(s) {sorted(names)}")
    args = {}
    for key, text in raw.items():
        hint = params[key].annotation
        read = _number if keep_ints and hint == "float" else _READERS[hint]
        try:
            args[key] = read(text.strip())
        except ValueError:
            raise ConfigError(f"{where}: {key} must be of type {hint}, got {text}") from None
    return args


def _experiment(name: str, target: str, output_dir: str = "galasim_out",
                num_seeds: int = 1) -> dict:
    """The [experiment] section's keys, as ExperimentSpec fields."""
    return dict(name=name, target_name=target, output_dir=output_dir, num_seeds=num_seeds)


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
        raw = {}
        for arg in filter(None, (a.strip() for a in argtext.split(","))):
            key, eq, value = (s.strip() for s in arg.partition("="))
            if not eq or key in raw:
                raise ConfigError(f"{where}: transform argument {arg!r} needs key=value, "
                                  f"each key once")
            raw[key] = value
        params = _check_args(TRANSFORMS[kind], raw, f"{where}: {kind}", keep_ints=True)
        seed = params.pop("seed", 0)
        chain.append(TransformSpec(kind, params, seed))
    return tuple(chain)


def parse_config(path) -> ExperimentSpec:
    """Parse an experiment config file. Each section is read against a
    signature (see `_check_args`): [experiment] against `_experiment`,
    [protocol] and each [sweep] value against `ProtocolConfig`, a domain
    section against its generator. Unknown keys are hard errors."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    path = Path(path)
    try:  # a UTF-8 byte-order mark, as some Windows editors write, is dropped
        parser.read_string(path.read_bytes().decode("utf-8-sig"), source=str(path))
    except UnicodeDecodeError as exc:
        lineno = exc.object[:exc.start].count(b"\n") + 1
        raise ParseError(f"{path}: parse error at line {lineno}: not UTF-8 ({exc.reason})") \
            from None
    except configparser.Error as exc:
        # a ParsingError lists (line, text) errors; the others a read raises
        # (a missing section header, a duplicate section or key) carry a lineno
        errors = getattr(exc, "errors", None)
        lineno = getattr(exc, "lineno", None) or (errors[0][0] if errors else "?")
        raise ParseError(f"{path}: parse error at line {lineno}: {exc}") from exc

    if not parser.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    exp = _check_args(_experiment, dict(parser.items("experiment")), f"{path}: [experiment]")
    for optional in ("protocol", "sweep"):
        if not parser.has_section(optional):
            parser.add_section(optional)
    protocol = ProtocolConfig(**_check_args(ProtocolConfig, dict(parser.items("protocol")),
                                            f"{path}: [protocol]"))
    sweep = [(key, [_check_args(ProtocolConfig, {key: v}, f"{path}: [sweep]")[key]
                    for v in text.split(",") if v.strip()])
             for key, text in parser.items("sweep")]

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
        raw = dict(parser.items(section))
        generator = raw.pop("generator", None)
        transforms = _parse_transforms(raw.pop("transforms", ""), where)
        params = _check_args(_generator(generator, where), raw, where, keep_ints=True)
        domains.append(DomainEntry(name, generator, params, transforms))

    spec = ExperimentSpec(domains=domains, protocol=protocol, sweep=sweep, **_experiment(**exp))
    try:
        spec.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return spec


# ---------------------------------------------------------------------------
# metrics CSV

_FIXED_COLUMNS = ("round", "target_acc", "igd_loss", "mean_source_loss",
                  "bytes_up", "bytes_down", "wall_max_client_ms",
                  "wall_server_ms", "lr")


def emit_metrics(records: Sequence[RoundRecord], path) -> None:
    """Write one CSV row per round: the fixed columns, then w_0..w_{N-1},
    then the g1 membership bitmask.

    The file appears at `path` only once complete, since resume treats any
    existing run CSV as done."""
    if not records:
        raise ValueError("emit_metrics: no records")

    def rows():
        n = records[0].weights.size
        yield list(_FIXED_COLUMNS) + [f"w_{i}" for i in range(n)] + ["g1_bitmask"]
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
            yield row

    try:
        _write_csv(path, rows())
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc


def _write_csv(path, rows) -> None:
    """Write `rows`, the header first, as the CSV at `path`: UTF-8, LF endings,
    RFC-4180 quoting, one `writerow` per row. Every CSV galasim writes goes
    through here, and through `_atomic_write`, so no reader sees half a file."""
    def write(tmp: str) -> None:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in rows:
                writer.writerow(row)

    _atomic_write(Path(path), write)


# ---------------------------------------------------------------------------
# suite execution


def build_domains(spec: ExperimentSpec, cache_dir: Optional[Path] = None
                  ) -> dict[str, DomainDataset]:
    """Generate every suite domain, reusing a disk cache keyed by content and
    `_DOMAIN_CACHE_VERSION`. A cached file that does not load (truncated,
    corrupt or of another format version) is rebuilt and rewritten. A domain
    value the file cannot hold (see `domains.save_dataset`) is a ConfigError
    naming the domain."""
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
            except ParseError as exc:
                log.warning("rebuilding domain %r: corrupt cache file: %s", entry.name, exc)
        dataset = entry.build()
        log.info("domain %r: built", entry.name)
        if cached is not None:
            cache_dir.mkdir(parents=True, exist_ok=True)
            try:  # a value the file format cannot hold
                _atomic_write(cached, lambda tmp: save_dataset(dataset, tmp))
            except ValueError as exc:
                raise ConfigError(f"domain {entry.name!r}: {exc}") from exc
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
    for pattern in ("runs/*.tmp", "cache/*.tmp", "summary.csv.*.tmp", "simmatrix.csv.*.tmp"):
        for tmp in out_dir.glob(pattern):
            try:
                os.kill(int(tmp.name.rsplit(".", 2)[-2]), 0)  # signal 0: is it running?
            except ProcessLookupError:
                tmp.unlink(missing_ok=True)  # another run may have removed it
            except (ValueError, PermissionError):
                pass  # not a pid, or another user's running process


def _sweep_grid(spec: ExperimentSpec) -> list[dict]:
    keys = [k for k, _ in spec.sweep]
    grids = [v for _, v in spec.sweep]
    return [dict(zip(keys, combo)) for combo in itertools.product(*grids)]


def _run_label(overrides: dict) -> str:
    if not overrides:
        return "base"
    return "_".join(f"{k}={v}" for k, v in sorted(overrides.items()))


def _run_hash(cfg: ProtocolConfig, domain_key: str) -> str:
    text = f"r{_RESULTS_VERSION}|" + repr(sorted(cfg.__dict__.items())) + "|" + domain_key
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
    (0 ok, 3 if any run failed). A failed run leaves no CSV and is counted in
    its configuration's num_failed in summary.csv; the other runs and the
    summary are still written. An I/O failure (the output directory, the
    domain cache, a run CSV or the summary) raises `OSError`, which
    `galasim run` maps to exit 4.

    `parallel` is an upper bound: the pending runs go to
    min(parallel, pending, `federation._processes()`) forked worker processes
    (`_forked_results`), which inherit the domains and are sent job indices
    only; with one, they go one by one in this process. Either way each run
    goes through this module's `_execute_run_star`. Whenever the process
    budget (its rule is in `federation._processes`) lowers the count, one
    warning goes to the `galasim.experiment` logger. A worker that dies fails
    only the run it was serving, with a `WorkerError`; a fresh fork takes the
    next run, the summary is still written and the call returns 3. A run
    whose worker cannot be forked runs in this process instead, with the same
    bytes. Failed runs are printed in job order.
    `parallel` < 1, a domain value its generator, a transform or the domain
    cache rejects, built domains that disagree on feature dim or class count,
    or a target class too small to split raise `ConfigError` before any run
    starts.

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
    runs_dir.mkdir(parents=True, exist_ok=True)
    _remove_stale_temp_files(out_dir)
    domains = build_domains(spec, cache_dir=out_dir / "cache")
    check_compatible(list(domains.values()))  # else every run would fail alike
    target = domains[spec.target_name]
    try:  # a split fails alike for every fraction and seed
        target.split(0.5, seed=0)
    except DataError as exc:
        raise ConfigError(f"[domain {spec.target_name}]: {exc}") from exc
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
    workers = min(parallel, len(jobs), _processes())
    if workers < min(parallel, len(jobs)):
        log.warning("--parallel %d lowered to %d by the process budget; set "
                    "OPENBLAS_NUM_THREADS=1 to run in parallel", parallel, workers)
    results = _forked_results(jobs, workers) if workers > 1 else \
        ((k, _execute_run_star(job)) for k, job in enumerate(jobs))
    with closing(results):  # an error here, Ctrl-C too, reaps the workers
        for done, (k, (path, error)) in enumerate(results, 1):
            log.info("run %d/%d %s: %s", done, len(jobs), "aborted" if error else "done",
                     Path(path).name)
            if error:
                failures.append((k, path, error))
    _write_summary(out_dir / "summary.csv", run_index)
    for _, path, error in sorted(failures):
        print(f"run {path}: aborted: {error}")
    return 3 if failures else 0


def _execute_run_star(job):
    return _execute_run(*job)


@dataclass
class _Runs:
    """A sweep's jobs, served by a forked worker: `run(k)` runs jobs[k]
    through this module's `_execute_run_star` as the worker inherited it."""

    jobs: list

    def run(self, k: int):
        return _execute_run_star(self.jobs[k])


def _forked_results(jobs: list, workers: int):
    """Yield (k, jobs[k]'s (path, error)) for every job, in the order they
    finish, from `workers` forked workers each serving one job at a time.

    A worker that dies fails only its job, with a WorkerError, and a fresh
    fork takes the next. A job whose worker cannot be forked (an OSError)
    runs in this process, through `_execute_run_star`, and the job after it
    tries a fork again. Any other error a job raises is raised here.
    Workers are reaped on every exit path."""
    runs, todo = _Runs(jobs), iter(range(len(jobs)))
    # every worker; a busy one's pipe -> (worker, its job index); the
    # (job index, result) of jobs run here
    forked, busy, here = [], {}, []

    def start(worker, k):
        if worker is None:
            try:
                worker = _Worker(runs, [w.conn for w in forked], "this run")
            except OSError:  # no process to spare: this one runs the job
                here.append((k, _execute_run_star(jobs[k])))
                return
            forked.append(worker)
        worker.submit("run", k)
        busy[worker.conn] = (worker, k)

    try:
        for k in itertools.islice(todo, workers):
            start(None, k)
        while busy or here:
            done = [(None, *here.pop(0))] if here else []
            # after a run here, only the results the workers already sent
            for conn in [c for c in busy if c.poll()] if done else wait(list(busy)):
                worker, k = busy.pop(conn)
                try:
                    result = worker.result()
                except WorkerError as exc:  # the next job goes to a fresh fork
                    worker, result = None, (jobs[k][3], f"{type(exc).__name__}: {exc}")
                done.append((worker, k, result))
            for worker, k, result in done:
                yield k, result
                k = next(todo, None)
                if k is not None:
                    start(worker, k)
    finally:
        for worker in forked:
            worker.close()


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
    rows = [["config", "num_runs", "mean_final_acc", "std_final_acc", "num_failed"]]
    for label in sorted(finals):
        values = np.asarray(finals[label])
        stats = ([repr(float(values.mean())), repr(float(values.std()))]
                 if values.size else ["", ""])
        rows.append([label, values.size, *stats, failed[label]])
    _write_csv(path, rows)
