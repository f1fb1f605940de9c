"""Round-based federated protocol simulator.

One round engine, `run_protocol`, runs the group-weighted adaptation protocol
(gala) and the comparison protocols: random-pair disagreement training
(fact_idd), full pairwise alignment, pooled source-only averaging and the
labeled-target oracle. A round trains clients from the broadcast model,
weights them, aggregates their extractors, optionally fine-tunes the heads,
merges the heads, runs a target stage and evaluates. Protocols differ only in
the clients (every source, the pair `sample_pair` draws, or the labeled
target), the weights (by centroids for gala and full_pairwise, else equal),
the frozen-extractor fine-tune (gala and full_pairwise), the target stage (a
`_target_pass` on gala's group loss, the pair's loss or the mean pair loss
over all pairs, so the step does not grow with N and full_pairwise's igd_loss
is a mean pair loss; none for source_only and oracle) and the merge rule.

Communication is simulated, not performed: byte counts price every float
crossing the client/server boundary at 4 bytes (the target is co-located
with the server, so target/server traffic is free). Wall-clock figures are
likewise a deterministic work model (multiply-accumulate counts at a nominal
rate), so reruns of a config are bit-identical; evaluation passes are
instrumentation and are not charged.

Gala's and full_pairwise's per-source work (centroid pass, local training and
frozen fine-tune) runs on several processes when that can help: the sources
split into contiguous blocks, the caller's process serves the first, and one
forked worker per further block serves the rest; for the run, each process is
pinned to its own share of the usable CPUs (the caller's affinity is restored
afterwards). A round uses at most one process per source and at most the
process budget, `_processes`, which decides every fork, here and in a
`--parallel` sweep; it uses one where `os.sched_setaffinity` is missing or a
worker cannot be forked. A source's results depend only on the broadcast
model and that source's own seeds, never on its block or process, so records
are byte-identical for every process count. The same forked pipe worker,
`_Worker`, serves the runs of a `--parallel` sweep.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import pickle
import signal
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .discrepancy import (GroupClassifier, GroupPartition, all_pairs_loss, idd_loss, igd_loss,
                          random_partition)
from .domains import DomainDataset, check_compatible, mixup
from .errors import ConfigError, DataError, NumericError, WorkerError
from .nn import (
    Classifier,
    FeatureExtractor,
    OptimizerState,
    ParamStack,
    Scratch,
    _as_soft_targets,
    cross_entropy_grad,
    head_grad,
    lr_schedule,
    sgd_step,
    weighted_mean,
)
from .weighting import (
    compute_centroids,
    group_normalize,
    mdmgb_baseline,
    mdmgb_plus,
    similarity_score,
    uniform_weights,
)

# each protocol and the fewest sources it runs on (`check_source_count`)
MIN_SOURCES = {"gala": 2, "fact_idd": 2, "full_pairwise": 2, "source_only": 1, "oracle": 0}
PROTOCOLS = tuple(MIN_SOURCES)
WEIGHTINGS = ("mdmgb_plus", "mdmgb", "uniform")

# What a round's nodes do, the facts the cost model prices: how many sources
# train (all unless listed; the oracle trains the co-located target instead),
# which protocols pool (fine-tune the heads on the aggregated extractor, which
# the sources download), and how many heads the target trains through per
# sample, given n sources and use_igd (the oracle's 1 is its own supervised
# training).
_TRAINING_SOURCES = {"fact_idd": 2, "oracle": 0}
_POOLED = ("gala", "full_pairwise")
_TARGET_HEADS = {"gala": lambda n, igd: n if igd else 0,
                 "full_pairwise": lambda n, igd: n * (n - 1), "fact_idd": lambda n, igd: 2,
                 "oracle": lambda n, igd: 1, "source_only": lambda n, igd: 0}

# node ids for seed derivation; sources use their index
_TARGET_NODE = 1_000_000
_SERVER_NODE = 1_000_001

# nominal client compute rate for the deterministic wall-time model
MACS_PER_MS = 1.0e6

# Most parameter bytes (extractor plus classifier, at their real itemsize)
# one lockstep stack may hold. A stack keeps every member's activations,
# deltas, gradients and momentum alive at once, so its size trades per-step
# Python work against peak memory. Measured on the benchmark workloads with
# float64 models: twelve 2.8k-parameter Gaussian clients per stack raised
# gala_n12's peak RSS from 42.8 to 47.7 MB, four to 44.0 MB and three (as
# fast as four) to 43.7 MB; five 51k-parameter glyph models per stack raised
# sweep_glyph's from about 132 to 144 MB, so those train one at a time. With
# the float32 extractor a Gaussian client holds 11.7 kB, so this cap stacks
# seven (each source process's block of six on gala_n12): in 4 alternating
# pairs of 20 s runs against a 40 kB cap (stacks of three) gala_n12 ran
# 51.1-53.6 against 44.1-50.2 rounds/s, at a peak RSS of 41.98-42.04
# against 41.63-41.98 MB.
STACK_BYTES = 80 * 1024

# BLAS thread variables; the process budget (`_processes`) needs one pinned
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class ProtocolConfig:
    """Everything a protocol run needs besides the datasets."""

    protocol: str = "gala"
    weighting: str = "mdmgb_plus"
    use_igd: bool = True
    tau: float = 1.0
    rounds: int = 500
    local_epochs: int = 1
    batch_size: int = 128
    lr0: float = 0.01
    gamma: float = 0.75
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    mixup_alpha: Optional[float] = None
    hidden_dims: tuple[int, ...] = (64,)
    feature_dim: int = 32
    eval_fraction: float = 0.2

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"unknown weighting {self.weighting!r}")
        # every comparison with nan is false, so a nan fails its range too
        for name, ok, rule in (
                ("tau", 0.0 < self.tau < math.inf, "finite and > 0"),
                ("lr0", 0.0 < self.lr0 < math.inf, "finite and > 0"),
                ("gamma", 0.0 < self.gamma <= 1.0, "in (0, 1]"),
                ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)"),
                ("weight_decay", 0.0 <= self.weight_decay < math.inf, "finite and >= 0"),
                ("eval_fraction", 0.0 < 1.0 - self.eval_fraction < 1.0,  # the split's share
                 "in (0, 1) with 1 - eval_fraction < 1"),
                ("mixup_alpha", self.mixup_alpha is None or 0.0 < self.mixup_alpha < math.inf,
                 "finite and > 0 when set"),
                ("seed", self.seed >= 0, ">= 0"), ("rounds", self.rounds >= 1, ">= 1"),
                ("local_epochs", self.local_epochs >= 1, ">= 1"),
                ("batch_size", self.batch_size >= 1, ">= 1")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")
        if any(width < 1 for width in self.hidden_dims) or self.feature_dim < 1:
            raise ConfigError(f"hidden_dims and feature_dim must be >= 1, got "
                              f"{self.hidden_dims} and {self.feature_dim}")


def check_source_count(protocol: str, sources: int) -> None:
    """Raise ConfigError if `protocol` needs more sources than `sources`."""
    if sources < MIN_SOURCES[protocol]:
        raise ConfigError(f"protocol {protocol!r} needs at least {MIN_SOURCES[protocol]} "
                          f"sources, got {sources}")


@dataclass
class RoundRecord:
    """Metrics of one communication round.

    wall_max_client_ms is the maximum over all non-server nodes (the N
    sources and the target) of modeled compute, never the sum.
    """

    round_index: int
    weights: np.ndarray
    partition: Optional[GroupPartition]
    source_losses: np.ndarray
    igd_loss: float
    target_accuracy: float
    bytes_up: int
    bytes_down: int
    wall_max_client_ms: float
    wall_server_ms: float
    lr: float


@dataclass
class RunResult:
    records: list[RoundRecord]
    extractor: FeatureExtractor
    classifier: Classifier
    metadata: dict = field(default_factory=dict)

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].target_accuracy


def _rng(seed: int, round_index: int, node: int, stage: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((int(seed), int(round_index), int(node), int(stage))))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite prediction raises NumericError
def evaluate_accuracy(extractor: FeatureExtractor, classifier: Classifier,
                      dataset: DomainDataset) -> float:
    labels = dataset.require_labels()
    probs = classifier.forward(extractor.forward(dataset.samples))
    if not np.isfinite(probs).all():
        raise NumericError("non-finite predictions")
    return float((probs.argmax(axis=1) == labels).mean())


@np.errstate(over="ignore", invalid="ignore")  # the finite checks name the client
def _train_lockstep(cfg: ProtocolConfig, lr: float, extractor: FeatureExtractor,
                    classifiers: Sequence[Classifier], datasets: Sequence[DomainDataset],
                    rngs: Sequence[np.random.Generator], round_index: Optional[int] = None,
                    update_extractor: bool = True):
    """Minibatch cross-entropy SGD of several clients, one step per batch
    for a whole stack of them.

    Client k starts from `extractor` and classifiers[k] and trains on
    datasets[k] for cfg.local_epochs, drawing its batch order and mixup from
    rngs[k] alone, so each result is bit-identical to training that client
    by itself. Clients with equal n_samples share a batch schedule and form
    stacks of at most STACK_BYTES. With update_extractor=False only the heads
    train, on features of the frozen shared extractor.

    Returns (extractors, classifiers, mean losses), one entry per client. A
    non-finite loss, gradient or parameter raises NumericError naming the
    lowest-index client of the first step that failed.
    """
    per_client = extractor.params.values.nbytes + classifiers[0].params.values.nbytes
    cap = max(1, STACK_BYTES // per_client)
    by_size: dict[int, list[int]] = {}
    for k, d in enumerate(datasets):
        by_size.setdefault(d.n_samples, []).append(k)
    extractors, heads = [extractor] * len(datasets), list(classifiers)
    losses = np.empty(len(datasets))
    scratch = Scratch()
    for members in by_size.values():
        for start in range(0, len(members), cap):
            stack = members[start : start + cap]
            try:
                g, f, loss = _train_stack(cfg, lr, extractor,
                                          [classifiers[k] for k in stack],
                                          [datasets[k] for k in stack],
                                          [rngs[k] for k in stack], update_extractor,
                                          scratch)
            except NumericError as exc:
                raise NumericError(exc.reason, round_index=round_index,
                                   client=datasets[stack[exc.client]].name) from exc
            for row, k in enumerate(stack):
                if update_extractor:
                    extractors[k] = extractor.with_params(g.params.row(row))
                heads[k] = f.with_params(f.params.row(row))
                losses[k] = loss[row]
    return extractors, heads, losses


def _train_stack(cfg, lr, extractor, classifiers, datasets, rngs, update_extractor,
                 scratch):
    """_train_lockstep on clients of one n_samples; a NumericError's
    `client` is a row of the stack."""
    n, size, num_classes = len(datasets), datasets[0].n_samples, classifiers[0].num_classes
    dim = datasets[0].feature_dim
    onehots = [_as_soft_targets(d.require_labels(), num_classes, 1) for d in datasets]
    if update_extractor:
        extractor = extractor.with_params(ParamStack.of([extractor.params] * n))
        opt_g = OptimizerState.for_params(extractor.params, cfg.momentum, cfg.weight_decay)
    classifier = classifiers[0].with_params(ParamStack.of([c.params for c in classifiers]))
    opt_f = OptimizerState.for_params(classifier.params, cfg.momentum, cfg.weight_decay)
    losses = []
    for _ in range(cfg.local_epochs):
        orders = [rng.permutation(size) for rng in rngs]
        for start in range(0, size, cfg.batch_size):
            idx = [order[start : start + cfg.batch_size] for order in orders]
            xb = scratch.take("x", (n, idx[0].size, dim), extractor.params.values.dtype)
            targets = scratch.take("y", (n, idx[0].size, num_classes))
            for k in range(n):
                xb[k] = datasets[k].samples[idx[k]]  # exact in the extractor's dtype
                targets[k] = onehots[k][idx[k]]
                if cfg.mixup_alpha is not None and idx[k].size >= 2:
                    # blends xb[k] and targets[k] in place
                    mixup(xb[k], targets[k], cfg.mixup_alpha, rngs[k], scratch=scratch)
            if update_extractor:
                loss, grad_g, grad_f = cross_entropy_grad(extractor, classifier, xb, targets,
                                                          scratch)
            else:
                features = extractor.forward_trace(xb, scratch)[-1]
                loss, grad_f, _ = head_grad(classifier, features, targets)
            finite = np.isfinite(loss)
            if not finite.all():
                raise NumericError("non-finite training loss",
                                   client=int(np.flatnonzero(~finite)[0]))
            losses.append(loss)
            if update_extractor:
                extractor = extractor.with_params(sgd_step(extractor.params, grad_g, opt_g, lr))
            classifier = classifier.with_params(sgd_step(classifier.params, grad_f, opt_f, lr))
    per_batch = np.stack(losses, axis=1)  # row k: client k's losses in batch order
    return extractor, classifier, [float(np.mean(row)) for row in per_batch]


# ---------------------------------------------------------------------------
# per-client work of a round; gala's and full_pairwise's also in forked workers


def _processes() -> int:
    """How many processes this one may keep computing at once, its forked
    workers included: the one budget behind a round's source processes and
    a `--parallel` sweep's workers.

    It is 1 inside a `multiprocessing` child (a sweep's worker), where `fork`
    is unavailable, in a process running other threads (fork would copy locks
    they hold), or when none of the BLAS thread variables
    (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS) holds a positive
    int: with BLAS threads unpinned, 2 processes x 2 OpenBLAS threads on 2
    cores ran 6-20x slower than one process (bench/NOTES.md). Otherwise it is
    the usable CPUs divided by the largest of those thread counts.
    """
    if multiprocessing.parent_process() is not None or threading.active_count() > 1 \
            or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    values = [os.environ.get(var, "").strip() for var in _BLAS_THREAD_VARS]
    try:
        threads = max((int(v) for v in values if v), default=0)
    except ValueError:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cpus or 1) // threads) if threads >= 1 else 1


def _source_blocks(n_sources: int, processes: int) -> list[range]:
    """Contiguous blocks of source indices, one per process, at most one per
    source. Block 0 belongs to the caller's process, which also serves the
    target, so it is never larger than another block."""
    count = max(1, min(processes, n_sources))
    sizes = [n_sources // count + (k >= count - n_sources % count) for k in range(count)]
    starts = list(itertools.accumulate(sizes, initial=0))
    return [range(a, b) for a, b in zip(starts, starts[1:])]


def _cpu_shares(processes: int) -> list[set[int]]:
    """Disjoint shares of the usable CPUs, one per process (shared round-robin
    when there are fewer CPUs than processes). Each process of a run is
    pinned to its share: on a 2-vCPU box the kernel was seen to leave a
    freshly forked worker on its parent's CPU for over a second, so the
    processes took turns on one CPU while the other idled."""
    cpus = sorted(os.sched_getaffinity(0))
    per = max(1, len(cpus) // processes)
    return [set(cpus[k * per:(k + 1) * per]) or {cpus[k % len(cpus)]}
            for k in range(processes)]


class _SourceBlock:
    """The per-client phases of a round for the clients sources[i], i in
    `indices` (`sources` maps seed nodes to datasets).

    `train` runs the centroid pass (if `_centroid_pass`) and local training
    from the broadcast model and keeps the trained heads; `finetune`
    then fine-tunes them on the aggregated extractor. Every client draws only
    from its own _rng(seed, round, index, stage), so its results do not
    depend on which block or process computes it.
    """

    def __init__(self, cfg: ProtocolConfig, sources, indices: Sequence[int]):
        self.cfg, self.indices = cfg, indices
        self.sources = [sources[i] for i in indices]
        self.heads: list[Classifier] = []

    def train(self, t: int, lr: float, extractor: FeatureExtractor,
              classifier: Classifier):
        cfg = self.cfg
        centroids = [_centroids(extractor, classifier, src, t, src.name)
                     for src in self.sources] \
            if _centroid_pass(cfg.protocol, cfg.weighting) else []
        trained, self.heads, losses = _train_lockstep(
            cfg, lr, extractor, [classifier] * len(self.sources), self.sources,
            [_rng(cfg.seed, t, i, 1) for i in self.indices], round_index=t)
        return centroids, [g.params for g in trained], list(losses)

    def finetune(self, t: int, lr: float, aggregated: FeatureExtractor) -> list[Classifier]:
        cfg = self.cfg
        _, heads, _ = _train_lockstep(
            cfg, lr, aggregated, self.heads, self.sources,
            [_rng(cfg.seed, t, i, 2) for i in self.indices], round_index=t,
            update_extractor=False)
        return heads


def _serve(conn, served, inherited, cpus: Optional[set[int]]) -> None:
    """Worker loop, on `cpus` if given: answer each (method, args) request
    with `getattr(served, method)(*args)` until the parent closes its end of
    the pipe. `served` is the object the parent held at the fork."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    for other in inherited:  # parent ends of the pipes, so EOF reaches us
        other.close()
    while True:
        try:
            method, args = conn.recv()
        except EOFError:
            return
        try:
            reply = ("ok", getattr(served, method)(*args))
        except Exception as exc:  # re-raised by the parent, type and fields kept
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = WorkerError(f"{type(exc).__name__}: {exc}")
            reply = ("error", exc)
        conn.send(reply)


class _Worker:
    """A forked process serving method calls on `served` (a _SourceBlock, or
    a sweep's runs); `open_pipes` are the parent ends of other workers'
    pipes, which the child closes, and `what` names its work in a
    WorkerError."""

    def __init__(self, served, open_pipes: list, what: str, cpus: Optional[set[int]] = None):
        ctx = multiprocessing.get_context("fork")
        self.what = what
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_serve, daemon=True,
                                   args=(child, served, [*open_pipes, self.conn], cpus))
        self.process.start()
        child.close()  # else a dead worker's end stays open here and recv hangs

    def submit(self, method: str, *args) -> None:
        try:
            self.conn.send((method, args))
        except OSError:
            pass  # a dead worker is reported by result()

    def result(self, when: str = ""):
        """The reply to the last request; raises what the call raised (WorkerError if it died)."""
        try:
            kind, payload = self.conn.recv()
        except (EOFError, OSError) as exc:
            self.process.join(timeout=5.0)
            raise WorkerError(f"worker for {self.what} exited with code "
                              f"{self.process.exitcode}{when}") from exc
        if kind == "error":
            raise payload
        return payload

    def close(self) -> None:
        self.conn.close()
        self.process.terminate()
        self.process.join()


# ---------------------------------------------------------------------------
# communication and runtime accounting


def _centroid_pass(protocol: str, weighting: str) -> bool:
    """Whether the sources and the target compute class centroids each round
    (pooled protocols weighted by similarity)."""
    return protocol in _POOLED and weighting != "uniform"


def account_communication(protocol: str, n_sources: int, extractor_size: int,
                          classifier_size: int, num_classes: int, feature_dim: int,
                          weighting: str = "mdmgb_plus") -> tuple[int, int]:
    """Simulated bytes crossing the client/server boundary in one round.

    4 bytes per f32 component. Each training source (every source; fact_idd's
    pair; none for the oracle, whose target is co-located with the server)
    downloads the model broadcast, plus the aggregated extractor if the
    protocol is pooled, and uploads its trained extractor and its trained or
    fine-tuned classifier, plus its class centroids with their soft masses
    after a centroid pass.
    """
    if protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}")
    g, f, c = extractor_size, classifier_size, num_classes
    clients = _TRAINING_SOURCES.get(protocol, n_sources)
    centroids = c * feature_dim + c if _centroid_pass(protocol, weighting) else 0
    aggregated = g if protocol in _POOLED else 0
    return 4 * clients * (g + f + centroids), 4 * clients * (g + f + aggregated)


def _mac_extractor(extractor: FeatureExtractor) -> int:
    dims = [extractor.input_dim, *extractor.hidden_dims, extractor.output_dim]
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def _round_wall_model(cfg: ProtocolConfig, source_sizes: Sequence[int],
                      target_size: int, mac_g: int, mac_f: int,
                      num_classes: int) -> tuple[float, float]:
    """Deterministic per-round wall model in ms: max over nodes, and server.

    Forward costs 1x the MACs, a training step 3x (forward + backward). Each
    training source (the first two sizes for fact_idd, none for the oracle)
    costs its local training, plus the frozen-extractor fine-tune if the
    protocol is pooled, plus its centroid pass. The target costs training
    through its heads (the extractor and every head, per sample; nothing
    with no heads), plus its centroid pass. The server aggregates both models
    of each training source and, after a centroid pass, scores its similarity.
    """
    g, f, cd, epochs = mac_g, mac_f, num_classes * cfg.feature_dim, cfg.local_epochs
    pooled = cfg.protocol in _POOLED
    sizes = source_sizes[:_TRAINING_SOURCES.get(cfg.protocol, len(source_sizes))]
    heads = _TARGET_HEADS[cfg.protocol](len(source_sizes), cfg.use_igd)
    scored = _centroid_pass(cfg.protocol, cfg.weighting)
    centroids = g + f + cd if scored else 0  # per sample
    finetune = g + 3 * f if pooled else 0  # per sample and epoch
    costs = [k * (epochs * (3 * (g + f) + finetune) + centroids) for k in sizes]
    costs.append(target_size * ((epochs * 3 * (g + heads * f) if heads else 0) + centroids))
    server = len(sizes) * (g + f + (cd if scored else 0))
    return max(costs) / MACS_PER_MS, server / MACS_PER_MS


# ---------------------------------------------------------------------------
# protocol runs


def _init_model(cfg: ProtocolConfig, input_dim: int, num_classes: int):
    """The broadcast model of round 0: a float32 extractor, so that training
    runs the wide layers in float32 on the float32 domains, and a float64
    classifier, whose outputs feed the losses, centroids and weights."""
    rng = _rng(cfg.seed, 0, _SERVER_NODE, 0)
    extractor = FeatureExtractor.init(input_dim, cfg.hidden_dims, cfg.feature_dim, rng)
    classifier = Classifier.init(cfg.feature_dim, num_classes, rng)
    narrow = replace(extractor.params, values=extractor.params.values.astype(np.float32))
    return extractor.with_params(narrow), classifier


@np.errstate(over="ignore", invalid="ignore")
def _centroids(extractor: FeatureExtractor, classifier: Classifier, dataset: DomainDataset,
               round_index: int, client: str):
    """compute_centroids; non-finite centroids raise NumericError naming the client."""
    try:
        return compute_centroids(extractor, classifier, dataset)
    except ValueError as exc:
        raise NumericError(str(exc), round_index=round_index, client=client) from exc


def _partition_seed(seed: int, round_index: int) -> int:
    # fresh partition seed each round, derived from the experiment seed
    return int(np.random.SeedSequence((int(seed), int(round_index), 0xF17)).generate_state(1)[0])


def sample_pair(seed: int, round_index: int, n_sources: int) -> tuple[int, int]:
    """The pair protocol's per-round source selection (uniform over pairs)."""
    pairs = list(itertools.combinations(range(n_sources), 2))
    return pairs[_rng(seed, round_index, _SERVER_NODE, 4).integers(len(pairs))]


@contextmanager
def _source_pool(cfg: ProtocolConfig, sources: Sequence[DomainDataset]):
    """Yields (this process's _SourceBlock, the _Workers serving the further
    blocks); reaps them and restores this process's affinity on every exit."""
    processes = _processes() if hasattr(os, "sched_setaffinity") else 1  # it pins
    blocks = [_SourceBlock(cfg, sources, b) for b in _source_blocks(len(sources), processes)]
    if len(blocks) == 1:
        yield blocks[0], []
        return
    shares = _cpu_shares(len(blocks))
    own_cpus = os.sched_getaffinity(0)
    workers: list[_Worker] = []
    try:
        try:
            for block, cpus in zip(blocks[1:], shares[1:]):
                what = f"sources {block.indices.start}-{block.indices.stop - 1}"
                workers.append(_Worker(block, [w.conn for w in workers], what, cpus))
        except OSError:  # no process to spare: this one serves every source
            while workers:
                workers.pop().close()
            blocks = [_SourceBlock(cfg, sources, range(len(sources)))]
        else:
            os.sched_setaffinity(0, shares[0])
        yield blocks[0], workers
    finally:
        os.sched_setaffinity(0, own_cpus)
        for worker in workers:
            worker.close()


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss raises NumericError
def _target_pass(cfg, extractor, target_view, lr, rng, loss_and_grad):
    """One target stage: local_epochs of minibatch SGD of the extractor alone on
    loss_and_grad(extractor, batch) -> (loss, gradient); returns it and the mean loss."""
    opt = OptimizerState.for_params(extractor.params, cfg.momentum, cfg.weight_decay)
    data = target_view.samples
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(data.shape[0])
        for start in range(0, data.shape[0], cfg.batch_size):
            loss, grad = loss_and_grad(extractor, data[order[start : start + cfg.batch_size]])
            if not np.isfinite(loss):
                raise NumericError("non-finite group-discrepancy loss")
            losses.append(loss)
            extractor = extractor.with_params(sgd_step(extractor.params, grad, opt, lr))
    return extractor, float(np.mean(losses))


def run_protocol(cfg: ProtocolConfig, sources: Sequence[DomainDataset],
                 target: DomainDataset, round_hook=None) -> RunResult:
    """Run cfg.protocol (module docstring); the oracle ignores `sources`.

    Target labels are consulted only by the held-out evaluation split and the
    oracle's training; the target stage sees an unlabeled view. round_hook,
    if given, receives a dict of round internals after each round's
    evaluation (round, weights, similarities, partition, fine-tuned
    classifiers, merged classifier, extractor; None where a protocol has no
    similarities, partition or fine-tuned heads); it exists for
    instrumentation and must not mutate its argument.

    gala and full_pairwise run their per-source work on source processes
    (module docstring). Records, final models and round_hook arguments are
    byte-identical for every process count, and a NumericError names the
    round and client as in one process; a worker that dies raises
    WorkerError. Workers are reaped before this returns or raises.
    """
    cfg.validate()
    protocol = cfg.protocol
    if protocol == "oracle":
        sources = []
        if target.labels is None:
            raise DataError("oracle training needs a labeled target")
    check_source_count(protocol, len(sources))
    check_compatible([*sources, target])
    for d in sources:
        if d.labels is None:
            raise DataError(f"source domain {d.name!r} must be labeled")

    n, num_classes = len(sources), target.num_classes
    target_train, target_eval = target.split(1.0 - cfg.eval_fraction, seed=cfg.seed)
    target_view = target_train.strip_labels()
    extractor, classifier = _init_model(cfg, target.feature_dim, num_classes)
    mac_g, mac_f = _mac_extractor(extractor), cfg.feature_dim * num_classes
    traffic = account_communication(protocol, n, extractor.params.size, classifier.params.size,
                                    num_classes, cfg.feature_dim, cfg.weighting)
    wall = _round_wall_model(cfg, [s.n_samples for s in sources], target_view.n_samples,
                             mac_g, mac_f, num_classes)
    pooled = protocol in _POOLED  # fine-tune, source processes
    # the clients that may train, by seed node; the oracle's is the target
    clients = {_TARGET_NODE: target_train} if protocol == "oracle" else dict(enumerate(sources))
    pool = _source_pool(cfg, sources) if pooled \
        else nullcontext((_SourceBlock(cfg, clients, list(clients)), []))

    records = []
    with pool as (local, workers):
        for t in range(cfg.rounds):
            lr = lr_schedule(cfg.lr0, t, cfg.gamma)
            sims = partition = finetuned = stage_loss = None
            if protocol == "fact_idd":  # this round's pair trains; the wall model prices it
                local = _SourceBlock(cfg, clients, sample_pair(cfg.seed, t, n))
                wall = _round_wall_model(cfg, [s.n_samples for s in local.sources],
                                         target_view.n_samples, mac_g, mac_f, num_classes)

            # client training from the broadcast model; the lowest block's
            # error is raised first, as one process would
            for worker in workers:
                worker.submit("train", t, lr, extractor, classifier)
            centroids, trained, losses = local.train(t, lr, extractor, classifier)
            if _centroid_pass(protocol, cfg.weighting):
                target_cent = _centroids(extractor, classifier, target_view, t, "target")
            for worker in workers:
                cents, block_trained, block_losses = worker.result(f" in round {t}")
                centroids += cents
                trained += block_trained
                losses += block_losses
            source_losses = np.array(losses)

            # the weights: equal over the clients that trained, or by centroids
            if not pooled:
                mix, weights = uniform_weights(len(losses)), np.zeros(n)  # oracle: no source
                if sources:
                    weights[list(local.indices)], source_losses = mix, np.full(n, np.nan)
                    source_losses[list(local.indices)] = losses
            elif cfg.weighting == "uniform":
                sims = np.zeros(n)
                mix = weights = uniform_weights(n)
            else:
                sims = np.array([similarity_score(target_cent, c) for c in centroids])
                with np.errstate(over="ignore", invalid="ignore"):  # checked below
                    mix = weights = mdmgb_plus(sims, cfg.tau) if cfg.weighting == "mdmgb_plus" \
                        else mdmgb_baseline(sims)
                # gala's groups need every weight; full_pairwise's may underflow to 0
                need = "positive" if protocol == "gala" else "finite"
                if not (weights > 0 if protocol == "gala" else np.isfinite(weights)).all():
                    raise NumericError(f"global weights must be {need}", round_index=t,
                                       client="server")

            # extractor aggregation, then gala's and full_pairwise's frozen fine-tune
            aggregated = extractor.with_params(weighted_mean(trained, mix))
            heads = local.heads
            if pooled:
                for worker in workers:
                    worker.submit("finetune", t, lr, aggregated)
                heads = finetuned = local.finetune(t, lr, aggregated)
                for worker in workers:
                    heads += worker.result(f" in round {t}")

            # gala's groups, then the head merge
            if protocol == "gala":
                partition = random_partition(n, seed=_partition_seed(cfg.seed, t))
                groups = [list(partition.g1), list(partition.g2)]
                group_w = group_normalize(weights, partition)
                gc1, gc2 = (GroupClassifier([(i, heads[i]) for i in g], group_w[g])
                            for g in groups)
                # parameter-space merge; equals sum_n w_n F_n by weight cancellation
                merged = weighted_mean(
                    [weighted_mean([heads[i].params for i in g], group_w[g]) for g in groups],
                    [float(weights[g].sum()) for g in groups])
            else:
                merged = weighted_mean([f.params for f in heads], mix)
            classifier = classifier.with_params(merged)

            # the target stage's batch loss
            if protocol == "full_pairwise":  # steps on the mean pair loss
                def stage_loss(g, batch):
                    loss, grad = all_pairs_loss(g, heads, batch)
                    pairs = n * (n - 1) / 2
                    return loss / pairs, grad * (1 / pairs)
            elif protocol == "fact_idd":  # the pair's two heads
                stage_loss = lambda g, batch: idd_loss(g, *heads, batch)
            elif protocol == "gala" and cfg.use_igd:
                stage_loss = lambda g, batch: igd_loss(g, gc1, gc2, batch)
            extractor, disagreement = aggregated, 0.0
            try:  # a failure here names the target
                if stage_loss is not None:
                    extractor, disagreement = _target_pass(
                        cfg, aggregated, target_view, lr, _rng(cfg.seed, t, _TARGET_NODE, 3),
                        stage_loss)
                elif protocol == "gala":  # the ablation still measures the group loss
                    with np.errstate(over="ignore", invalid="ignore"):
                        disagreement, _ = igd_loss(aggregated, gc1, gc2, target_view.samples)
                    if not np.isfinite(disagreement):
                        raise NumericError("non-finite group-discrepancy loss")
                acc = evaluate_accuracy(extractor, classifier, target_eval)
            except NumericError as exc:
                raise NumericError(str(exc), round_index=t, client="target") from exc
            records.append(RoundRecord(t, weights, partition, source_losses,
                                       float(disagreement), acc, *traffic, *wall, lr))
            if round_hook is not None:
                round_hook({"round": t, "weights": weights, "similarities": sims,
                            "partition": partition, "finetuned": finetuned,
                            "classifier": classifier, "extractor": extractor})
    metadata = {"protocol": "fact_idd (reimplementation)" if protocol == "fact_idd" else protocol}
    if pooled:
        metadata.update(weighting=cfg.weighting, use_igd=cfg.use_igd)
    if sources:
        metadata["n_sources"] = n
    return RunResult(records, extractor, classifier, metadata)


def run_gala(cfg: ProtocolConfig, sources: Sequence[DomainDataset],
             target: DomainDataset, round_hook=None) -> RunResult:
    """run_protocol for the group-weighted adaptation protocol and its
    all-pairs variant (cfg.protocol ``gala`` or ``full_pairwise``)."""
    if cfg.protocol not in _POOLED:
        raise ConfigError("run_gala handles the gala and full_pairwise protocols")
    return run_protocol(cfg, sources, target, round_hook)


def similarity_matrix(domains: Sequence[DomainDataset], cfg: ProtocolConfig) -> np.ndarray:
    """Cross-domain accuracy matrix: row i is an oracle run on domain i, with
    cfg's rounds and learning-rate schedule, and entry (i, j) is the accuracy
    of its final models on domain j's test split (the split the oracle
    evaluates on). Diagonal entries are self-performance, the usual
    difficulty ordering. A NumericError in training names domain i and the
    round. No golden digest pins the values.
    """
    cfg.validate()
    check_compatible(domains)
    tests = [d.split(1.0 - cfg.eval_fraction, seed=cfg.seed)[1] for d in domains]
    out = np.empty((len(domains), len(domains)))
    for i, domain in enumerate(domains):
        run = run_protocol(replace(cfg, protocol="oracle"), [], domain)
        out[i] = [evaluate_accuracy(run.extractor, run.classifier, test) for test in tests]
    return out
