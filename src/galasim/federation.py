"""Round-based federated protocol simulator.

Implements the full group-weighted adaptation round (broadcast, soft
centroids, temperature weighting, parallel source training, weighted
extractor aggregation, frozen-extractor fine-tuning, random partition,
group-classifier construction, adversarial target update, classifier merge)
together with the comparison protocols: random-pair disagreement training,
full pairwise alignment, pooled source-only averaging, and the labeled-target
oracle.

Communication is simulated, not performed: byte counts price every float
crossing the client/server boundary at 4 bytes (the target is co-located
with the server, so target/server traffic is free). Wall-clock figures are
likewise a deterministic work model (multiply-accumulate counts at a nominal
rate), so reruns of a config are bit-identical; evaluation passes are
instrumentation and are not charged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .discrepancy import (
    GroupClassifier,
    GroupPartition,
    igd_loss,
    idd_loss,
    random_partition,
)
from .domains import DomainDataset, mixup
from .errors import ConfigError, DataError, NumericError
from .nn import (
    Classifier,
    FeatureExtractor,
    OptimizerState,
    ParamStack,
    Scratch,
    cross_entropy_grad,
    head_grad,
    lr_schedule,
    sgd_step,
    weighted_mean,
)
from .weighting import (
    DomainWeights,
    compute_centroids,
    group_normalize,
    mdmgb_baseline,
    mdmgb_plus,
    similarity_score,
    uniform_weights,
)

PROTOCOLS = ("gala", "fact_idd", "full_pairwise", "source_only", "oracle")
WEIGHTINGS = ("mdmgb_plus", "mdmgb", "uniform")

# node ids for seed derivation; sources use their index
_TARGET_NODE = 1_000_000
_SERVER_NODE = 1_000_001

# nominal client compute rate for the deterministic wall-time model
MACS_PER_MS = 1.0e6

# Most parameter bytes (extractor plus classifier, float64) one lockstep
# stack may hold. A stack keeps every member's activations, deltas, gradients
# and momentum alive at once, so its size trades per-step Python work against
# peak memory. Measured on the benchmark workloads: twelve 2.8k-parameter
# Gaussian clients per stack raised gala_n12's peak RSS from 42.8 to 47.7 MB,
# four to 44.0 MB and three (this cap, as fast as four) to 43.7 MB; five
# 51k-parameter glyph models per stack raised sweep_glyph's from about 132 to
# 144 MB, so those train one at a time.
STACK_BYTES = 80 * 1024


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
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ConfigError("eval_fraction must be in (0, 1)")
        if self.mixup_alpha is not None and self.mixup_alpha <= 0:
            raise ConfigError("mixup_alpha must be positive when set")


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


def evaluate_accuracy(extractor: FeatureExtractor, classifier: Classifier,
                      dataset: DomainDataset) -> float:
    labels = dataset.require_labels()
    probs = classifier.forward(extractor.forward(dataset.samples))
    return float((probs.argmax(axis=1) == labels).mean())


def _onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


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
    per_client = 8 * (extractor.params.size + classifiers[0].params.size)
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
    onehots = [_onehot(d.require_labels(), num_classes) for d in datasets]
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
            xb = scratch.take("x", (n, idx[0].size, dim))
            targets = scratch.take("y", (n, idx[0].size, num_classes))
            for k in range(n):
                xb[k] = datasets[k].samples[idx[k]]  # float32 to float64 is exact
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
# communication and runtime accounting


def account_communication(protocol: str, n_sources: int, extractor_size: int,
                          classifier_size: int, num_classes: int, feature_dim: int,
                          weighting: str = "mdmgb_plus") -> tuple[int, int]:
    """Simulated bytes crossing the client/server boundary in one round.

    4 bytes per f32 component. Per source and round the full protocol uploads
    the trained extractor, the fine-tuned classifier, and the class centroids
    with their soft masses; downloads are the model broadcast plus the
    aggregated extractor. Uniform weighting skips the centroid upload. The
    pair protocol only ever activates two sources; the oracle communicates
    nothing.
    """
    g, f, c, d = extractor_size, classifier_size, num_classes, feature_dim
    if protocol in ("gala", "full_pairwise"):
        centroid = (c * d + c) if weighting != "uniform" else 0
        up = n_sources * (g + f + centroid)
        down = n_sources * (2 * g + f)
    elif protocol == "fact_idd":
        up = 2 * (g + f)
        down = 2 * (g + f)
    elif protocol == "source_only":
        up = n_sources * (g + f)
        down = n_sources * (g + f)
    elif protocol == "oracle":
        up = down = 0
    else:
        raise ConfigError(f"unknown protocol {protocol!r}")
    return 4 * up, 4 * down


def _mac_extractor(extractor: FeatureExtractor) -> int:
    dims = [extractor.input_dim, *extractor.hidden_dims, extractor.output_dim]
    return sum(a * b for a, b in zip(dims[:-1], dims[1:]))


def _round_wall_model(cfg: ProtocolConfig, source_sizes: Sequence[int],
                      target_size: int, mac_g: int, mac_f: int,
                      num_classes: int) -> tuple[float, float]:
    """Deterministic per-round wall model in ms: max over nodes, and server.

    Forward costs 1x the MACs, a training step 3x (forward + backward).
    """
    c, d = num_classes, cfg.feature_dim
    n = len(source_sizes)
    centroid_pass = cfg.weighting != "uniform" and cfg.protocol in ("gala", "full_pairwise")
    node_costs = []
    if cfg.protocol in ("gala", "full_pairwise"):
        for k in source_sizes:
            cost = cfg.local_epochs * k * 3 * (mac_g + mac_f)      # local training
            cost += cfg.local_epochs * k * (mac_g + 3 * mac_f)     # frozen-G fine-tune
            if centroid_pass:
                cost += k * (mac_g + mac_f + c * d)
            node_costs.append(cost)
        pair_terms = n if cfg.protocol == "gala" else n * (n - 1)  # members touched per sample
        target_cost = cfg.local_epochs * target_size * (3 * mac_g + 3 * pair_terms * mac_f) \
            if (cfg.use_igd or cfg.protocol == "full_pairwise") else 0
        if centroid_pass:
            target_cost += target_size * (mac_g + mac_f + c * d)
        node_costs.append(target_cost)
        server = n * (c * d + mac_g + mac_f)  # similarities + both aggregations
    elif cfg.protocol == "fact_idd":
        for k in source_sizes[:2]:
            node_costs.append(cfg.local_epochs * k * 3 * (mac_g + mac_f))
        node_costs.append(cfg.local_epochs * target_size * (3 * mac_g + 3 * 2 * mac_f))
        server = 2 * (mac_g + mac_f)
    elif cfg.protocol == "source_only":
        for k in source_sizes:
            node_costs.append(cfg.local_epochs * k * 3 * (mac_g + mac_f))
        server = n * (mac_g + mac_f)
    else:  # oracle
        node_costs.append(cfg.local_epochs * target_size * 3 * (mac_g + mac_f))
        server = 0
    return max(node_costs) / MACS_PER_MS, server / MACS_PER_MS


# ---------------------------------------------------------------------------
# protocol runs


def _validate_setup(cfg: ProtocolConfig, sources: Sequence[DomainDataset],
                    target: DomainDataset, min_sources: int) -> None:
    cfg.validate()
    if len(sources) < min_sources:
        raise ConfigError(
            f"protocol {cfg.protocol!r} needs at least {min_sources} sources, "
            f"got {len(sources)}")
    dims = {d.feature_dim for d in (*sources, target)}
    if len(dims) != 1:
        raise ConfigError(f"datasets disagree on feature dim: {sorted(dims)}")
    classes = {d.num_classes for d in (*sources, target)}
    if len(classes) != 1:
        raise ConfigError(f"datasets disagree on class count: {sorted(classes)}")
    for d in sources:
        if d.labels is None:
            raise DataError(f"source domain {d.name!r} must be labeled")


def _init_model(cfg: ProtocolConfig, input_dim: int, num_classes: int):
    rng = _rng(cfg.seed, 0, _SERVER_NODE, 0)
    extractor = FeatureExtractor.init(input_dim, cfg.hidden_dims, cfg.feature_dim, rng)
    classifier = Classifier.init(cfg.feature_dim, num_classes, rng)
    return extractor, classifier


def _split_target(cfg: ProtocolConfig, target: DomainDataset):
    train, test = target.split(1.0 - cfg.eval_fraction, seed=cfg.seed)
    return train, test


def run_gala(cfg: ProtocolConfig, sources: Sequence[DomainDataset],
             target: DomainDataset, round_hook=None) -> RunResult:
    """Run the group-weighted adaptation protocol (or, when cfg.protocol is
    ``full_pairwise``, the quadratic all-pairs variant used for comparison).

    Target labels are consulted only by the held-out evaluation split; the
    round loop sees an unlabeled view of the target training split.
    round_hook, if given, receives a dict of round internals (weights,
    fine-tuned classifiers, merged classifier, partition) after each round;
    it exists for instrumentation and must not mutate its argument.
    """
    if cfg.protocol not in ("gala", "full_pairwise"):
        raise ConfigError("run_gala handles the gala and full_pairwise protocols")
    _validate_setup(cfg, sources, target, min_sources=2)
    n = len(sources)
    num_classes = target.num_classes
    target_train, target_eval = _split_target(cfg, target)
    target_view = target_train.strip_labels()

    extractor, classifier = _init_model(cfg, target.feature_dim, num_classes)
    mac_g, mac_f = _mac_extractor(extractor), cfg.feature_dim * num_classes
    bytes_up, bytes_down = account_communication(
        cfg.protocol, n, extractor.params.size, classifier.params.size,
        num_classes, cfg.feature_dim, cfg.weighting)
    wall_client, wall_server = _round_wall_model(
        cfg, [s.n_samples for s in sources], target_view.n_samples,
        mac_g, mac_f, num_classes)

    records = []
    for t in range(cfg.rounds):
        lr = lr_schedule(cfg.lr0, t, cfg.gamma)

        # relevance weights from soft centroids under the broadcast model
        if cfg.weighting == "uniform":
            sims = np.zeros(n)
            weights = uniform_weights(n)
        else:
            target_cent = compute_centroids(extractor, classifier, target_view)
            sims = np.array([
                similarity_score(target_cent, compute_centroids(extractor, classifier, src))
                for src in sources])
            weights = mdmgb_plus(sims, cfg.tau) if cfg.weighting == "mdmgb_plus" \
                else mdmgb_baseline(sims)

        # parallel source training from the broadcast model
        trained_g, trained_f, source_losses = _train_lockstep(
            cfg, lr, extractor, [classifier] * n, sources,
            [_rng(cfg.seed, t, i, 1) for i in range(n)], round_index=t)

        # weighted extractor aggregation, then frozen-extractor fine-tune
        aggregated = extractor.with_params(
            weighted_mean([g.params for g in trained_g], weights))
        _, finetuned, _ = _train_lockstep(
            cfg, lr, aggregated, trained_f, sources,
            [_rng(cfg.seed, t, i, 2) for i in range(n)], round_index=t,
            update_extractor=False)

        if cfg.protocol == "gala":
            partition = random_partition(n, seed=_partition_seed(cfg.seed, t))
            # runtime guard: the group-renormalized weights must stay the
            # exact restriction of the globals (the round is invalid otherwise);
            # a weight that underflows to zero at a large tau fails it
            try:
                group_w = group_normalize(weights, partition)
                DomainWeights(weights, group_w, sims, cfg.tau, partition).validate(1e-9)
            except ValueError as exc:
                raise NumericError(str(exc), round_index=t, client="server") from exc
            groups = []
            for members in (partition.g1, partition.g2):
                groups.append(GroupClassifier(
                    [(i, finetuned[i]) for i in members],
                    group_w[list(members)]))
            gc1, gc2 = groups
            w_g1 = float(weights[list(partition.g1)].sum())
            w_g2 = float(weights[list(partition.g2)].sum())

            try:
                if cfg.use_igd:
                    extractor, igd_value = _igd_pass(
                        cfg, aggregated, gc1, gc2, target_view, lr,
                        _rng(cfg.seed, t, _TARGET_NODE, 3))
                else:
                    igd_value, _ = igd_loss(aggregated, gc1, gc2,
                                            target_view.samples.astype(np.float64))
                    extractor = aggregated
            except NumericError as exc:
                raise NumericError(str(exc), round_index=t, client="target") from exc

            # parameter-space merge; equals sum_n w_n F_n by weight cancellation
            f_g1 = weighted_mean([finetuned[i].params for i in partition.g1],
                                 group_w[list(partition.g1)])
            f_g2 = weighted_mean([finetuned[i].params for i in partition.g2],
                                 group_w[list(partition.g2)])
            classifier = classifier.with_params(
                weighted_mean([f_g1, f_g2], [w_g1, w_g2]))
        else:  # full_pairwise
            partition = None
            try:
                extractor, igd_value = _full_pairwise_pass(
                    cfg, aggregated, finetuned, target_view, lr,
                    _rng(cfg.seed, t, _TARGET_NODE, 3))
            except NumericError as exc:
                raise NumericError(str(exc), round_index=t, client="target") from exc
            classifier = classifier.with_params(
                weighted_mean([f.params for f in finetuned], weights))

        acc = evaluate_accuracy(extractor, classifier, target_eval)
        records.append(RoundRecord(t, weights, partition, source_losses,
                                   float(igd_value), acc, bytes_up, bytes_down,
                                   wall_client, wall_server, lr))
        if round_hook is not None:
            round_hook({"round": t, "weights": weights, "similarities": sims,
                        "partition": partition, "finetuned": finetuned,
                        "classifier": classifier, "extractor": extractor})
    metadata = {"protocol": cfg.protocol, "weighting": cfg.weighting,
                "use_igd": cfg.use_igd, "n_sources": n}
    return RunResult(records, extractor, classifier, metadata)


def _partition_seed(seed: int, round_index: int) -> int:
    # fresh partition seed each round, derived from the experiment seed
    return int(np.random.SeedSequence((int(seed), int(round_index), 0xF17)).generate_state(1)[0])


def sample_pair(seed: int, round_index: int, n_sources: int) -> tuple[int, int]:
    """The pair protocol's per-round source selection (uniform over pairs)."""
    pairs = list(itertools.combinations(range(n_sources), 2))
    return pairs[_rng(seed, round_index, _SERVER_NODE, 4).integers(len(pairs))]


def _igd_pass(cfg, extractor, gc1, gc2, target_view, lr, rng):
    """One target stage: local_epochs of minibatch SGD on the group loss,
    updating only the extractor. Returns it and the mean batch loss."""
    opt = OptimizerState.for_params(extractor.params, cfg.momentum, cfg.weight_decay)
    data = target_view.samples
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(data.shape[0])
        for start in range(0, data.shape[0], cfg.batch_size):
            batch = data[order[start : start + cfg.batch_size]].astype(np.float64)
            loss, grad = igd_loss(extractor, gc1, gc2, batch)
            if not np.isfinite(loss):
                raise NumericError("non-finite group-discrepancy loss")
            losses.append(loss)
            extractor = extractor.with_params(sgd_step(extractor.params, grad, opt, lr))
    return extractor, float(np.mean(losses))


def _full_pairwise_pass(cfg, extractor, classifiers, target_view, lr, rng):
    """Target stage minimizing the sum of all pair losses (quadratic cost)."""
    opt = OptimizerState.for_params(extractor.params, cfg.momentum, cfg.weight_decay)
    data = target_view.samples
    pairs = list(itertools.combinations(range(len(classifiers)), 2))
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(data.shape[0])
        for start in range(0, data.shape[0], cfg.batch_size):
            batch = data[order[start : start + cfg.batch_size]].astype(np.float64)
            total = 0.0
            grad = extractor.params.zeros_like()
            for i, j in pairs:
                loss_ij, grad_ij = idd_loss(extractor, classifiers[i], classifiers[j], batch)
                total += loss_ij
                grad = grad.add(grad_ij)
            losses.append(total)
            extractor = extractor.with_params(sgd_step(extractor.params, grad, opt, lr))
    return extractor, float(np.mean(losses))


def run_fact_idd(cfg: ProtocolConfig, sources: Sequence[DomainDataset],
                 target: DomainDataset) -> RunResult:
    """Random-pair disagreement protocol: each round samples two sources,
    trains them, aggregates their extractors equally, and minimizes the pair
    disagreement on the target.

    This is a variance-faithful stand-in for pair-sampling adversarial
    training, not a reimplementation of any published system; the pair
    aggregation rule is this library's convention (see metadata).
    """
    if cfg.protocol != "fact_idd":
        raise ConfigError("run_fact_idd requires cfg.protocol == 'fact_idd'")
    _validate_setup(cfg, sources, target, min_sources=2)
    n = len(sources)
    num_classes = target.num_classes
    target_train, target_eval = _split_target(cfg, target)
    target_view = target_train.strip_labels()
    extractor, classifier = _init_model(cfg, target.feature_dim, num_classes)
    mac_g, mac_f = _mac_extractor(extractor), cfg.feature_dim * num_classes
    bytes_up, bytes_down = account_communication(
        "fact_idd", n, extractor.params.size, classifier.params.size,
        num_classes, cfg.feature_dim)

    records = []
    for t in range(cfg.rounds):
        lr = lr_schedule(cfg.lr0, t, cfg.gamma)
        pair = sample_pair(cfg.seed, t, n)
        pair_g, pair_f, pair_losses = _train_lockstep(
            cfg, lr, extractor, [classifier] * 2, [sources[i] for i in pair],
            [_rng(cfg.seed, t, i, 1) for i in pair], round_index=t)
        source_losses = np.full(n, np.nan)
        source_losses[list(pair)] = pair_losses

        aggregated = extractor.with_params(weighted_mean(
            [g.params for g in pair_g], [0.5, 0.5]))
        gc = [GroupClassifier([(i, f)], np.array([1.0])) for i, f in zip(pair, pair_f)]
        try:
            extractor, idd_value = _igd_pass(cfg, aggregated, gc[0], gc[1],
                                             target_view, lr,
                                             _rng(cfg.seed, t, _TARGET_NODE, 3))
        except NumericError as exc:
            raise NumericError(str(exc), round_index=t, client="target") from exc
        classifier = classifier.with_params(weighted_mean(
            [f.params for f in pair_f], [0.5, 0.5]))

        weights = np.zeros(n)
        weights[list(pair)] = 0.5
        wall_client, wall_server = _round_wall_model(
            cfg, [sources[i].n_samples for i in pair], target_view.n_samples,
            mac_g, mac_f, num_classes)
        acc = evaluate_accuracy(extractor, classifier, target_eval)
        records.append(RoundRecord(t, weights, None, source_losses,
                                   float(idd_value), acc, bytes_up, bytes_down,
                                   wall_client, wall_server, lr))
    metadata = {"protocol": "fact_idd (reimplementation)", "n_sources": n}
    return RunResult(records, extractor, classifier, metadata)


def run_source_only(cfg: ProtocolConfig, sources: Sequence[DomainDataset],
                    target: DomainDataset) -> RunResult:
    """Uniform federated averaging of supervised source training; no
    adaptation. The lower reference point."""
    if cfg.protocol != "source_only":
        raise ConfigError("run_source_only requires cfg.protocol == 'source_only'")
    _validate_setup(cfg, sources, target, min_sources=1)
    n = len(sources)
    num_classes = target.num_classes
    _, target_eval = _split_target(cfg, target)
    extractor, classifier = _init_model(cfg, target.feature_dim, num_classes)
    mac_g, mac_f = _mac_extractor(extractor), cfg.feature_dim * num_classes
    bytes_up, bytes_down = account_communication(
        "source_only", n, extractor.params.size, classifier.params.size,
        num_classes, cfg.feature_dim)
    weights = uniform_weights(n)
    wall_client, wall_server = _round_wall_model(
        cfg, [s.n_samples for s in sources], 0, mac_g, mac_f, num_classes)

    records = []
    for t in range(cfg.rounds):
        lr = lr_schedule(cfg.lr0, t, cfg.gamma)
        g_list, f_list, source_losses = _train_lockstep(
            cfg, lr, extractor, [classifier] * n, sources,
            [_rng(cfg.seed, t, i, 1) for i in range(n)], round_index=t)
        extractor = extractor.with_params(weighted_mean([g.params for g in g_list], weights))
        classifier = classifier.with_params(weighted_mean([f.params for f in f_list], weights))
        acc = evaluate_accuracy(extractor, classifier, target_eval)
        records.append(RoundRecord(t, weights, None, source_losses, 0.0, acc,
                                   bytes_up, bytes_down, wall_client, wall_server, lr))
    return RunResult(records, extractor, classifier,
                     {"protocol": "source_only", "n_sources": n})


def run_oracle(cfg: ProtocolConfig, target: DomainDataset) -> RunResult:
    """Supervised training on the labeled target; the upper reference point."""
    if cfg.protocol != "oracle":
        raise ConfigError("run_oracle requires cfg.protocol == 'oracle'")
    cfg.validate()
    if target.labels is None:
        raise DataError("oracle training needs a labeled target")
    target_train, target_eval = _split_target(cfg, target)
    extractor, classifier = _init_model(cfg, target.feature_dim, target.num_classes)
    mac_g, mac_f = _mac_extractor(extractor), cfg.feature_dim * target.num_classes
    wall_client, wall_server = _round_wall_model(
        cfg, [], target_train.n_samples, mac_g, mac_f, target.num_classes)

    records = []
    for t in range(cfg.rounds):
        lr = lr_schedule(cfg.lr0, t, cfg.gamma)
        try:
            (extractor,), (classifier,), loss = _train_lockstep(
                cfg, lr, extractor, [classifier], [target_train],
                [_rng(cfg.seed, t, _TARGET_NODE, 1)])
        except NumericError as exc:
            raise NumericError(exc.reason, round_index=t, client="target") from exc
        acc = evaluate_accuracy(extractor, classifier, target_eval)
        records.append(RoundRecord(t, np.zeros(0), None, loss, 0.0,
                                   acc, 0, 0, wall_client, wall_server, lr))
    return RunResult(records, extractor, classifier, {"protocol": "oracle"})


def run_protocol(cfg: ProtocolConfig, sources: Sequence[DomainDataset],
                 target: DomainDataset) -> RunResult:
    """Dispatch on cfg.protocol."""
    if cfg.protocol in ("gala", "full_pairwise"):
        return run_gala(cfg, sources, target)
    if cfg.protocol == "fact_idd":
        return run_fact_idd(cfg, sources, target)
    if cfg.protocol == "source_only":
        return run_source_only(cfg, sources, target)
    if cfg.protocol == "oracle":
        return run_oracle(cfg, target)
    raise ConfigError(f"unknown protocol {cfg.protocol!r}")


def similarity_matrix(domains: Sequence[DomainDataset], cfg: ProtocolConfig) -> np.ndarray:
    """Cross-domain accuracy matrix: entry (i, j) is the test accuracy on
    domain j of a model trained only on domain i's training split.

    Training uses a fixed learning rate (no schedule); rounds are epochs.
    Diagonal entries are self-performance, the usual difficulty ordering.
    """
    cfg.validate()
    for d in domains:
        d.require_labels()
    splits = [d.split(1.0 - cfg.eval_fraction, seed=cfg.seed) for d in domains]
    out = np.empty((len(domains), len(domains)))
    for i, (train_i, _) in enumerate(splits):
        extractor, classifier = _init_model(cfg, train_i.feature_dim, train_i.num_classes)
        for t in range(cfg.rounds):
            (extractor,), (classifier,), _ = _train_lockstep(
                cfg, cfg.lr0, extractor, [classifier], [train_i],
                [_rng(cfg.seed, t, i, 5)], round_index=t)
        for j, (_, test_j) in enumerate(splits):
            out[i, j] = evaluate_accuracy(extractor, classifier, test_j)
    return out
