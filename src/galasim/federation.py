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


def _train_supervised(extractor: FeatureExtractor, classifier: Classifier,
                      dataset: DomainDataset, epochs: int, batch_size: int,
                      lr: float, momentum: float, weight_decay: float,
                      rng: np.random.Generator, mixup_alpha: Optional[float] = None,
                      update_extractor: bool = True):
    """Minibatch cross-entropy SGD; returns (extractor, classifier, mean loss).

    With update_extractor=False only the classifier head trains: each batch
    goes through the frozen extractor forward and no extractor gradient is
    formed."""
    x = dataset.samples.astype(np.float64)
    y = dataset.require_labels()
    opt_g = OptimizerState.for_params(extractor.params, lr, momentum, weight_decay) \
        if update_extractor else None
    opt_f = OptimizerState.for_params(classifier.params, lr, momentum, weight_decay)
    losses = []
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], batch_size):
            idx = order[start : start + batch_size]
            xb, yb = x[idx], y[idx]
            if mixup_alpha is not None and idx.size >= 2:
                xb, targets = mixup(xb, _onehot(yb, classifier.num_classes),
                                    mixup_alpha, rng)
            else:
                targets = yb
            if update_extractor:
                loss, grad_g, grad_f = cross_entropy_grad(extractor, classifier, xb, targets)
            else:
                loss, grad_f, _ = head_grad(classifier, extractor.forward(xb), targets)
            if not np.isfinite(loss):
                raise NumericError("non-finite training loss")
            losses.append(loss)
            if update_extractor:
                extractor = extractor.with_params(sgd_step(extractor.params, grad_g, opt_g, lr))
            classifier = classifier.with_params(sgd_step(classifier.params, grad_f, opt_f, lr))
    return extractor, classifier, float(np.mean(losses))


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
        trained = []
        source_losses = np.empty(n)
        for i, src in enumerate(sources):
            try:
                g_i, f_i, loss_i = _train_supervised(
                    extractor.with_params(extractor.params.copy()),
                    classifier.with_params(classifier.params.copy()),
                    src, cfg.local_epochs, cfg.batch_size, lr,
                    cfg.momentum, cfg.weight_decay,
                    _rng(cfg.seed, t, i, 1), cfg.mixup_alpha)
            except NumericError as exc:
                raise NumericError(str(exc), round_index=t, client=src.name) from exc
            trained.append((g_i, f_i))
            source_losses[i] = loss_i

        # weighted extractor aggregation, then frozen-extractor fine-tune
        aggregated = extractor.with_params(
            weighted_mean([g.params for g, _ in trained], weights))
        finetuned = []
        for i, src in enumerate(sources):
            try:
                _, f_i, _ = _train_supervised(
                    aggregated, trained[i][1], src, cfg.local_epochs,
                    cfg.batch_size, lr, cfg.momentum, cfg.weight_decay,
                    _rng(cfg.seed, t, i, 2), cfg.mixup_alpha,
                    update_extractor=False)
            except NumericError as exc:
                raise NumericError(str(exc), round_index=t, client=src.name) from exc
            finetuned.append(f_i)

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
    """One target stage: local_epochs of minibatch SGD on the group loss."""
    opt = OptimizerState.for_params(extractor.params, lr, cfg.momentum, cfg.weight_decay)
    data = target_view.samples.astype(np.float64)
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(data.shape[0])
        for start in range(0, data.shape[0], cfg.batch_size):
            batch = data[order[start : start + cfg.batch_size]]
            loss, grad = igd_loss(extractor, gc1, gc2, batch)
            losses.append(loss)
            extractor = extractor.with_params(sgd_step(extractor.params, grad, opt, lr))
    return extractor, float(np.mean(losses))


def _full_pairwise_pass(cfg, extractor, classifiers, target_view, lr, rng):
    """Target stage minimizing the sum of all pair losses (quadratic cost)."""
    opt = OptimizerState.for_params(extractor.params, lr, cfg.momentum, cfg.weight_decay)
    data = target_view.samples.astype(np.float64)
    pairs = list(itertools.combinations(range(len(classifiers)), 2))
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(data.shape[0])
        for start in range(0, data.shape[0], cfg.batch_size):
            batch = data[order[start : start + cfg.batch_size]]
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
        trained = {}
        source_losses = np.full(n, np.nan)
        for i in pair:
            try:
                g_i, f_i, loss_i = _train_supervised(
                    extractor.with_params(extractor.params.copy()),
                    classifier.with_params(classifier.params.copy()),
                    sources[i], cfg.local_epochs, cfg.batch_size, lr,
                    cfg.momentum, cfg.weight_decay,
                    _rng(cfg.seed, t, i, 1), cfg.mixup_alpha)
            except NumericError as exc:
                raise NumericError(str(exc), round_index=t, client=sources[i].name) from exc
            trained[i] = (g_i, f_i)
            source_losses[i] = loss_i

        aggregated = extractor.with_params(weighted_mean(
            [trained[i][0].params for i in pair], [0.5, 0.5]))
        gc = [GroupClassifier([(i, trained[i][1])], np.array([1.0])) for i in pair]
        try:
            extractor, idd_value = _igd_pass(cfg, aggregated, gc[0], gc[1],
                                             target_view, lr,
                                             _rng(cfg.seed, t, _TARGET_NODE, 3))
        except NumericError as exc:
            raise NumericError(str(exc), round_index=t, client="target") from exc
        classifier = classifier.with_params(weighted_mean(
            [trained[i][1].params for i in pair], [0.5, 0.5]))

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
        g_list, f_list = [], []
        source_losses = np.empty(n)
        for i, src in enumerate(sources):
            try:
                g_i, f_i, loss_i = _train_supervised(
                    extractor.with_params(extractor.params.copy()),
                    classifier.with_params(classifier.params.copy()),
                    src, cfg.local_epochs, cfg.batch_size, lr,
                    cfg.momentum, cfg.weight_decay,
                    _rng(cfg.seed, t, i, 1), cfg.mixup_alpha)
            except NumericError as exc:
                raise NumericError(str(exc), round_index=t, client=src.name) from exc
            g_list.append(g_i.params)
            f_list.append(f_i.params)
            source_losses[i] = loss_i
        extractor = extractor.with_params(weighted_mean(g_list, weights))
        classifier = classifier.with_params(weighted_mean(f_list, weights))
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
            extractor, classifier, loss = _train_supervised(
                extractor, classifier, target_train, cfg.local_epochs,
                cfg.batch_size, lr, cfg.momentum, cfg.weight_decay,
                _rng(cfg.seed, t, _TARGET_NODE, 1), cfg.mixup_alpha)
        except NumericError as exc:
            raise NumericError(str(exc), round_index=t, client="target") from exc
        acc = evaluate_accuracy(extractor, classifier, target_eval)
        records.append(RoundRecord(t, np.zeros(0), None, np.array([loss]), 0.0,
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
            extractor, classifier, _ = _train_supervised(
                extractor, classifier, train_i, cfg.local_epochs,
                cfg.batch_size, cfg.lr0, cfg.momentum, cfg.weight_decay,
                _rng(cfg.seed, t, i, 5), cfg.mixup_alpha)
        for j, (_, test_j) in enumerate(splits):
            out[i, j] = evaluate_accuracy(extractor, classifier, test_j)
    return out
