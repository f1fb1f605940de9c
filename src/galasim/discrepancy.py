"""Classifier-disagreement objectives on unlabeled target data.

The inter-group loss is the batch-mean L1 distance between the predictions of
two weighted classifier groups; the single-pair loss is its special case with
singleton groups; the full pairwise loss sums the pair loss over all unordered
classifier pairs. Gradients flow only into the shared feature extractor, with
the L1 subgradient taken as 0 at kinks so that identical groups are an exact
fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .nn import Classifier, FeatureExtractor, ParamStack, ParamVec, softmax


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint cover of source indices 0..N-1 by two groups.

    Sizes are floor(N/2) and ceil(N/2); for odd N the larger group is g2.
    """

    g1: tuple[int, ...]
    g2: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        n = len(self.g1) + len(self.g2)
        if sorted(self.g1 + self.g2) != list(range(n)):
            raise ValueError("groups must disjointly cover 0..N-1")
        if len(self.g1) != n // 2:
            raise ValueError("group sizes must be floor(N/2) and ceil(N/2)")
        if n >= 2 and (not self.g1 or not self.g2):
            raise ValueError("both groups must be nonempty for N >= 2")

    def bitmask_g1(self) -> int:
        return sum(1 << i for i in self.g1)


def random_partition(n_sources: int, seed: int) -> GroupPartition:
    """Uniformly random split into groups of size floor(N/2) / ceil(N/2)."""
    if n_sources < 2:
        raise ConfigError("random_partition needs at least 2 sources")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x9A27)))
    order = rng.permutation(n_sources)
    half = n_sources // 2
    return GroupPartition(tuple(sorted(int(i) for i in order[:half])),
                          tuple(sorted(int(i) for i in order[half:])),
                          seed=int(seed))


def enumerate_partitions(n_sources: int) -> list[GroupPartition]:
    """All distinct unordered (floor, ceil) splits; the small-instance oracle."""
    from itertools import combinations

    if n_sources < 2:
        raise ConfigError("need at least 2 sources")
    half = n_sources // 2
    seen = set()
    out = []
    for combo in combinations(range(n_sources), half):
        rest = tuple(sorted(set(range(n_sources)) - set(combo)))
        key = frozenset((combo, rest)) if len(combo) == len(rest) else (combo, rest)
        if key in seen:
            continue
        seen.add(key)
        out.append(GroupPartition(tuple(combo), rest))
    return out


@dataclass
class GroupClassifier:
    """Convex combination, in probability space, of member classifiers.

    The members' parameters are read once, at construction, into one
    Classifier over a ParamStack: a member's params mutated afterwards are
    not seen. Each member's slice of the stacked math is computed as its own
    Classifier computes it, and sums over members run in member order from
    +0.0, so the results are those of a loop over the members, bit for bit.
    """

    members: list[tuple[int, Classifier]]
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.members) == 0:
            raise ValueError("group classifier needs at least one member")
        if self.weights.shape != (len(self.members),):
            raise ValueError("one weight per member required")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("group weights must sum to 1")
        d0 = self.members[0][1].input_dim
        c0 = self.members[0][1].num_classes
        for _, clf in self.members:
            if clf.input_dim != d0 or clf.num_classes != c0:
                raise ConfigError("group members must share feature dim and class count")
        self._heads = Classifier(d0, c0, ParamStack.of([clf.params for _, clf in self.members]))

    @property
    def num_classes(self) -> int:
        return self.members[0][1].num_classes

    @property
    def input_dim(self) -> int:
        return self.members[0][1].input_dim

    def predict(self, z: np.ndarray) -> np.ndarray:
        """Weighted average of member probability outputs (post-softmax);
        one probability vector for one feature vector, as Classifier.forward."""
        probs = self._average(self._member_probs(z))
        return probs[0] if np.ndim(z) == 1 else probs

    def _member_probs(self, z: np.ndarray) -> np.ndarray:
        """(m, batch, C): every member's softmax on the features z."""
        return softmax(self._heads.logits(z))

    def _member_sum(self, per_member: np.ndarray) -> np.ndarray:
        # +0.0, then member by member. np.add.reduce over axis 0 is not this
        # order: with one element per member it sums 8 or more pairwise.
        total = np.zeros(per_member.shape[1:])
        for term in per_member:
            total += term
        return total

    def _average(self, member_probs: np.ndarray) -> np.ndarray:
        return self._member_sum(self.weights[:, None, None] * member_probs)

    def _backprop_dfeatures(self, member_probs: np.ndarray,
                            dprobs: np.ndarray) -> np.ndarray:
        """d(loss)/d(features) through every member's softmax and linear
        layer, given the members' probabilities and d(loss)/d(prediction)."""
        dq = self.weights[:, None, None] * dprobs
        # softmax Jacobian-transpose: q * (dq - <dq, q>)
        du = member_probs * (dq - (dq * member_probs).sum(axis=-1, keepdims=True))
        return self._member_sum(du @ self._heads.params.unpack()["w"])


def igd_loss(extractor: FeatureExtractor, gc1: GroupClassifier, gc2: GroupClassifier,
             target_batch: np.ndarray) -> tuple[float, ParamVec]:
    """Batch-mean L1 distance between the two group predictions and its
    gradient with respect to the extractor parameters only."""
    x = np.atleast_2d(np.asarray(target_batch, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("igd_loss: empty batch")
    if gc1.input_dim != extractor.output_dim or gc2.input_dim != extractor.output_dim:
        raise ConfigError("group classifier feature dim does not match extractor output")
    acts = extractor.forward_trace(x)
    features = acts[-1]
    q1 = gc1._member_probs(features)  # each member's softmax, computed once
    q2 = gc2._member_probs(features)
    diff = gc1._average(q1) - gc2._average(q2)
    batch = x.shape[0]
    loss = float(np.abs(diff).sum() / batch)
    sign = np.sign(diff) / batch  # sign(0) = 0 keeps identical groups a fixed point
    dfeat = gc1._backprop_dfeatures(q1, sign)
    dfeat += gc2._backprop_dfeatures(q2, -sign)
    grad = extractor.backprop(acts, dfeat)
    return loss, grad


def idd_loss(extractor: FeatureExtractor, clf_i: Classifier, clf_j: Classifier,
             target_batch: np.ndarray) -> tuple[float, ParamVec]:
    """Single-pair disagreement: the group loss with singleton groups."""
    gc_i = GroupClassifier([(0, clf_i)], np.array([1.0]))
    gc_j = GroupClassifier([(0, clf_j)], np.array([1.0]))
    return igd_loss(extractor, gc_i, gc_j, target_batch)


def full_pairwise_loss(extractor: FeatureExtractor, classifiers: Sequence[Classifier],
                       target_batch: np.ndarray) -> float:
    """Sum of the pair loss over all unordered classifier pairs (evaluation only)."""
    if len(classifiers) < 2:
        raise ValueError("full_pairwise_loss needs at least 2 classifiers")
    total = 0.0
    for i in range(len(classifiers)):
        for j in range(i + 1, len(classifiers)):
            loss, _ = idd_loss(extractor, classifiers[i], classifiers[j], target_batch)
            total += loss
    return total


def away_from_kinks(extractor: FeatureExtractor, gc1: GroupClassifier,
                    gc2: GroupClassifier, batch: np.ndarray,
                    diff_margin: float = 1e-6, relu_margin: float = 1e-4) -> bool:
    """True when the group loss is differentiable in a finite-difference
    window: no group-prediction difference component within diff_margin of
    the L1 kink at zero, and no ReLU pre-activation within relu_margin of
    zero. Gradient checks must resample configurations that fail this."""
    x = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    acts = extractor.forward_trace(x)
    # layer i's pre-activation, recomputed from its input acts[i]
    if min(np.abs(extractor.layer_preact(i, a)).min()
           for i, a in enumerate(acts[:-1])) < relu_margin:
        return False
    diff = gc1.predict(acts[-1]) - gc2.predict(acts[-1])
    return bool(np.abs(diff).min() >= diff_margin)
