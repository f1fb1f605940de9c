"""Classifier-disagreement objectives on unlabeled target data.

The inter-group loss is the batch-mean L1 distance between the predictions of
two weighted classifier groups; the single-pair loss is its special case with
singleton groups; the all-pairs loss sums the pair loss over all unordered
pairs of N classifiers at O(N) forward and backward cost. Gradients flow only
into the shared feature extractor, with the L1 subgradient taken as 0 at kinks
so that identical groups are an exact fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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

    def __post_init__(self):
        n = len(self.g1) + len(self.g2)
        if sorted(self.g1 + self.g2) != list(range(n)):
            raise ValueError("groups must disjointly cover 0..N-1")
        if len(self.g1) != n // 2:  # so for N >= 2 both groups are nonempty
            raise ValueError("group sizes must be floor(N/2) and ceil(N/2)")

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
                          tuple(sorted(int(i) for i in order[half:])))


def enumerate_partitions(n_sources: int) -> list[GroupPartition]:
    """All distinct unordered (floor, ceil) splits; the small-instance oracle.
    An even split is listed once, with source 0 in g1."""
    if n_sources < 2:
        raise ConfigError("need at least 2 sources")
    return [GroupPartition(g1, tuple(i for i in range(n_sources) if i not in g1))
            for g1 in combinations(range(n_sources), n_sources // 2)
            if n_sources % 2 or 0 in g1]


@dataclass
class GroupClassifier:
    """Convex combination, in probability space, of member classifiers (the
    heads of one source group), one weight per member.

    The members' parameters are read once, at construction, into one
    Classifier over a ParamStack: a member's params mutated afterwards are
    not seen. Each member's slice of the stacked math is computed as its own
    Classifier computes it, and sums over members run in member order from
    +0.0, so the results are those of a loop over the members, bit for bit.
    """

    members: list[Classifier]
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if len(self.members) == 0:
            raise ValueError("group classifier needs at least one member")
        if self.weights.shape != (len(self.members),):
            raise ValueError("one weight per member required")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("group weights must sum to 1")
        d0 = self.members[0].input_dim
        c0 = self.members[0].num_classes
        for clf in self.members:
            if clf.input_dim != d0 or clf.num_classes != c0:
                raise ConfigError("group members must share feature dim and class count")
        self._heads = Classifier(d0, c0, ParamStack.of([clf.params for clf in self.members]))

    @property
    def input_dim(self) -> int:
        return self.members[0].input_dim

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

    def _backprop_dfeatures(self, member_probs: np.ndarray, dq: np.ndarray) -> np.ndarray:
        """d(loss)/d(features) through every member's softmax and linear
        layer, given the members' probabilities and d(loss)/d(their probs)."""
        # softmax Jacobian-transpose: q * (dq - <dq, q>)
        du = member_probs * (dq - (dq * member_probs).sum(axis=-1, keepdims=True))
        return self._member_sum(du @ self._heads.params.unpack()["w"])


def _trace(extractor: FeatureExtractor, target_batch: np.ndarray,
           *groups: GroupClassifier) -> list[np.ndarray]:
    """The extractor's activations on a nonempty batch the groups can read."""
    x = np.atleast_2d(np.asarray(target_batch))  # forward_trace picks the dtype
    if x.shape[0] == 0:
        raise ValueError("disagreement loss: empty batch")
    if any(gc.input_dim != extractor.output_dim for gc in groups):
        raise ConfigError("group classifier feature dim does not match extractor output")
    return extractor.forward_trace(x)


def igd_loss(extractor: FeatureExtractor, gc1: GroupClassifier, gc2: GroupClassifier,
             target_batch: np.ndarray) -> tuple[float, ParamVec]:
    """Batch-mean L1 distance between the two group predictions and its
    gradient with respect to the extractor parameters only."""
    acts = _trace(extractor, target_batch, gc1, gc2)
    features = acts[-1]
    q1 = gc1._member_probs(features)  # each member's softmax, computed once
    q2 = gc2._member_probs(features)
    diff = gc1._average(q1) - gc2._average(q2)
    batch = features.shape[0]
    loss = float(np.abs(diff).sum() / batch)
    sign = np.sign(diff) / batch  # sign(0) = 0 keeps identical groups a fixed point
    dfeat = gc1._backprop_dfeatures(q1, gc1.weights[:, None, None] * sign)
    dfeat += gc2._backprop_dfeatures(q2, gc2.weights[:, None, None] * -sign)
    grad = extractor.backprop(acts, dfeat)
    return loss, grad


def idd_loss(extractor: FeatureExtractor, clf_i: Classifier, clf_j: Classifier,
             target_batch: np.ndarray) -> tuple[float, ParamVec]:
    """Single-pair disagreement: the group loss with singleton groups."""
    gc_i = GroupClassifier([clf_i], np.array([1.0]))
    gc_j = GroupClassifier([clf_j], np.array([1.0]))
    return igd_loss(extractor, gc_i, gc_j, target_batch)


def all_pairs_loss(extractor: FeatureExtractor, classifiers: Sequence[Classifier],
                   target_batch: np.ndarray) -> tuple[float, ParamVec]:
    """The pair loss summed over all unordered pairs of the N classifiers, and
    its extractor gradient, from one forward pass, one stacked softmax and one
    backprop: d/dq_i of sum_{i<j} |q_i - q_j| is sum_{j != i} sign(q_i - q_j),
    so only these (batch, C) sign sums are quadratic in N."""
    n = len(classifiers)
    if n < 2:
        raise ValueError("the pairwise loss needs at least 2 classifiers")
    heads = GroupClassifier(list(classifiers), np.full(n, 1.0 / n))
    acts = _trace(extractor, target_batch, heads)
    q = heads._member_probs(acts[-1])  # (N, batch, C); the group weights go unused
    diff = q[:, None] - q[None]  # (N, N, batch, C): q_i - q_j
    loss = float(np.abs(diff).sum() / (2 * q.shape[1]))  # each pair appears twice
    dq = np.sign(diff).sum(axis=1) / q.shape[1]  # sign(0) = 0: tied heads add nothing
    return loss, extractor.backprop(acts, heads._backprop_dfeatures(q, dq))


_DIFF_MARGIN = 1e-6  # how near the L1 kink a group-prediction difference may be
_RELU_MARGIN = 1e-4  # how near zero a ReLU pre-activation may be


def away_from_kinks(extractor: FeatureExtractor, gc1: GroupClassifier,
                    gc2: GroupClassifier, batch: np.ndarray) -> bool:
    """True when the group loss is differentiable in a finite-difference
    window: no group-prediction difference component within _DIFF_MARGIN of
    the L1 kink at zero, and no ReLU pre-activation within _RELU_MARGIN of
    zero. Gradient checks must resample configurations that fail this."""
    x = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    acts = extractor.forward_trace(x)
    # layer i's pre-activation, recomputed from its input acts[i]
    if min(np.abs(extractor.layer_preact(i, a)).min()
           for i, a in enumerate(acts[:-1])) < _RELU_MARGIN:
        return False
    diff = gc1.predict(acts[-1]) - gc2.predict(acts[-1])
    return bool(np.abs(diff).min() >= _DIFF_MARGIN)
