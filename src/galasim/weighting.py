"""Source-relevance weighting from class-wise soft centroids.

A domain's centroid for class c is the feature mean weighted by the model's
own class-c probabilities, so the same label-free code path serves source and
target. The similarity of a source to the target is the sum over classes of
centroid cosines plus one; weights come from either a linear normalization of
those scores (the pre-softmax baseline) or a temperature-scaled softmax that
sharpens the contrast, optionally renormalized within partition groups.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence, TYPE_CHECKING

import numpy as np

from .nn import Classifier, FeatureExtractor, softmax

if TYPE_CHECKING:
    from .discrepancy import GroupPartition
    from .domains import DomainDataset

logger = logging.getLogger(__name__)

# classes with less soft mass than this on either side are skipped in the
# similarity sum (their centroid is numerically undefined)
MASS_FLOOR = 1e-8


@dataclass
class CentroidSet:
    """Per-class soft feature centroids and their soft-count masses."""

    centroids: np.ndarray  # (C, d)
    mass: np.ndarray  # (C,)

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if self.centroids.ndim != 2 or self.mass.shape != (self.centroids.shape[0],):
            raise ValueError("centroids must be (C, d) with a C-length mass vector")
        if (self.mass < 0).any():
            raise ValueError("centroid masses must be nonnegative")
        if not np.isfinite(self.centroids).all() or not np.isfinite(self.mass).all():
            raise ValueError("centroid set contains non-finite values")

    @property
    def num_classes(self) -> int:
        return self.centroids.shape[0]


def compute_centroids(extractor: FeatureExtractor, classifier: Classifier,
                      dataset: "DomainDataset") -> CentroidSet:
    """Soft class centroids of a domain under the current model.

    centroid[c] = sum_x delta_c(x) G(x) / sum_x delta_c(x) with delta the
    softmax output of the classifier; labels are never consulted. Classes
    whose soft mass underflows get a zero centroid and are skipped later.
    """
    if dataset.n_samples == 0:
        raise ValueError("compute_centroids: empty dataset")
    features = extractor.forward(dataset.samples)
    delta = classifier.forward(features)  # (n, C)
    mass = delta.sum(axis=0)
    weighted = delta.T @ features  # (C, d)
    safe = np.maximum(mass, MASS_FLOOR)
    centroids = np.where((mass > MASS_FLOOR)[:, None], weighted / safe[:, None], 0.0)
    return CentroidSet(centroids, mass)


def similarity_score(target: CentroidSet, source: CentroidSet) -> float:
    """Sum over classes of centroid cosine similarity, plus one.

    Classes with vanishing soft mass or a zero-norm centroid on either side
    contribute 0. Range [-C+1, C+1].
    """
    if target.num_classes != source.num_classes:
        raise ValueError("centroid sets disagree on the number of classes")
    if target.centroids.shape[1] != source.centroids.shape[1]:
        raise ValueError("centroid sets disagree on the feature dimension")
    total = 0.0
    for c in range(target.num_classes):
        if target.mass[c] < MASS_FLOOR or source.mass[c] < MASS_FLOOR:
            continue
        t, s = target.centroids[c], source.centroids[c]
        tn, sn = np.linalg.norm(t), np.linalg.norm(s)
        if tn == 0.0 or sn == 0.0:
            continue
        total += float(t @ s / (tn * sn))
    return total + 1.0


def mdmgb_plus(similarities: Sequence[float], tau: float) -> np.ndarray:
    """Temperature-scaled softmax weights: w_n = exp(tau*S_n) / sum_j exp(tau*S_j)."""
    s = np.asarray(similarities, dtype=np.float64)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("similarities must be a nonempty vector")
    if not np.isfinite(s).all():
        raise ValueError("similarities must be finite")
    if tau <= 0:
        raise ValueError("tau must be positive")
    return softmax(tau * s)


def mdmgb_baseline(similarities: Sequence[float]) -> np.ndarray:
    """Linear normalization of the raw scores, clamped at zero.

    All-zero scores fall back to uniform with a logged warning. Unlike the
    softmax variant this IS sensitive to the +1 offset in the similarity.
    """
    s = np.maximum(np.asarray(similarities, dtype=np.float64), 0.0)
    total = s.sum()
    if total <= 0.0:
        logger.warning("all similarity scores are zero; falling back to uniform weights")
        return np.full(s.size, 1.0 / s.size)
    return s / total


def uniform_weights(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def group_normalize(global_weights: Sequence[float], partition: "GroupPartition") -> np.ndarray:
    """Renormalize global weights within each partition group.

    Equivalent to running the temperature softmax restricted to the group:
    the global denominator cancels.
    """
    w = np.asarray(global_weights, dtype=np.float64)
    n = w.size
    g1, g2 = list(partition.g1), list(partition.g2)
    if len(g1) == 0 or len(g2) == 0:
        raise ValueError("partition groups must be nonempty")
    if sorted(g1 + g2) != list(range(n)):
        raise ValueError("partition must cover each source index exactly once")
    out = np.empty(n)
    for group in (g1, g2):
        total = w[group].sum()
        if total <= 0.0:
            raise ValueError("group has nonpositive total weight; cannot normalize")
        out[group] = w[group] / total
    return out

