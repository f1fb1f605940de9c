"""Centroid and source-weighting tests against hand-computed and
brute-force oracles."""

import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from galasim import (
    CentroidSet,
    Classifier,
    FeatureExtractor,
    compute_centroids,
    gen_gaussian_domain,
    group_normalize,
    mdmgb_baseline,
    mdmgb_plus,
    random_partition,
    similarity_score,
    softmax,
    uniform_weights,
)
from galasim.discrepancy import GroupPartition


def model_for(dim, d, num_classes, seed):
    rng = np.random.default_rng(seed)
    return (FeatureExtractor.init(dim, (6,), d, rng),
            Classifier.init(d, num_classes, rng))


def brute_force_centroids(extractor, classifier, dataset):
    """Per-sample loop, accumulating sums the long way."""
    C = classifier.num_classes
    d = extractor.output_dim
    num = np.zeros((C, d))
    den = np.zeros(C)
    for row in dataset.samples:
        z = extractor.forward(row.astype(np.float64))
        delta = classifier.forward(z)
        for c in range(C):
            num[c] += delta[c] * z
            den[c] += delta[c]
    return num / den[:, None], den


class TestComputeCentroids:
    def test_single_sample_centroid_is_its_feature(self):
        extractor, classifier = model_for(4, 3, 3, seed=0)
        d = gen_gaussian_domain(2, 8, 4, seed=1)
        single = type(d)("one", d.samples[:1], None, 2)
        cs = compute_centroids(extractor, classifier, single)
        z = extractor.forward(single.samples[0].astype(np.float64))
        for c in range(3):
            if cs.mass[c] > 1e-8:
                np.testing.assert_allclose(cs.centroids[c], z, atol=1e-12)

    def test_identical_features_identical_centroids(self):
        extractor, classifier = model_for(4, 3, 3, seed=0)
        row = np.ones((5, 4), dtype=np.float32)
        ds = type(gen_gaussian_domain(2, 8, 4))("same", row, None, 3)
        cs = compute_centroids(extractor, classifier, ds)
        z = extractor.forward(np.ones(4))
        for c in range(3):
            np.testing.assert_allclose(cs.centroids[c], z, atol=1e-9)

    def test_matches_brute_force(self):
        extractor, classifier = model_for(5, 4, 2, seed=3)
        d = gen_gaussian_domain(2, 10, 5, seed=4)
        assert d.n_samples == 20
        cs = compute_centroids(extractor, classifier, d)
        ref_cent, ref_mass = brute_force_centroids(extractor, classifier, d)
        np.testing.assert_allclose(cs.centroids, ref_cent, atol=1e-9)
        np.testing.assert_allclose(cs.mass, ref_mass, atol=1e-9)

    def test_permutation_invariant(self):
        extractor, classifier = model_for(5, 4, 3, seed=3)
        d = gen_gaussian_domain(3, 8, 5, seed=4)
        perm = np.random.default_rng(0).permutation(d.n_samples)
        shuffled = type(d)(d.name, d.samples[perm], None, 3)
        a = compute_centroids(extractor, classifier, d)
        b = compute_centroids(extractor, classifier, shuffled)
        np.testing.assert_allclose(a.centroids, b.centroids, atol=1e-9)

    def test_label_free(self):
        extractor, classifier = model_for(5, 4, 3, seed=3)
        d = gen_gaussian_domain(3, 8, 5, seed=4)
        a = compute_centroids(extractor, classifier, d)
        b = compute_centroids(extractor, classifier, d.strip_labels())
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_empty_dataset_rejected(self):
        extractor, classifier = model_for(4, 3, 3, seed=0)
        empty = type(gen_gaussian_domain(2, 8, 4))(
            "e", np.zeros((0, 4), np.float32), None, 2)
        with pytest.raises(ValueError):
            compute_centroids(extractor, classifier, empty)


class TestSimilarityScore:
    def make(self, centroids, mass=None):
        centroids = np.asarray(centroids, float)
        if mass is None:
            mass = np.ones(centroids.shape[0])
        return CentroidSet(centroids, mass)

    def test_identical_sets_give_c_plus_one(self):
        cs = self.make([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
        np.testing.assert_allclose(similarity_score(cs, cs), 4.0, atol=1e-12)

    def test_orthogonal_pairs_give_one(self):
        a = self.make([[1.0, 0.0], [0.0, 1.0]])
        b = self.make([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(similarity_score(a, b), 1.0, atol=1e-12)

    def test_mixed_cosines_hand_value(self):
        a = self.make([[1.0, 0.0], [0.0, 2.0]])
        b = self.make([[2.0, 0.0], [0.0, -1.0]])  # cosines +1 and -1
        np.testing.assert_allclose(similarity_score(a, b), 1.0, atol=1e-12)

    def test_low_mass_class_skipped(self):
        a = self.make([[1.0, 0.0], [0.0, 1.0]], mass=[1.0, 1e-12])
        b = self.make([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(similarity_score(a, b), 2.0, atol=1e-12)

    def test_zero_norm_centroid_skipped(self):
        a = self.make([[1.0, 0.0], [0.0, 0.0]])
        b = self.make([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(similarity_score(a, b), 2.0, atol=1e-12)


class TestTemperatureWeights:
    def test_equal_scores_uniform(self):
        w = mdmgb_plus([1.7, 1.7, 1.7, 1.7], tau=2.0)
        np.testing.assert_allclose(w, 0.25, atol=1e-12)

    def test_hand_value(self):
        w = mdmgb_plus([2.0, 1.0], tau=1.0)
        np.testing.assert_allclose(w, [0.7310585786300049, 0.2689414213699951],
                                   atol=1e-5)

    def test_high_tau_saturates(self):
        w = mdmgb_plus([2.0, 1.0], tau=100.0)
        assert w.max() > 1.0 - 1e-10

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(-3, 3, size=6)
        for shift in (-10.0, 0.12, 57.0):
            np.testing.assert_allclose(mdmgb_plus(s + shift, 1.3),
                                       mdmgb_plus(s, 1.3), atol=1e-9)

    @given(s=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12),
           tau=st.floats(0.05, 4.0), shift=st.floats(-100.0, 100.0))
    def test_shift_invariance_property(self, s, tau, shift):
        s = np.asarray(s)
        np.testing.assert_allclose(mdmgb_plus(s + shift, tau), mdmgb_plus(s, tau),
                                   rtol=1e-9, atol=1e-12)

    def test_tiny_tau_near_uniform(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(-5, 5, size=8)
        w = mdmgb_plus(s, tau=1e-6)
        assert np.abs(w - 1.0 / 8).max() <= 1e-4

    def test_monotone_in_score(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = rng.uniform(-4, 4, size=6)
            tau = float(rng.uniform(0.05, 5.0))
            w = mdmgb_plus(s, tau)
            order = np.argsort(s)
            assert np.all(np.diff(w[order]) > 0) or np.all(np.diff(s[order]) == 0)

    def test_overflow_safe(self):
        w = mdmgb_plus([5.0, 4.0, 1.0], tau=300.0)
        assert np.isfinite(w).all()
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)


class TestBaselineWeights:
    def test_equal_scores(self):
        np.testing.assert_allclose(mdmgb_baseline([1.0, 1.0, 1.0]),
                                   [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_hand_value(self):
        np.testing.assert_allclose(mdmgb_baseline([3.0, 1.0]), [0.75, 0.25],
                                   atol=1e-12)

    def test_all_zero_falls_back_uniform(self, caplog):
        with caplog.at_level(logging.WARNING, logger="galasim.weighting"):
            w = mdmgb_baseline([0.0, 0.0])
        np.testing.assert_allclose(w, [0.5, 0.5], atol=0)
        assert any("uniform" in rec.message for rec in caplog.records)

    def test_negative_scores_clamped(self):
        np.testing.assert_allclose(mdmgb_baseline([-1.0, 1.0]), [0.0, 1.0], atol=0)


class TestGroupNormalize:
    def test_singleton_group(self):
        part = GroupPartition((0,), (1, 2))
        w = group_normalize([0.2, 0.3, 0.5], part)
        np.testing.assert_allclose(w[0], 1.0, atol=1e-12)

    def test_uniform_globals(self):
        part = GroupPartition((0, 1), (2, 3, 4))
        w = group_normalize(uniform_weights(5), part)
        np.testing.assert_allclose(w[[0, 1]], 0.5, atol=1e-12)
        np.testing.assert_allclose(w[[2, 3, 4]], 1 / 3, atol=1e-12)

    def test_hand_value(self):
        part = GroupPartition((0, 3), (1, 2))
        w = group_normalize([0.1, 0.2, 0.3, 0.4], part)
        np.testing.assert_allclose(w[0], 0.2, atol=1e-12)
        np.testing.assert_allclose(w[3], 0.8, atol=1e-12)

    def test_group_softmax_identity(self):
        # renormalizing the global softmax within a group must equal the
        # softmax computed over that group alone: the denominator cancels
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            s = rng.uniform(-3, 3, size=n)
            tau = float(rng.uniform(0.1, 4.0))
            part = random_partition(n, seed=int(rng.integers(1 << 31)))
            got = group_normalize(mdmgb_plus(s, tau), part)
            for group in (part.g1, part.g2):
                idx = list(group)
                np.testing.assert_allclose(got[idx], softmax(tau * s[idx]),
                                           atol=1e-9)

    @given(s=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=12),
           tau=st.floats(0.05, 4.0), seed=st.integers(0, 2**31 - 1))
    def test_group_softmax_identity_property(self, s, tau, seed):
        s = np.asarray(s)
        part = random_partition(s.size, seed)
        got = group_normalize(mdmgb_plus(s, tau), part)
        for group in (part.g1, part.g2):
            idx = list(group)
            np.testing.assert_allclose(got[idx], mdmgb_plus(s[idx], tau),
                                       rtol=1e-12, atol=1e-15)

    def test_partition_must_cover(self):
        part = GroupPartition((0,), (1,))
        with pytest.raises(ValueError):
            group_normalize([0.2, 0.3, 0.5], part)


class TestDomainWeights:
    def test_validate_accepts_consistent_round(self):
        from galasim import DomainWeights

        rng = np.random.default_rng(3)
        s = rng.uniform(-2, 2, size=5)
        part = random_partition(5, seed=1)
        w = mdmgb_plus(s, 1.3)
        DomainWeights(w, group_normalize(w, part), s, 1.3, part).validate(1e-9)

    def test_validate_rejects_mismatched_groups(self):
        from galasim import DomainWeights

        rng = np.random.default_rng(4)
        s = rng.uniform(-2, 2, size=4)
        part = random_partition(4, seed=2)
        w = mdmgb_plus(s, 1.0)
        wrong = group_normalize(np.roll(w, 1), part)
        with pytest.raises(ValueError):
            DomainWeights(w, wrong, s, 1.0, part).validate(1e-9)
