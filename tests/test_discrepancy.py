"""Partition, group-prediction and disagreement-loss tests, including the
small-instance enumeration oracle and finite-difference gradient checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galasim import (
    Classifier,
    ConfigError,
    FeatureExtractor,
    DomainDataset,
    GroupClassifier,
    NumericError,
    ParamVec,
    ProtocolConfig,
    enumerate_partitions,
    full_pairwise_loss,
    idd_loss,
    igd_loss,
    random_partition,
)
from galasim.federation import _target_pass
from galasim.nn import finite_difference_grad, relative_grad_error, softmax


def random_extractor(rng, input_dim=4, hidden=(5,), d=3):
    ext = FeatureExtractor.init(input_dim, hidden, d, rng)
    return ext.with_params(ParamVec(rng.uniform(-0.8, 0.8, ext.params.size),
                                    ext.params.shape_spec))


def random_classifier(rng, d=3, num_classes=3):
    clf = Classifier.init(d, num_classes, rng)
    return clf.with_params(ParamVec(rng.uniform(-0.8, 0.8, clf.params.size),
                                    clf.params.shape_spec))


def onehot_classifier(d, num_classes, hot):
    """Classifier whose output is exactly one-hot on `hot` for any input
    (bias margin large enough for the off-class mass to underflow)."""
    clf = Classifier(d, num_classes, ParamVec.zeros(Classifier.shape_spec(d, num_classes)))
    clf.params.unpack()["b"][hot] = 800.0
    return clf


class TestRandomPartition:
    def test_even_sizes(self):
        p = random_partition(6, seed=0)
        assert len(p.g1) == 3 and len(p.g2) == 3
        assert sorted(p.g1 + p.g2) == list(range(6))

    def test_odd_sizes(self):
        p = random_partition(5, seed=0)
        assert len(p.g1) == 2 and len(p.g2) == 3

    def test_too_few_sources(self):
        with pytest.raises(ConfigError):
            random_partition(1, seed=0)

    @given(n=st.integers(2, 40), seed=st.integers(0, 2**31 - 1))
    def test_disjoint_cover_with_floor_ceil_sizes(self, n, seed):
        p = random_partition(n, seed)
        g1, g2 = set(p.g1), set(p.g2)
        assert not g1 & g2 and g1 | g2 == set(range(n))
        assert (len(p.g1), len(p.g2)) == (n // 2, n - n // 2)
        assert list(p.g1) == sorted(g1) and list(p.g2) == sorted(g2)
        assert random_partition(n, seed) == p

    def test_uniform_over_distinct_splits(self):
        # N=4 has exactly 3 distinct unordered (2,2) splits
        counts = {}
        for seed in range(10_000):
            p = random_partition(4, seed=seed)
            key = frozenset((p.g1, p.g2))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 3
        for c in counts.values():
            assert abs(c / 10_000 - 1 / 3) < 0.02

    def test_enumeration_n4(self):
        parts = enumerate_partitions(4)
        assert len(parts) == 3
        assert len({frozenset((p.g1, p.g2)) for p in parts}) == 3

    def test_enumeration_odd(self):
        parts = enumerate_partitions(5)
        assert len(parts) == 10  # C(5,2) splits with sizes (2,3)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_enumeration_lists_every_unordered_split_once(self, n):
        # brute force over bitmasks: every split into groups of n // 2 and the rest
        brute = set()
        for mask in range(1 << n):
            g1 = tuple(i for i in range(n) if mask >> i & 1)
            if len(g1) == n // 2:
                brute.add(frozenset((g1, tuple(i for i in range(n) if not mask >> i & 1))))
        parts = enumerate_partitions(n)
        assert len(parts) == len(brute)
        assert {frozenset((p.g1, p.g2)) for p in parts} == brute
        assert all(len(p.g1) == n // 2 and (n % 2 or 0 in p.g1) for p in parts)


class TestGroupPredict:
    def test_identical_members_any_weights(self):
        rng = np.random.default_rng(0)
        clf = random_classifier(rng)
        gc = GroupClassifier([(0, clf), (1, clf)], np.array([0.3, 0.7]))
        z = rng.standard_normal(3)
        np.testing.assert_allclose(gc.predict(z), clf.forward(z), atol=1e-12)

    def test_hand_value(self):
        a = onehot_classifier(3, 2, hot=0)
        b = onehot_classifier(3, 2, hot=1)
        gc = GroupClassifier([(0, a), (1, b)], np.array([0.3, 0.7]))
        np.testing.assert_allclose(gc.predict(np.zeros(3)), [0.3, 0.7], atol=0)

    def test_convexity_bounds(self):
        rng = np.random.default_rng(1)
        members = [random_classifier(rng) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        gc = GroupClassifier(list(enumerate(members)), w)
        z = rng.standard_normal((10, 3))
        got = gc.predict(z)
        stack = np.stack([m.forward(z) for m in members])
        assert np.all(got <= stack.max(axis=0) + 1e-12)
        assert np.all(got >= stack.min(axis=0) - 1e-12)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-9)

    def test_weights_must_sum_to_one(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            GroupClassifier([(0, random_classifier(rng))], np.array([0.9]))


def loop_average(gc, per_member):
    out = np.zeros_like(per_member[0])
    for w, q in zip(gc.weights, per_member):
        out += w * q
    return out


def loop_dfeatures(gc, member_probs, dprobs):
    dfeat = np.zeros((dprobs.shape[0], gc.input_dim))
    for w, (_, clf), q in zip(gc.weights, gc.members, member_probs):
        dq = w * dprobs
        du = q * (dq - (dq * q).sum(axis=1, keepdims=True))
        dfeat += du @ clf.params.unpack()["w"]
    return dfeat


def loop_igd_loss(ext, gc1, gc2, x):
    """The group loss and gradient member by member, each head on its own."""
    acts = ext.forward_trace(x)
    q1 = [clf.forward(acts[-1]) for _, clf in gc1.members]
    q2 = [clf.forward(acts[-1]) for _, clf in gc2.members]
    diff = loop_average(gc1, q1) - loop_average(gc2, q2)
    loss = float(np.abs(diff).sum() / x.shape[0])
    sign = np.sign(diff) / x.shape[0]
    dfeat = loop_dfeatures(gc1, q1, sign)
    dfeat += loop_dfeatures(gc2, q2, -sign)
    return loss, ext.backprop(acts, dfeat)


# member weights before normalization: ordinary, tiny and subnormal sizes
_raw_weight = st.one_of(st.floats(0.05, 1.0), st.sampled_from([1e-300, 1e-320, 5e-324]))
# head parameters with signed zeros mixed in
_param = st.one_of(st.floats(-1.5, 1.5, width=64), st.sampled_from([0.0, -0.0]))


@st.composite
def stacked_case(draw):
    d, c, batch = draw(st.integers(1, 5)), draw(st.integers(2, 4)), draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    ext = random_extractor(rng, d=d)
    groups = []
    for _ in range(2):
        m = draw(st.integers(1, 8))
        heads = []
        for _ in range(m):
            values = draw(st.lists(_param, min_size=c * d + c, max_size=c * d + c))
            heads.append(Classifier(d, c, ParamVec(np.array(values),
                                                   Classifier.shape_spec(d, c))))
        raw = np.array(draw(st.lists(_raw_weight, min_size=m, max_size=m)))
        groups.append(GroupClassifier(list(enumerate(heads)), raw / raw.sum()))
    x = rng.standard_normal((batch, 4))
    x[rng.random(x.shape) < 0.2] = -0.0
    return ext, groups[0], groups[1], x


def eight_heads_one_feature():
    """Batch 1, feature dim 1 and a group of 8: each member's share of the
    feature gradient is one element, where np.add.reduce over the members
    sums pairwise instead of in member order."""
    rng = np.random.default_rng(4)
    ext = random_extractor(rng, d=1)
    heads = [random_classifier(rng, d=1, num_classes=2) for _ in range(9)]
    gc1 = GroupClassifier(list(enumerate(heads[:8])), np.full(8, 1 / 8))
    gc2 = GroupClassifier([(0, heads[8])], np.array([1.0]))
    return ext, gc1, gc2, rng.standard_normal((1, 4))


class TestStackedHeads:
    @settings(max_examples=60, deadline=None)
    @given(case=stacked_case())
    @example(case=eight_heads_one_feature())
    def test_predict_and_igd_loss_equal_member_loop(self, case):
        ext, gc1, gc2, x = case
        z = ext.forward(x)
        for gc in (gc1, gc2):
            want = loop_average(gc, [clf.forward(z) for _, clf in gc.members])
            assert gc.predict(z).tobytes() == want.tobytes()
            # the member sum starts from +0.0 as the loop does: all -0.0 terms give +0.0
            terms = np.full((len(gc.members), z.shape[0], gc.num_classes), -0.0)
            terms[..., ::2] = 0.5
            assert gc._average(terms).tobytes() == loop_average(gc, list(terms)).tobytes()
        loss, grad = igd_loss(ext, gc1, gc2, x)
        want_loss, want_grad = loop_igd_loss(ext, gc1, gc2, x)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.values.tobytes() == want_grad.values.tobytes()

    def test_single_feature_vector_gives_one_prediction(self):
        rng = np.random.default_rng(18)
        gc = GroupClassifier([(0, random_classifier(rng)), (1, random_classifier(rng))],
                             np.array([0.25, 0.75]))
        z = rng.standard_normal(3)
        assert gc.predict(z).shape == (3,)
        assert gc.predict(z).tobytes() == gc.predict(z[None])[0].tobytes()

    def test_feature_dim_mismatch(self):
        rng = np.random.default_rng(19)
        gc = GroupClassifier([(0, random_classifier(rng))], np.array([1.0]))
        with pytest.raises(ConfigError):
            gc.predict(np.zeros((2, 4)))


class TestIgdLoss:
    def test_identical_groups_zero_loss_zero_grad(self):
        rng = np.random.default_rng(3)
        ext = random_extractor(rng)
        members = [random_classifier(rng) for _ in range(2)]
        gc = GroupClassifier(list(enumerate(members)), np.array([0.4, 0.6]))
        loss, grad = igd_loss(ext, gc, gc, rng.standard_normal((6, 4)))
        assert loss == 0.0
        assert np.all(grad.values == 0.0)

    def test_hand_value(self):
        # group 1 mixes exact one-hots 0.6/0.4; group 2 mixes them 0.5/0.5
        a = onehot_classifier(3, 2, hot=0)
        b = onehot_classifier(3, 2, hot=1)
        gc1 = GroupClassifier([(0, a), (1, b)], np.array([0.6, 0.4]))
        gc2 = GroupClassifier([(0, a), (1, b)], np.array([0.5, 0.5]))
        rng = np.random.default_rng(4)
        ext = random_extractor(rng)
        loss, _ = igd_loss(ext, gc1, gc2, rng.standard_normal((1, 4)))
        np.testing.assert_allclose(loss, 0.2, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        from galasim import away_from_kinks

        rng = np.random.default_rng(5)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 200:
            attempts += 1
            ext = random_extractor(rng)
            members = [random_classifier(rng) for _ in range(4)]
            gc1 = GroupClassifier([(0, members[0]), (1, members[1])],
                                  np.array([0.5, 0.5]))
            gc2 = GroupClassifier([(2, members[2]), (3, members[3])],
                                  np.array([0.35, 0.65]))
            x = rng.standard_normal((3, 4))
            if not away_from_kinks(ext, gc1, gc2, x):
                continue  # resample away from L1 and ReLU kinks
            _, analytic = igd_loss(ext, gc1, gc2, x)
            numeric = finite_difference_grad(
                lambda pv: igd_loss(ext.with_params(pv), gc1, gc2, x)[0],
                ext.params, 1e-5)
            assert relative_grad_error(analytic, numeric) < 1e-4
            checked += 1
        assert checked == 20

    def test_loss_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            ext = random_extractor(rng)
            gc1 = GroupClassifier([(0, random_classifier(rng))], np.array([1.0]))
            gc2 = GroupClassifier([(1, random_classifier(rng))], np.array([1.0]))
            loss, _ = igd_loss(ext, gc1, gc2, rng.standard_normal((5, 4)))
            assert 0.0 <= loss <= 2.0

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(7)
        ext = random_extractor(rng)
        gc = GroupClassifier([(0, random_classifier(rng))], np.array([1.0]))
        with pytest.raises(ValueError):
            igd_loss(ext, gc, gc, np.zeros((0, 4)))


class TestIddLoss:
    def test_same_classifier_zero(self):
        rng = np.random.default_rng(8)
        ext = random_extractor(rng)
        clf = random_classifier(rng)
        loss, grad = idd_loss(ext, clf, clf, rng.standard_normal((4, 4)))
        assert loss == 0.0 and np.all(grad.values == 0.0)

    def test_equals_singleton_igd(self):
        rng = np.random.default_rng(9)
        ext = random_extractor(rng)
        fi, fj = random_classifier(rng), random_classifier(rng)
        x = rng.standard_normal((5, 4))
        li, gi = idd_loss(ext, fi, fj, x)
        gc_i = GroupClassifier([(0, fi)], np.array([1.0]))
        gc_j = GroupClassifier([(1, fj)], np.array([1.0]))
        lg, gg = igd_loss(ext, gc_i, gc_j, x)
        assert li == lg
        assert np.array_equal(gi.values, gg.values)


class TestFullPairwise:
    def test_identical_classifiers_zero(self):
        rng = np.random.default_rng(10)
        ext = random_extractor(rng)
        clf = random_classifier(rng)
        assert full_pairwise_loss(ext, [clf] * 4, rng.standard_normal((4, 4))) == 0.0

    def test_matches_sum_of_pairs(self):
        rng = np.random.default_rng(11)
        ext = random_extractor(rng)
        members = [random_classifier(rng) for _ in range(4)]
        x = rng.standard_normal((6, 4))
        total = full_pairwise_loss(ext, members, x)
        manual = sum(idd_loss(ext, members[i], members[j], x)[0]
                     for i in range(4) for j in range(i + 1, 4))
        np.testing.assert_allclose(total, manual, atol=1e-9)
        # 6 unordered pairs, each bounded by 2
        assert 0.0 <= total <= 12.0


def brute_force_expected_igd(ext, members, x):
    """Enumerate all distinct (2,2) splits of four classifiers by hand and
    average the straight-line group L1 disagreement."""
    feats = ext.forward(x)
    probs = [softmax(feats @ m.params.unpack()["w"].T + m.params.unpack()["b"])
             for m in members]
    splits = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    values = []
    for g1, g2 in splits:
        p1 = 0.5 * (probs[g1[0]] + probs[g1[1]])
        p2 = 0.5 * (probs[g2[0]] + probs[g2[1]])
        values.append(np.abs(p1 - p2).sum(axis=1).mean())
    return float(np.mean(values))


class TestPartitionMarginalization:
    def test_expected_igd_matches_enumeration_oracle(self):
        rng = np.random.default_rng(12)
        ext = random_extractor(rng)
        members = [random_classifier(rng) for _ in range(4)]
        x = rng.standard_normal((8, 4))
        via_library = []
        for part in enumerate_partitions(4):
            gc1 = GroupClassifier([(i, members[i]) for i in part.g1],
                                  np.array([0.5, 0.5]))
            gc2 = GroupClassifier([(i, members[i]) for i in part.g2],
                                  np.array([0.5, 0.5]))
            via_library.append(igd_loss(ext, gc1, gc2, x)[0])
        expected = float(np.mean(via_library))
        oracle = brute_force_expected_igd(ext, members, x)
        np.testing.assert_allclose(expected, oracle, atol=1e-12)


class TestConvexityBound:
    def test_uniform_group_loss_below_max_cross_pair(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            ext = random_extractor(rng)
            members = [random_classifier(rng) for _ in range(4)]
            part = random_partition(4, seed=int(rng.integers(1 << 31)))
            x = rng.standard_normal((4, 4))
            gc1 = GroupClassifier([(i, members[i]) for i in part.g1],
                                  np.full(len(part.g1), 1.0 / len(part.g1)))
            gc2 = GroupClassifier([(i, members[i]) for i in part.g2],
                                  np.full(len(part.g2), 1.0 / len(part.g2)))
            group_loss, _ = igd_loss(ext, gc1, gc2, x)
            pair_max = max(idd_loss(ext, members[i], members[j], x)[0]
                           for i in part.g1 for j in part.g2)
            assert group_loss <= pair_max + 1e-12

    def test_zero_for_identical_params_any_partition_any_weights(self):
        rng = np.random.default_rng(14)
        ext = random_extractor(rng)
        clf = random_classifier(rng)
        members = [clf.with_params(clf.params.copy()) for _ in range(5)]
        x = rng.standard_normal((4, 4))
        for part in enumerate_partitions(5)[:5]:
            w1 = rng.dirichlet(np.ones(len(part.g1)))
            w2 = rng.dirichlet(np.ones(len(part.g2)))
            gc1 = GroupClassifier([(i, members[i]) for i in part.g1], w1)
            gc2 = GroupClassifier([(i, members[i]) for i in part.g2], w2)
            loss, _ = igd_loss(ext, gc1, gc2, x)
            assert loss <= 1e-12


def target_view(samples):
    return DomainDataset("target", samples, None, num_classes=3)


def group_loss(gc1, gc2):
    return lambda extractor, batch: igd_loss(extractor, gc1, gc2, batch)


def stage_cfg(epochs, batch_size, momentum=0.9):
    return ProtocolConfig(local_epochs=epochs, batch_size=batch_size,
                          momentum=momentum, weight_decay=0.0)


class TestAdversarialUpdate:
    """The target stage's extractor update, federation._target_pass on the
    group loss."""

    def test_identical_groups_fixed_point(self):
        rng = np.random.default_rng(15)
        ext = random_extractor(rng)
        members = [random_classifier(rng) for _ in range(2)]
        gc = GroupClassifier(list(enumerate(members)), np.array([0.5, 0.5]))
        out, mean_loss = _target_pass(stage_cfg(2, 4), ext,
                                      target_view(rng.standard_normal((8, 4))), 0.01,
                                      np.random.default_rng(0), group_loss(gc, gc))
        assert np.array_equal(out.params.values, ext.params.values)
        assert mean_loss == 0.0  # every batch loss is 0: they are nonnegative

    def test_zero_lr_fixed_point(self):
        rng = np.random.default_rng(16)
        ext = random_extractor(rng)
        gc1 = GroupClassifier([(0, random_classifier(rng))], np.array([1.0]))
        gc2 = GroupClassifier([(1, random_classifier(rng))], np.array([1.0]))
        out, _ = _target_pass(stage_cfg(1, 8), ext, target_view(rng.standard_normal((8, 4))),
                              0.0, np.random.default_rng(0), group_loss(gc1, gc2))
        assert np.array_equal(out.params.values, ext.params.values)

    def test_non_finite_loss_raises(self):
        rng = np.random.default_rng(17)
        ext = random_extractor(rng)
        ext.params.values[:] = 1e300  # the forward pass overflows to inf - inf
        gc1 = GroupClassifier([(0, random_classifier(rng))], np.array([1.0]))
        gc2 = GroupClassifier([(1, random_classifier(rng))], np.array([1.0]))
        with pytest.raises(NumericError, match="group-discrepancy loss"), \
                np.errstate(all="ignore"):
            _target_pass(stage_cfg(1, 8), ext, target_view(rng.standard_normal((8, 4))),
                         0.01, np.random.default_rng(0), group_loss(gc1, gc2))

    def test_full_batch_step_usually_decreases_loss(self):
        decreases = 0
        failures = []
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            ext = random_extractor(rng)
            members = [random_classifier(rng) for _ in range(4)]
            gc1 = GroupClassifier([(0, members[0]), (1, members[1])],
                                  np.array([0.5, 0.5]))
            gc2 = GroupClassifier([(2, members[2]), (3, members[3])],
                                  np.array([0.5, 0.5]))
            target = target_view(rng.standard_normal((16, 4)))
            x = target.samples
            before, _ = igd_loss(ext, gc1, gc2, x)
            out, _ = _target_pass(stage_cfg(1, 16, momentum=0.0), ext, target, 1e-3,
                                  np.random.default_rng(0), group_loss(gc1, gc2))
            after, _ = igd_loss(out, gc1, gc2, x)
            if after < before:
                decreases += 1
            else:
                failures.append((seed, before, after))
        if failures:
            print(f"non-decreasing seeds (kink subgradients): {failures}")
        assert decreases >= 15
