"""Engine tests: parameter layout, forward oracle, analytic gradients
against finite differences, optimizer arithmetic, schedule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galasim import (
    Classifier,
    ConfigError,
    DataError,
    FeatureExtractor,
    NumericError,
    OptimizerState,
    ParamVec,
    cross_entropy_grad,
    grad_check,
    head_grad,
    lr_schedule,
    sgd_step,
    softmax,
    weighted_mean,
)
from galasim.nn import ParamStack, Scratch, finite_difference_grad, relative_grad_error


def small_model(seed=0, input_dim=5, hidden=(6,), d=4, num_classes=3):
    rng = np.random.default_rng(seed)
    return (FeatureExtractor.init(input_dim, hidden, d, rng),
            Classifier.init(d, num_classes, rng))


def randomized_model(rng, input_dim=4, hidden=(5,), d=3, num_classes=3):
    """Model with every parameter (biases included) drawn continuously, so
    ReLU kinks sit at finite differences' measure-zero set."""
    extractor = FeatureExtractor.init(input_dim, hidden, d, rng)
    classifier = Classifier.init(d, num_classes, rng)
    extractor = extractor.with_params(ParamVec(
        rng.uniform(-0.8, 0.8, extractor.params.size), extractor.params.shape_spec))
    classifier = classifier.with_params(ParamVec(
        rng.uniform(-0.8, 0.8, classifier.params.size), classifier.params.shape_spec))
    return extractor, classifier


shape_specs = st.lists(
    st.lists(st.integers(0, 4), max_size=3).map(tuple), min_size=1, max_size=5,
).map(lambda dims: tuple((f"p{i}", d) for i, d in enumerate(dims)))


def reference_forward(extractor, classifier, x):
    """Straight-line per-sample forward pass, independent of the engine path."""
    blocks_g = extractor.params.unpack()
    blocks_f = classifier.params.unpack()
    out = []
    for row in np.atleast_2d(x):
        h = row.astype(np.float64)
        for i in range(len(extractor.hidden_dims) + 1):
            h = blocks_g[f"w{i}"] @ h + blocks_g[f"b{i}"]
            h = np.where(h > 0, h, 0.0)
        logits = blocks_f["w"] @ h + blocks_f["b"]
        e = np.exp(logits - logits.max())
        out.append(e / e.sum())
    return np.array(out)


class TestParamVec:
    def test_length_must_match_spec(self):
        with pytest.raises(ValueError):
            ParamVec(np.zeros(5), (("w", (2, 3)),))

    def test_incompatible_specs_rejected(self):
        a = ParamVec(np.zeros(4), (("w", (2, 2)),))
        b = ParamVec(np.zeros(4), (("v", (4,)),))
        with pytest.raises(ValueError):
            sgd_step(a, b, OptimizerState.for_params(a), lr=0.1)
        with pytest.raises(ValueError):
            sgd_step(a, a, OptimizerState.for_params(b), lr=0.1)
        with pytest.raises(ValueError):
            weighted_mean([a, b], [0.5, 0.5])

    def test_unpack_views_alias_flat_buffer(self):
        pv = ParamVec.zeros((("w", (2, 2)), ("b", (2,))))
        pv.unpack()["w"][0, 0] = 7.0
        assert pv.values[0] == 7.0

    @settings(deadline=None)
    @given(shape_specs)
    def test_unpack_views_tile_buffer_in_order(self, spec):
        total = sum(int(np.prod(dims)) for _, dims in spec)
        pv = ParamVec(np.arange(total, dtype=np.float64), spec)
        views = pv.unpack()
        assert list(views) == [name for name, _ in spec]
        assert [v.shape for v in views.values()] == [dims for _, dims in spec]
        flat = [v.ravel() for v in views.values()]
        np.testing.assert_array_equal(np.concatenate(flat), np.arange(total))
        for v in views.values():
            v += 1000.0
        np.testing.assert_array_equal(pv.values, np.arange(total) + 1000.0)
        with pytest.raises(ValueError):
            ParamVec(np.zeros(total + 1), spec)
        if total:
            with pytest.raises(ValueError):
                ParamVec(np.zeros(total - 1), spec)
        with pytest.raises(ValueError):
            ParamVec(np.zeros((1, total)), spec)

    def test_weighted_mean_of_identical_vectors(self):
        spec = (("w", (3,)),)
        v = ParamVec(np.array([1.0, 2.0, 3.0]), spec)
        w = softmax(np.array([0.3, 1.2, -0.5, 2.0]))
        out = weighted_mean([v, v, v, v], w)
        np.testing.assert_allclose(out.values, v.values, atol=1e-12)


class TestDtypeRule:
    """The math follows the dtype it is given: a float32 extractor on float32
    batches computes in float32, float64 heads widen its features."""

    @staticmethod
    def as_float32(extractor):
        params = extractor.params
        return extractor.with_params(ParamVec(params.values.astype(np.float32),
                                              params.shape_spec))

    def test_params_keep_float32_and_widen_other_types(self):
        spec = (("w", (3,)),)
        assert ParamVec(np.zeros(3, np.float32), spec).values.dtype == np.float32
        assert ParamVec(np.zeros(3, np.float32), spec).zeros_like().values.dtype == np.float32
        for dtype in (np.int64, np.float16):
            assert ParamVec(np.zeros(3, dtype), spec).values.dtype == np.float64

    def test_float32_extractor_computes_in_float32_under_float64_heads(self):
        extractor, classifier = small_model()
        narrow = self.as_float32(extractor)
        x = np.random.default_rng(1).standard_normal((8, 5)).astype(np.float32)
        labels = np.arange(8) % 3
        loss64, grad_g64, grad_f64 = cross_entropy_grad(narrow.with_params(ParamVec(
            narrow.params.values.astype(np.float64), narrow.params.shape_spec)),
            classifier, x, labels)
        for scratch in (None, Scratch()):
            assert all(a.dtype == np.float32 for a in narrow.forward_trace(x, scratch))
            loss, grad_g, grad_f = cross_entropy_grad(narrow, classifier, x, labels, scratch)
            assert grad_g.values.dtype == np.float32 and grad_f.values.dtype == np.float64
            assert abs(loss - loss64) < 1e-6
            np.testing.assert_allclose(grad_g.values, grad_g64.values, rtol=1e-4, atol=1e-6)
            np.testing.assert_allclose(grad_f.values, grad_f64.values, rtol=1e-4, atol=1e-6)

    def test_float64_extractor_widens_float32_batches_exactly(self):
        extractor, classifier = small_model()
        x = np.random.default_rng(1).standard_normal((8, 5)).astype(np.float32)
        labels = np.arange(8) % 3
        a = cross_entropy_grad(extractor, classifier, x, labels)
        b = cross_entropy_grad(extractor, classifier, x.astype(np.float64), labels)
        assert a[0] == b[0] and a[1].values.tobytes() == b[1].values.tobytes()

    def test_weighted_mean_sums_float32_in_float64_and_rounds_once(self):
        rng = np.random.default_rng(3)
        spec = (("w", (1000,)),)
        vecs = [ParamVec(rng.standard_normal(1000).astype(np.float32), spec) for _ in range(5)]
        weights = softmax(rng.standard_normal(5))
        exact, float32_products = np.zeros(1000), np.zeros(1000)
        for w, v in zip(weights, vecs):
            exact += w * v.values.astype(np.float64)
            float32_products += float(w) * v.values
        out = weighted_mean(vecs, weights).values
        assert out.dtype == np.float32
        assert out.tobytes() == exact.astype(np.float32).tobytes()
        assert not np.array_equal(out, float32_products.astype(np.float32))

    def test_scratch_keeps_one_buffer_per_key_and_dtype(self):
        scratch = Scratch()
        narrow, wide = scratch.take("k", (2, 3), np.float32), scratch.take("k", (2, 3))
        assert (narrow.dtype, wide.dtype) == (np.float32, np.float64)
        assert np.shares_memory(narrow, scratch.take("k", (3, 2), np.float32))
        assert not np.shares_memory(narrow, wide)


class TestSoftmax:
    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        logits = rng.uniform(-50, 50, size=(200, 10))
        np.testing.assert_allclose(softmax(logits).sum(axis=1), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((50, 6))
        for shift in (-100.0, 3.7, 1e6):
            np.testing.assert_allclose(softmax(logits + shift), softmax(logits),
                                       atol=1e-9)

    def test_zero_logits_uniform(self):
        np.testing.assert_allclose(softmax(np.zeros(10)), np.full(10, 0.1), atol=0)


class TestForwardModel:
    def test_zero_weight_classifier_gives_uniform(self):
        extractor, classifier = small_model(num_classes=5)
        classifier = classifier.with_params(classifier.params.zeros_like())
        p = classifier.forward(extractor.forward(np.ones(5)))
        np.testing.assert_allclose(p, np.full(5, 0.2), atol=1e-12)

    def test_equal_logits_give_half(self):
        for a in (-40.0, 0.0, 3.25, 1e4):
            clf = Classifier(2, 2, ParamVec(np.zeros(6), Classifier.shape_spec(2, 2)))
            clf.params.unpack()["b"][...] = np.array([a, a])
            np.testing.assert_allclose(clf.forward(np.zeros(2)), [0.5, 0.5], atol=0)

    def test_matches_straight_line_reference(self):
        rng = np.random.default_rng(123)
        for seed in range(5):
            extractor, classifier = small_model(seed=seed, hidden=(7, 5))
            x = rng.standard_normal((6, 5))
            got = classifier.forward(extractor.forward(x))
            want = reference_forward(extractor, classifier, x)
            np.testing.assert_allclose(got, want, atol=1e-9)
            np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        extractor, _ = small_model()
        _, classifier = small_model(d=9)
        with pytest.raises(ConfigError):
            classifier.forward(extractor.forward(np.ones(5)))
        ext2, clf2 = small_model()
        with pytest.raises(ConfigError):
            clf2.forward(ext2.forward(np.ones(11)))


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss_zero_classifier_grad(self):
        # logits margin 800: the off-class softmax mass underflows to exactly 0
        extractor, classifier = small_model()
        extractor = extractor.with_params(extractor.params.zeros_like())
        blocks = classifier.params.unpack()
        blocks["w"][...] = 0.0
        blocks["b"][...] = np.array([800.0, 0.0, 0.0])
        loss, _, grad_f = cross_entropy_grad(extractor, classifier,
                                             np.ones((1, 5)), np.array([0]))
        assert loss == 0.0
        assert np.all(grad_f.values == 0.0)

    def test_uniform_prediction_loss_is_log_c(self):
        extractor, classifier = small_model(num_classes=10)
        classifier = classifier.with_params(classifier.params.zeros_like())
        rng = np.random.default_rng(3)
        loss, _, _ = cross_entropy_grad(extractor, classifier,
                                        rng.standard_normal((4, 5)),
                                        np.array([0, 3, 7, 9]))
        np.testing.assert_allclose(loss, np.log(10.0), atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        extractor, classifier = small_model(seed=5)
        x = rng.standard_normal((4, 5))
        y = np.array([0, 1, 2, 1])
        assert grad_check(extractor, classifier, x, y, epsilon=1e-5) < 1e-4

    def test_soft_targets_match_finite_differences(self):
        rng = np.random.default_rng(12)
        extractor, classifier = small_model(seed=6)
        x = rng.standard_normal((4, 5))
        targets = softmax(rng.standard_normal((4, 3)))
        _, grad_g, grad_f = cross_entropy_grad(extractor, classifier, x, targets)
        num_g = finite_difference_grad(
            lambda pv: cross_entropy_grad(extractor.with_params(pv), classifier,
                                          x, targets)[0],
            extractor.params, 1e-5)
        num_f = finite_difference_grad(
            lambda pv: cross_entropy_grad(extractor, classifier.with_params(pv),
                                          x, targets)[0],
            classifier.params, 1e-5)
        assert relative_grad_error(grad_g, num_g) < 1e-4
        assert relative_grad_error(grad_f, num_f) < 1e-4

    @pytest.mark.parametrize("soft", [False, True])
    def test_head_grad_matches_cross_entropy_grad(self, soft):
        rng = np.random.default_rng(8)
        extractor, classifier = randomized_model(rng)
        x = rng.standard_normal((7, 4))
        labels = rng.integers(0, 3, size=7)
        if soft:  # mixup-style targets: rows of a Dirichlet draw
            labels = rng.dirichlet(np.ones(3), size=7)
        loss, _, grad_f = cross_entropy_grad(extractor, classifier, x, labels)
        head_loss, head_grad_f, dfeatures = head_grad(
            classifier, extractor.forward(x), labels)
        assert head_loss == loss
        np.testing.assert_array_equal(head_grad_f.values, grad_f.values)
        assert dfeatures.shape == (7, classifier.input_dim)

    def test_empty_batch_rejected(self):
        extractor, classifier = small_model()
        with pytest.raises(ValueError):
            cross_entropy_grad(extractor, classifier, np.zeros((0, 5)), np.zeros(0, int))

    def test_label_out_of_range(self):
        extractor, classifier = small_model()
        with pytest.raises(DataError):
            cross_entropy_grad(extractor, classifier, np.ones((1, 5)), np.array([3]))


class TestSgdStep:
    def spec(self):
        return (("w", (1,)),)

    def test_vanilla_step(self):
        params = ParamVec(np.array([1.0]), self.spec())
        grad = ParamVec(np.array([2.0]), self.spec())
        state = OptimizerState.for_params(params, momentum=0.0)
        out = sgd_step(params, grad, state, lr=0.1)
        np.testing.assert_allclose(out.values, [0.8], atol=0)

    def test_zero_lr_keeps_params_updates_buffer(self):
        params = ParamVec(np.array([1.0]), self.spec())
        grad = ParamVec(np.array([2.0]), self.spec())
        state = OptimizerState.for_params(params, momentum=0.5)
        out = sgd_step(params, grad, state, lr=0.0)
        assert np.array_equal(out.values, params.values)
        np.testing.assert_allclose(state.momentum_buffer.values, [2.0], atol=0)
        out = sgd_step(out, grad, state, lr=0.0)
        np.testing.assert_allclose(state.momentum_buffer.values, [0.5 * 2.0 + 2.0], atol=0)

    def test_momentum_unrolled_two_steps(self):
        g = 0.7
        lr = 0.01
        params = ParamVec(np.array([1.0]), self.spec())
        grad = ParamVec(np.array([g]), self.spec())
        state = OptimizerState.for_params(params, momentum=0.9)
        after1 = sgd_step(params, grad, state, lr)
        after2 = sgd_step(after1, grad, state, lr)
        np.testing.assert_allclose(after1.values - after2.values, [lr * 1.9 * g],
                                   atol=1e-15)

    def test_weight_decay_enters_buffer(self):
        params = ParamVec(np.array([2.0]), self.spec())
        grad = ParamVec(np.array([0.0]), self.spec())
        state = OptimizerState.for_params(params, momentum=0.0, weight_decay=0.1)
        out = sgd_step(params, grad, state, lr=1.0)
        np.testing.assert_allclose(out.values, [2.0 - 0.2], atol=1e-15)

    def test_non_finite_grad_aborts(self):
        params = ParamVec(np.array([1.0]), self.spec())
        grad = ParamVec(np.array([np.nan]), self.spec())
        state = OptimizerState.for_params(params)
        with pytest.raises(NumericError):
            sgd_step(params, grad, state, 0.1)


def same_bytes(a, b) -> bool:
    """Bit-for-bit equality: tells -0.0 from 0.0 and NaN payloads apart."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_params(spec, rows, rng):
    """Values for shape_spec, with exact zeros of both signs: a ParamVec
    for rows None, else a ParamStack of `rows` rows."""
    size = sum(int(np.prod(dims)) for _, dims in spec)
    shape = (size,) if rows is None else (rows, size)
    values = rng.uniform(-0.8, 0.8, shape)
    values[rng.random(shape) < 0.1] = 0.0
    values[rng.random(shape) < 0.1] = -0.0
    return (ParamVec if rows is None else ParamStack)(values, spec)


class TestInPlaceStepMatchesFormulas:
    """backprop and sgd_step write into preallocated memory; their results
    must equal the plain formulas below bit for bit, on a ParamVec and on
    ParamStacks of 1-4 rows."""

    @given(rows=st.sampled_from([None, 1, 2, 3, 4]), input_dim=st.integers(1, 40),
           hidden=st.lists(st.integers(1, 12), max_size=2), d=st.integers(1, 8),
           batch=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
           use_scratch=st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_backprop_equals_block_matmuls(self, rows, input_dim, hidden, d, batch,
                                           seed, use_scratch):
        rng = np.random.default_rng(seed)
        extractor = FeatureExtractor.init(input_dim, hidden, d, rng)
        extractor = extractor.with_params(random_params(extractor.params.shape_spec, rows,
                                                        rng))
        lead = () if rows is None else (rows,)
        acts = extractor.forward_trace(rng.standard_normal(lead + (batch, input_dim)))
        dfeatures = rng.standard_normal(acts[-1].shape)
        grad = extractor.backprop(acts, dfeatures, Scratch() if use_scratch else None)
        assert type(grad) is type(extractor.params)

        blocks = extractor.params.unpack()
        got = grad.unpack()
        delta = dfeatures * (acts[-1] > 0.0)
        for i in reversed(range(extractor.n_layers)):
            assert same_bytes(got[f"w{i}"], delta.swapaxes(-1, -2) @ acts[i])
            assert same_bytes(got[f"b{i}"], delta.sum(axis=-2))
            delta = (delta @ blocks[f"w{i}"]) * (acts[i] > 0.0)

    @given(rows=st.sampled_from([None, 1, 2, 3, 4]), size=st.integers(1, 300),
           momentum=st.sampled_from([0.0, 0.5, 0.9]),
           weight_decay=st.sampled_from([0.0, 1e-4, 0.05]),
           lr=st.sampled_from([0.0, 0.01, 0.3]), seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_sgd_step_equals_formula(self, rows, size, momentum, weight_decay, lr, seed):
        rng = np.random.default_rng(seed)
        spec = (("w", (size,)),)
        params = random_params(spec, rows, rng)
        state = OptimizerState.for_params(params, momentum=momentum,
                                          weight_decay=weight_decay)
        buf = state.momentum_buffer.values.copy()
        p = params.values.copy()
        for _ in range(3):
            grad = random_params(spec, rows, rng)
            params = sgd_step(params, grad, state, lr)
            buf = buf * momentum
            buf = buf + (grad.values + weight_decay * p)
            p = p - lr * buf
            assert type(params) is type(grad)
            assert same_bytes(state.momentum_buffer.values, buf)
            assert same_bytes(params.values, p)

    def test_sgd_step_leaves_its_inputs_alone(self):
        rng = np.random.default_rng(3)
        spec = (("w", (2, 5)),)
        params = ParamStack(rng.standard_normal((2, 10)), spec)
        grad = ParamStack(rng.standard_normal((2, 10)), spec)
        before_p, before_g = params.values.copy(), grad.values.copy()
        state = OptimizerState.for_params(params, weight_decay=0.01)
        new = sgd_step(params, grad, state, 0.1)
        assert same_bytes(params.values, before_p) and same_bytes(grad.values, before_g)
        assert not np.shares_memory(new.values, params.values)


class TestLrSchedule:
    def test_start_value(self):
        assert lr_schedule(0.01, 0, 0.75) == 0.01

    def test_one_decay_step(self):
        np.testing.assert_allclose(lr_schedule(0.01, 100, 0.75), 0.0075, atol=1e-15)

    def test_two_decay_steps(self):
        np.testing.assert_allclose(lr_schedule(0.01, 250, 0.75), 0.005625, atol=1e-15)

    def test_nonincreasing(self):
        values = [lr_schedule(0.01, t, 0.75) for t in range(0, 1000, 7)]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestGradCheck:
    def test_randomized_models_pass(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(20):
            extractor, classifier = randomized_model(rng)
            x = rng.standard_normal((4, 4))
            y = rng.integers(0, 3, size=4)
            worst = max(worst, grad_check(extractor, classifier, x, y, 1e-5))
        assert worst < 1e-4

    def test_scaled_gradient_detected(self):
        extractor, classifier = small_model(seed=9)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 5))
        y = np.array([0, 1, 2])
        _, grad_g, _ = cross_entropy_grad(extractor, classifier, x, y)
        doubled = ParamVec(grad_g.values * 2.0, grad_g.shape_spec)
        numeric = finite_difference_grad(
            lambda pv: cross_entropy_grad(extractor.with_params(pv), classifier,
                                          x, y)[0],
            extractor.params, 1e-5)
        err = relative_grad_error(doubled, numeric)
        np.testing.assert_allclose(err, 1.0, atol=1e-3)

    def test_zero_input_zeroes_first_layer_weight_grad(self):
        extractor, classifier = small_model(seed=4)
        _, grad_g, _ = cross_entropy_grad(extractor, classifier,
                                          np.zeros((3, 5)), np.array([0, 1, 2]))
        assert np.all(grad_g.unpack()["w0"] == 0.0)

    def test_epsilon_range_enforced(self):
        extractor, classifier = small_model()
        with pytest.raises(ValueError):
            grad_check(extractor, classifier, np.ones((1, 5)), np.array([0]), 1e-2)
