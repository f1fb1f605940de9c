"""Domain generator, transform, mixup and file-format tests."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from galasim import (
    DataError,
    DomainDataset,
    IntegrityError,
    ParseError,
    TransformSpec,
    UnsupportedVersionError,
    apply_background_overlay,
    apply_channel_stack,
    apply_label_noise,
    apply_mean_shift,
    apply_rotate,
    apply_scale_recenter,
    gen_gaussian_domain,
    gen_glyph_domain,
    load_dataset,
    mixup,
    save_dataset,
)
from galasim.domains import _rotation_matrix, bilinear_resize
from galasim.nn import Scratch


def reference_bilinear(img, out_size):
    """Loop-based corner-aligned bilinear sampler, independent of the library."""
    s = img.shape[0]
    out = np.zeros((out_size, out_size))
    for i in range(out_size):
        for j in range(out_size):
            y = i * (s - 1) / (out_size - 1) if out_size > 1 else (s - 1) / 2
            x = j * (s - 1) / (out_size - 1) if out_size > 1 else (s - 1) / 2
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            y1, x1 = min(y0 + 1, s - 1), min(x0 + 1, s - 1)
            fy, fx = y - y0, x - x0
            out[i, j] = (img[y0, x0] * (1 - fy) * (1 - fx)
                         + img[y0, x1] * (1 - fy) * fx
                         + img[y1, x0] * fy * (1 - fx)
                         + img[y1, x1] * fy * fx)
    return out


def givens_product(dim, angle):
    """The rotation as the product of one full Givens matrix per plane
    (0, 1), (2, 3), ..., each applied after the last."""
    rot = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for a in range(0, dim - 1, 2):
        g = np.eye(dim)
        g[a, a], g[a, a + 1], g[a + 1, a], g[a + 1, a + 1] = c, -s, s, c
        rot = g @ rot
    return rot


class TestGaussianDomain:
    def test_deterministic(self):
        chain = (TransformSpec("mean_shift", {"magnitude": 0.0}, seed=4),
                 TransformSpec("rotate", {"angle": 0.0}))
        a = gen_gaussian_domain(3, 10, 4, shift=chain, seed=5)
        b = gen_gaussian_domain(3, 10, 4, shift=chain, seed=5)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_identity_chain_is_identity(self):
        plain = gen_gaussian_domain(3, 10, 4, seed=5)
        chained = gen_gaussian_domain(
            3, 10, 4, seed=5,
            shift=(TransformSpec("mean_shift", {"magnitude": 0.0}, seed=4),
                   TransformSpec("rotate", {"angle": 0.0})))
        assert np.array_equal(plain.samples, chained.samples)

    def test_exact_class_counts(self):
        d = gen_gaussian_domain(3, 10, 4, seed=1)
        assert d.n_samples == 30
        assert np.all(np.bincount(d.labels) == 10)

    def test_every_class_present_enforced(self):
        with pytest.raises(DataError):
            DomainDataset("bad", np.zeros((4, 2), np.float32),
                          np.array([0, 0, 1, 1]), num_classes=3)

    def test_shift_degrades_transfer(self):
        # linear-model oracle: training on the unshifted domain must score
        # lower on a strongly shifted copy than on its own held-out split
        from galasim import Classifier, FeatureExtractor, ProtocolConfig
        from galasim.federation import _train_lockstep, evaluate_accuracy

        base = gen_gaussian_domain(3, 60, 4, seed=11)
        shifted = gen_gaussian_domain(
            3, 60, 4, seed=11,
            shift=TransformSpec("mean_shift", {"magnitude": 5.0}, seed=2))
        train, test = base.split(0.8, seed=0)
        rng = np.random.default_rng(0)
        ext = FeatureExtractor.init(4, (16,), 8, rng)
        clf = Classifier.init(8, 3, rng)
        cfg = ProtocolConfig(local_epochs=1, batch_size=32, momentum=0.9,
                             weight_decay=0.0)
        for _ in range(30):
            (ext,), (clf,), _ = _train_lockstep(cfg, 0.05, ext, [clf], [train], [rng])
        own = evaluate_accuracy(ext, clf, test)
        cross = evaluate_accuracy(ext, clf, shifted)
        assert own > cross


class TestGlyphDomain:
    def test_deterministic(self):
        a = gen_glyph_domain(4, 12, 12, seed=3)
        b = gen_glyph_domain(4, 12, 12, seed=3)
        assert np.array_equal(a.samples, b.samples)

    def test_pixel_range_and_shape(self):
        d = gen_glyph_domain(5, 10, 10, channels=3, seed=2)
        assert d.raster_shape == (3, 10, 10)
        assert d.feature_dim == 300
        assert d.samples.min() >= 0.0 and d.samples.max() <= 1.0

    def test_distinct_class_means(self):
        d = gen_glyph_domain(6, 20, 12, seed=7)
        means = np.stack([d.samples[d.labels == c].mean(axis=0)
                          for c in range(6)])
        for a in range(6):
            for b in range(a + 1, 6):
                assert np.abs(means[a] - means[b]).sum() > 0.0

    def test_canvas_too_small(self):
        with pytest.raises(ValueError):
            gen_glyph_domain(4, 10, 7, seed=0)

    def test_self_performance(self):
        # a model trained on a glyph domain must exceed 90% on held-out data
        from galasim import ProtocolConfig, run_protocol

        d = gen_glyph_domain(4, 100, 12, seed=1)
        cfg = ProtocolConfig(protocol="oracle", rounds=25, batch_size=64,
                             lr0=0.05, hidden_dims=(32,), feature_dim=16,
                             seed=0, weight_decay=0.0)
        result = run_protocol(cfg, [], d)
        assert result.final_accuracy > 0.9


class TestBackgroundOverlay:
    def test_small_amplitude_limit(self):
        d = gen_glyph_domain(3, 8, 12, seed=4)
        amp = 0.02
        out = apply_background_overlay(d, amp, seed=9)
        assert np.abs(out.samples - d.samples).max() <= amp + 1e-6

    def test_full_amplitude_fills_background(self):
        d = gen_glyph_domain(3, 8, 12, seed=4)
        out = apply_background_overlay(d, 1.0, seed=9)
        background = d.samples == 0.0
        positive = out.samples > 0.0
        frac = positive[background].mean()
        assert frac >= 0.99

    def test_labels_preserved(self):
        d = gen_glyph_domain(3, 8, 12, seed=4)
        out = apply_background_overlay(d, 0.5, seed=9)
        assert np.array_equal(out.labels, d.labels)

    def test_rejects_vector_task(self):
        d = gen_gaussian_domain(3, 10, 4, seed=0)
        with pytest.raises(TypeError):
            apply_background_overlay(d, 0.5, seed=0)


class TestScaleRecenter:
    def test_same_size_is_identity(self):
        d = gen_glyph_domain(3, 6, 12, seed=5)
        out = apply_scale_recenter(d, 12)
        np.testing.assert_allclose(out.samples, d.samples, atol=1e-6)

    def test_border_ring_exactly_zero(self):
        d = gen_glyph_domain(3, 6, 12, seed=5)
        inner = 8
        out = apply_scale_recenter(d, inner)
        imgs = out.rasters()
        ring = (12 - inner) // 2
        assert np.all(imgs[:, :, :ring, :] == 0.0)
        assert np.all(imgs[:, :, -ring:, :] == 0.0)
        assert np.all(imgs[:, :, :, :ring] == 0.0)
        assert np.all(imgs[:, :, :, -ring:] == 0.0)

    def test_inner_larger_than_canvas_rejected(self):
        d = gen_glyph_domain(3, 6, 12, seed=5)
        with pytest.raises(ValueError):
            apply_scale_recenter(d, 13)

    def test_matches_reference_and_mass_nonincreasing(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            img = rng.uniform(0.0, 1.0, size=(11, 11))
            inner = int(rng.integers(2, 11))
            lib = bilinear_resize(img, inner)
            ref = reference_bilinear(img, inner)
            np.testing.assert_allclose(lib, ref, atol=1e-9)
            assert lib.sum() <= img.sum() + 1e-9

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_batched_resize_equals_per_image_calls(self, data):
        n, ch, s = (data.draw(st.integers(1, hi)) for hi in (3, 3, 12))
        out_size = data.draw(st.integers(1, s))
        imgs = data.draw(arrays(np.float64, (n, ch, s, s),
                                elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
        batched = bilinear_resize(imgs, out_size)
        assert batched.shape == (n, ch, out_size, out_size)
        for i in range(n):
            for k in range(ch):
                np.testing.assert_array_equal(batched[i, k], bilinear_resize(imgs[i, k], out_size))


class TestChannelStack:
    def test_green_channel_unchanged(self):
        d = gen_glyph_domain(3, 6, 12, seed=6)
        out = apply_channel_stack(d, 2)
        np.testing.assert_array_equal(out.rasters()[:, 1], d.rasters()[:, 0])

    def test_red_blue_are_translations(self):
        d = gen_glyph_domain(3, 6, 12, seed=6)
        px = 2
        out = apply_channel_stack(d, px)
        imgs = out.rasters()
        base = d.rasters()[:, 0]
        # shift the channels back; interiors must agree with the original
        np.testing.assert_array_equal(imgs[:, 0, :, px:], base[:, :, :-px])
        np.testing.assert_array_equal(imgs[:, 2, :, :-px], base[:, :, px:])
        assert np.all(imgs[:, 0, :, :px] == 0.0)
        assert np.all(imgs[:, 2, :, -px:] == 0.0)

    def test_dimension_triples(self):
        d = gen_glyph_domain(3, 6, 12, seed=6)
        out = apply_channel_stack(d, 1)
        assert out.feature_dim == 3 * d.feature_dim

    def test_multichannel_input_rejected(self):
        d = gen_glyph_domain(3, 6, 12, channels=3, seed=6)
        with pytest.raises(TypeError):
            apply_channel_stack(d, 1)


class TestRotateMeanShift:
    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(2, 64),
           angle=st.sampled_from([0.0, -0.0, np.pi / 2, np.pi, -np.pi, 1e-300])
           | st.floats(allow_nan=False, allow_infinity=False))
    def test_block_matrix_equals_the_product_of_givens_matrices(self, dim, angle):
        want = givens_product(dim, angle)
        assert _rotation_matrix(dim, angle).tobytes() == want.tobytes()
        d = gen_gaussian_domain(2, 8, dim, seed=dim)
        rotated = (d.samples.astype(np.float64) @ want.T).astype(np.float32)
        assert apply_rotate(d, angle).samples.tobytes() == rotated.tobytes()

    def test_rotation_preserves_norms(self):
        d = gen_gaussian_domain(3, 10, 6, seed=2)
        out = apply_rotate(d, 1.1)
        np.testing.assert_allclose(np.linalg.norm(out.samples, axis=1),
                                   np.linalg.norm(d.samples, axis=1), rtol=1e-5)

    def test_mean_shift_moves_mean_by_magnitude(self):
        d = gen_gaussian_domain(3, 50, 6, seed=2)
        out = apply_mean_shift(d, 4.0, seed=3)
        delta = out.samples.mean(axis=0) - d.samples.mean(axis=0)
        np.testing.assert_allclose(np.linalg.norm(delta), 4.0, rtol=1e-4)

    def test_raster_input_rejected(self):
        d = gen_glyph_domain(3, 6, 12, seed=6)
        with pytest.raises(TypeError):
            apply_rotate(d, 0.5)
        with pytest.raises(TypeError):
            apply_mean_shift(d, 1.0)


class TestLabelNoise:
    def test_exact_flip_count(self):
        d = gen_gaussian_domain(4, 50, 4, seed=8)
        out = apply_label_noise(d, 0.25, seed=1)
        flipped = (out.labels != d.labels).sum()
        assert flipped == int(np.floor(0.25 * d.n_samples))

    def test_flips_go_to_other_classes(self):
        d = gen_gaussian_domain(4, 50, 4, seed=8)
        out = apply_label_noise(d, 0.5, seed=2)
        changed = out.labels != d.labels
        assert np.all(out.labels[changed] != d.labels[changed])
        assert np.array_equal(out.samples, d.samples)


class TestTransformInvariants:
    def test_all_transforms_label_preserving_except_label_noise(self):
        glyph = gen_glyph_domain(3, 8, 12, seed=1)
        vector = gen_gaussian_domain(3, 10, 4, seed=1)
        cases = [
            (apply_background_overlay(glyph, 0.6, seed=2), glyph),
            (apply_scale_recenter(glyph, 8), glyph),
            (apply_channel_stack(glyph, 2), glyph),
            (apply_rotate(vector, 0.7), vector),
            (apply_mean_shift(vector, 2.0, seed=3), vector),
        ]
        for out, src in cases:
            assert np.array_equal(out.labels, src.labels)
        noised = apply_label_noise(vector, 0.3, seed=4)
        assert not np.array_equal(noised.labels, vector.labels)

    def test_transforms_bit_deterministic(self):
        glyph = gen_glyph_domain(3, 8, 12, seed=1)
        a = apply_background_overlay(glyph, 0.6, seed=2)
        b = apply_background_overlay(glyph, 0.6, seed=2)
        assert np.array_equal(a.samples, b.samples)
        c = apply_background_overlay(glyph, 0.6, seed=3)
        assert not np.array_equal(a.samples, c.samples)


class TestMixup:
    def test_forced_lambda_one_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 3))
        y = np.eye(4)[rng.integers(0, 4, 8)]
        mx, my = mixup(x, y, alpha=0.2, rng=rng, lam=1.0)
        np.testing.assert_array_equal(mx, x)
        np.testing.assert_array_equal(my, y)

    def test_soft_labels_sum_to_one(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 3))
        y = np.eye(4)[rng.integers(0, 4, 16)]
        _, my = mixup(x, y, alpha=0.2, rng=rng)
        np.testing.assert_allclose(my.sum(axis=1), 1.0, atol=1e-12)

    def test_beta_mean_is_half(self):
        rng = np.random.default_rng(2)
        lams = rng.beta(0.2, 0.2, size=100_000)
        assert abs(lams.mean() - 0.5) < 0.01

    @staticmethod
    def batch(n, width, num_classes, seed):
        """A float64 batch with exact zeros of both signs and Dirichlet soft
        targets, from its own seed."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, width))
        x[rng.random(x.shape) < 0.1] = 0.0
        x[rng.random(x.shape) < 0.1] = -0.0
        return x, rng.dirichlet(np.ones(num_classes), size=n)

    @staticmethod
    def reference(x, y, alpha, rng, lam):
        """The blend formula, with mixup's draws: permutation, then beta."""
        partner = rng.permutation(x.shape[0])
        lams = np.full(x.shape[0], lam) if lam is not None else rng.beta(alpha, alpha, x.shape[0])
        lx = lams[:, None]
        return lx * x + (1 - lx) * x[partner], lx * y + (1 - lx) * y[partner]

    mixup_cases = dict(n=st.integers(2, 70), width=st.integers(1, 800),
                       num_classes=st.integers(2, 12),
                       alpha=st.sampled_from([0.05, 0.2, 0.4, 1.0, 3.0]),
                       lam=st.none() | st.floats(0.0, 1.0),
                       seed=st.integers(0, 2**32 - 1))

    @given(**mixup_cases)
    @settings(deadline=None, max_examples=60)
    def test_matches_blend_formula(self, n, width, num_classes, alpha, lam, seed):
        x, y = self.batch(n, width, num_classes, seed)
        before = x.tobytes(), y.tobytes()
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        mx, my = mixup(x, y, alpha, rng, lam=lam)
        rx, ry = self.reference(x, y, alpha, ref_rng, lam)
        assert mx.tobytes() == rx.tobytes() and my.tobytes() == ry.tobytes()
        assert (x.tobytes(), y.tobytes()) == before  # inputs untouched
        assert rng.random() == ref_rng.random()  # same draws consumed

    @given(**mixup_cases)
    @settings(deadline=None, max_examples=60)
    def test_scratch_blends_in_place_to_the_same_bytes(self, n, width, num_classes,
                                                       alpha, lam, seed):
        x, y = self.batch(n, width, num_classes, seed)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        scratch = Scratch()
        for _ in range(2):  # the second call reuses the scratch memory
            rx, ry = mixup(x, y, alpha, ref_rng, lam=lam)
            mx, my = mixup(x, y, alpha, rng, lam=lam, scratch=scratch)
            assert mx is x and my is y
            assert x.tobytes() == rx.tobytes() and y.tobytes() == ry.tobytes()
            assert rng.random() == ref_rng.random()

    def test_scratch_needs_float_x_and_float64_targets(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        y = np.eye(3)[[0, 1, 2, 0]]
        # a float32 x is blended in place in float32, with float32 lambdas
        x32, ref_rng = x.astype(np.float32), np.random.default_rng(1)
        partner = ref_rng.permutation(4)
        lx = ref_rng.beta(0.2, 0.2, 4)[:, None].astype(np.float32)
        expect = x32 * lx + x32[partner] * (1 - lx)
        mx, my = mixup(x32, y.copy(), 0.2, np.random.default_rng(1), scratch=Scratch())
        assert mx is x32 and mx.dtype == np.float32 and mx.tobytes() == expect.tobytes()
        assert my.dtype == np.float64
        with pytest.raises(ValueError, match="y_soft a float64 array"):
            mixup(x, y.astype(np.float32), 0.2, rng, scratch=Scratch())
        with pytest.raises(ValueError, match="float32 or float64 array"):
            mixup(np.arange(12).reshape(4, 3), y, 0.2, rng, scratch=Scratch())


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        d = gen_glyph_domain(3, 6, 12, seed=9)
        path = tmp_path / "d.gdsd"
        save_dataset(d, path)
        loaded = load_dataset(path)
        assert loaded == d
        assert loaded.raster_shape == d.raster_shape

    def test_round_trip_unlabeled(self, tmp_path):
        d = gen_gaussian_domain(3, 10, 5, seed=9).strip_labels()
        path = tmp_path / "u.gdsd"
        save_dataset(d, path)
        assert load_dataset(path) == d

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_round_trip_property(self, data):
        name = data.draw(st.text(st.characters(codec="utf-8"), max_size=24))
        n = data.draw(st.integers(2, 16))
        dim = data.draw(st.integers(1, 40))
        samples = data.draw(arrays(np.float32, (n, dim),
                                   elements=st.floats(width=32, allow_nan=False,
                                                      allow_infinity=False)))
        if data.draw(st.booleans()):
            num_classes = data.draw(st.integers(2, n))
            labels = np.array(data.draw(st.permutations(range(n)))) % num_classes
        else:
            num_classes, labels = data.draw(st.integers(2, 0xFFFF)), None
        d = DomainDataset(name, samples, labels, num_classes)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.gdsd"), Path(tmp, "b.gdsd")
            save_dataset(d, first)
            loaded = load_dataset(first)
            save_dataset(loaded, second)
            assert second.read_bytes() == first.read_bytes()
        assert loaded.name == name and loaded.num_classes == num_classes
        assert loaded.samples.tobytes() == d.samples.tobytes()
        if labels is None:
            assert loaded.labels is None
        else:
            np.testing.assert_array_equal(loaded.labels, labels)

    def test_a_vector_domain_of_square_dim_loads_without_a_raster_shape(self, tmp_path):
        d = gen_gaussian_domain(3, 8, 64)
        path = tmp_path / "g.gdsd"
        save_dataset(d, path)
        loaded = load_dataset(path)
        assert loaded.raster_shape is None
        assert apply_rotate(loaded, 0.5) == apply_rotate(d, 0.5)
        # equality compares the raster shape the file stores
        as_raster = DomainDataset(d.name, d.samples, d.labels, d.num_classes, (1, 8, 8))
        assert as_raster != d

    @pytest.mark.parametrize("d", [gen_glyph_domain(2, 4, 8, seed=1),
                                   gen_gaussian_domain(3, 8, 2, seed=1).strip_labels()],
                             ids=["glyph", "unlabeled_gaussian"])
    def test_every_prefix_and_byte_flip_is_a_parse_error(self, tmp_path, d):
        path = tmp_path / "d.gdsd"
        save_dataset(d, path)
        blob = path.read_bytes()
        damaged = [blob[:k] for k in range(len(blob))]
        damaged += [blob[:k] + bytes([blob[k] ^ 0xFF]) + blob[k + 1:] for k in range(len(blob))]
        for bad in damaged:
            path.write_bytes(bad)
            with pytest.raises(ParseError):
                load_dataset(path)

    def test_truncated_file(self, tmp_path):
        d = gen_gaussian_domain(3, 10, 5, seed=9)
        path = tmp_path / "t.gdsd"
        save_dataset(d, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_bad_version(self, tmp_path):
        d = gen_gaussian_domain(3, 10, 5, seed=9)
        path = tmp_path / "v.gdsd"
        save_dataset(d, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 3
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            load_dataset(path)

    def test_corrupt_payload(self, tmp_path):
        d = gen_gaussian_domain(3, 10, 5, seed=9)
        path = tmp_path / "c.gdsd"
        save_dataset(d, path)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.gdsd"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ParseError):
            load_dataset(path)


class TestSplit:
    def test_stratified_and_disjoint(self):
        d = gen_gaussian_domain(4, 25, 4, seed=3)
        train, test = d.split(0.8, seed=7)
        assert train.n_samples + test.n_samples == d.n_samples
        assert set(np.unique(train.labels)) == set(range(4))
        assert set(np.unique(test.labels)) == set(range(4))

    def test_deterministic(self):
        d = gen_gaussian_domain(4, 25, 4, seed=3)
        a = d.split(0.8, seed=7)[0]
        b = d.split(0.8, seed=7)[0]
        assert np.array_equal(a.samples, b.samples)

    def test_strip_labels_view(self):
        d = gen_gaussian_domain(4, 25, 4, seed=3)
        view = d.strip_labels()
        assert view.labels is None
        with pytest.raises(DataError):
            view.require_labels()
