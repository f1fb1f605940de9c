"""Protocol orchestration tests: determinism, the per-round classifier-merge
identity, weighting symmetry, communication accounting, and the
cross-domain matrix."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galasim import (
    Classifier,
    ConfigError,
    DataError,
    NumericError,
    ProtocolConfig,
    TransformSpec,
    account_communication,
    gen_gaussian_domain,
    run_fact_idd,
    run_gala,
    run_oracle,
    run_protocol,
    run_source_only,
    similarity_matrix,
    weighted_mean,
)
from galasim import federation
from galasim.federation import (_init_model, _train_lockstep, evaluate_accuracy,
                                sample_pair)


def small_cfg(**overrides):
    base = dict(protocol="gala", rounds=2, batch_size=32, lr0=0.05,
                hidden_dims=(16,), feature_dim=8, seed=1, tau=1.0)
    base.update(overrides)
    return ProtocolConfig(**base)


def small_suite(n_sources=4, seed0=0, input_dim=4, num_classes=3, k=24,
                target_k=None):
    sources = [gen_gaussian_domain(num_classes, k, input_dim, seed=seed0 + i)
               for i in range(n_sources)]
    target = gen_gaussian_domain(
        num_classes, target_k or k, input_dim, seed=seed0 + 100,
        shift=TransformSpec("mean_shift", {"magnitude": 1.0}, seed=7))
    return sources, target


def distractor(seed=9, input_dim=4, num_classes=3, k=24):
    """A source rotated, shifted and half mislabeled away from the others."""
    return gen_gaussian_domain(
        num_classes, k, input_dim, seed=seed,
        shift=(TransformSpec("rotate", {"angle": 1.9}),
               TransformSpec("mean_shift", {"magnitude": 2.5}, seed=seed),
               TransformSpec("label_noise", {"fraction": 0.5}, seed=seed)))


class TestRunGala:
    def test_bit_identical_reruns(self):
        sources, target = small_suite()
        cfg = small_cfg()
        a = run_gala(cfg, sources, target)
        b = run_gala(cfg, sources, target)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.weights, rb.weights)
            assert ra.target_accuracy == rb.target_accuracy
            assert ra.igd_loss == rb.igd_loss
            assert ra.partition == rb.partition
        assert np.array_equal(a.classifier.params.values, b.classifier.params.values)
        assert np.array_equal(a.extractor.params.values, b.extractor.params.values)

    def test_zero_lr_single_round_keeps_model(self):
        sources, target = small_suite()
        cfg = small_cfg(rounds=1, lr0=0.0, weight_decay=0.0)
        result = run_gala(cfg, sources, target)
        g0, f0 = _init_model(cfg, 4, 3)
        assert np.abs(result.extractor.params.values - g0.params.values).max() <= 1e-12
        assert np.abs(result.classifier.params.values - f0.params.values).max() <= 1e-12
        assert np.isfinite(result.records[0].igd_loss)

    def test_classifier_merge_identity_every_round(self):
        # the partitioned merge must equal the direct global weighted average
        sources, target = small_suite(n_sources=5)
        cfg = small_cfg(rounds=3)
        deviations = []

        def hook(info):
            direct = weighted_mean([f.params for f in info["finetuned"]],
                                   info["weights"])
            deviations.append(np.abs(
                info["classifier"].params.values - direct.values).max())

        run_gala(cfg, sources, target, round_hook=hook)
        assert len(deviations) == 3
        assert max(deviations) <= 1e-9

    def test_identical_sources_uniform_weights(self):
        base = gen_gaussian_domain(3, 24, 4, seed=0)
        sources = [type(base)(f"s{i}", base.samples, base.labels, 3)
                   for i in range(4)]
        _, target = small_suite()
        cfg = small_cfg(rounds=2)
        result = run_gala(cfg, sources, target)
        for rec in result.records:
            assert np.abs(rec.weights - 0.25).max() <= 1e-6

    def test_config_errors_before_round_one(self):
        sources, target = small_suite()
        with pytest.raises(ConfigError):
            run_gala(small_cfg(), sources[:1], target)  # too few sources
        bad_dim = gen_gaussian_domain(3, 24, 5, seed=0)
        with pytest.raises(ConfigError):
            run_gala(small_cfg(), [bad_dim] + sources[1:], target)
        with pytest.raises(DataError):
            run_gala(small_cfg(), [sources[0].strip_labels(), sources[1]], target)

    def test_uniform_and_baseline_weighting_modes(self):
        sources, target = small_suite()
        res_u = run_gala(small_cfg(weighting="uniform"), sources, target)
        assert np.array_equal(res_u.records[0].weights, np.full(4, 0.25))
        res_m = run_gala(small_cfg(weighting="mdmgb"), sources, target)
        np.testing.assert_allclose(res_m.records[0].weights.sum(), 1.0, atol=1e-9)

    def test_no_igd_ablation_still_measures_loss(self):
        sources, target = small_suite()
        result = run_gala(small_cfg(use_igd=False), sources, target)
        assert all(np.isfinite(r.igd_loss) for r in result.records)

    def test_accuracy_is_eval_split_accuracy(self):
        sources, target = small_suite()
        cfg = small_cfg(rounds=2)
        result = run_gala(cfg, sources, target)
        _, eval_split = target.split(1.0 - cfg.eval_fraction, seed=cfg.seed)
        recomputed = evaluate_accuracy(result.extractor, result.classifier,
                                       eval_split)
        assert result.final_accuracy == recomputed

    def test_weight_underflow_is_numeric_error(self):
        # at a huge tau the distractor's softmax weight underflows to 0
        sources, target = small_suite(n_sources=3)
        with pytest.raises(NumericError) as info:
            run_gala(small_cfg(tau=3000.0), [*sources, distractor()], target)
        assert info.value.round_index == 0
        assert info.value.client == "server"

    @pytest.mark.parametrize("run", [run_gala, run_source_only])
    @pytest.mark.parametrize("poisoned", [(2,), (1, 3)])
    def test_source_training_error_names_the_client(self, run, poisoned):
        # huge features with shuffled labels: the source cannot be fit, so
        # each step's update grows until its forward pass overflows in the
        # first epoch; the lowest poisoned source is named
        sources, target = small_suite()
        for i in poisoned:
            src = sources[i]
            labels = np.random.default_rng(0).permutation(src.labels)
            sources[i] = type(src)(f"poisoned{i}", src.samples * np.float32(3e37),
                                   labels, src.num_classes)
        protocol = "gala" if run is run_gala else "source_only"
        with pytest.raises(NumericError) as info, np.errstate(all="ignore"):
            run(small_cfg(protocol=protocol, rounds=1, batch_size=16, seed=2),
                sources, target)
        assert info.value.round_index == 0
        assert info.value.client == f"poisoned{poisoned[0]}"

    @pytest.mark.parametrize("mixup_alpha", [None, 0.4])
    def test_frozen_fine_tune_leaves_extractor_bytes(self, mixup_alpha):
        sources, _ = small_suite()
        cfg = small_cfg(local_epochs=2, batch_size=16, mixup_alpha=mixup_alpha)
        extractor, classifier = _init_model(cfg, 4, 3)
        before = extractor.params.values.tobytes()
        (g,), (f,), _ = _train_lockstep(cfg, 0.05, extractor, [classifier], sources[:1],
                                        [np.random.default_rng(0)],
                                        update_extractor=False)
        assert g.params.values.tobytes() == before
        assert not np.array_equal(f.params.values, classifier.params.values)

    def test_full_pairwise_variant_runs(self):
        sources, target = small_suite(n_sources=3)
        result = run_gala(small_cfg(protocol="full_pairwise", rounds=1),
                          sources, target)
        assert result.records[0].partition is None
        assert result.records[0].igd_loss >= 0.0


def assert_lockstep_matches_one_at_a_time(cfg, datasets, seed, update_extractor):
    """Training all clients together gives each client's bytes and loss as
    training it alone, as a stack of one."""
    input_dim = datasets[0].feature_dim
    extractor, _ = _init_model(cfg, input_dim, 3)
    heads = [Classifier.init(cfg.feature_dim, 3, np.random.default_rng((seed, i)))
             for i in range(len(datasets))]

    def rngs():
        return [np.random.default_rng((seed, i, 1)) for i in range(len(datasets))]

    g_all, f_all, losses = _train_lockstep(cfg, 0.05, extractor, heads, datasets, rngs(),
                                           update_extractor=update_extractor)
    for i, (d, rng) in enumerate(zip(datasets, rngs())):
        (g,), (f,), (loss,) = _train_lockstep(cfg, 0.05, extractor, heads[i:i + 1], [d],
                                              [rng], update_extractor=update_extractor)
        np.testing.assert_array_equal(g_all[i].params.values, g.params.values)
        np.testing.assert_array_equal(f_all[i].params.values, f.params.values)
        assert losses[i] == loss


class TestLockstepTraining:
    @settings(max_examples=30, deadline=None)
    @given(per_class=st.lists(st.sampled_from([8, 9, 12]), min_size=1, max_size=5),
           batch_size=st.sampled_from([4, 7, 16]),
           mixup=st.booleans(), update_extractor=st.booleans(),
           stack_cap=st.sampled_from([1, 2, 3, 50]), seed=st.integers(0, 2**16))
    def test_lockstep_equals_one_at_a_time(self, per_class, batch_size, mixup,
                                           update_extractor, stack_cap, seed):
        # unequal n_samples split the clients into groups; stack_cap chunks them
        cfg = small_cfg(local_epochs=2, batch_size=batch_size,
                        mixup_alpha=0.4 if mixup else None)
        datasets = [gen_gaussian_domain(3, k, 4, seed=seed + i, name=f"c{i}")
                    for i, k in enumerate(per_class)]
        per_client = 8 * (16 * 4 + 16 + 8 * 16 + 8 + 3 * 8 + 3)
        with mock.patch.object(federation, "STACK_BYTES", stack_cap * per_client):
            assert_lockstep_matches_one_at_a_time(cfg, datasets, seed, update_extractor)

    @pytest.mark.parametrize("update_extractor", [True, False])
    def test_wide_models_run_one_per_stack(self, update_extractor):
        # a 768-input model is over the byte budget, so each client is its own stack
        cfg = small_cfg(local_epochs=1, batch_size=16, mixup_alpha=0.2,
                        hidden_dims=(64,), feature_dim=32)
        extractor, classifier = _init_model(cfg, 768, 3)
        assert 8 * (extractor.params.size + classifier.params.size) > federation.STACK_BYTES
        datasets = [gen_gaussian_domain(3, 10, 768, seed=i, name=f"w{i}") for i in range(3)]
        assert_lockstep_matches_one_at_a_time(cfg, datasets, 5, update_extractor)


class TestRunFact:
    def test_two_sources_pair_is_deterministic(self):
        sources, target = small_suite(n_sources=2)
        cfg = small_cfg(protocol="fact_idd", rounds=2)
        result = run_fact_idd(cfg, sources, target)
        for rec in result.records:
            np.testing.assert_array_equal(rec.weights, [0.5, 0.5])
        assert "reimplementation" in result.metadata["protocol"]

    def test_pair_frequencies_uniform(self):
        n = 5
        pairs = {}
        for t in range(10_000):
            pair = sample_pair(123, t, n)
            pairs[pair] = pairs.get(pair, 0) + 1
        assert len(pairs) == 10  # C(5,2)
        for count in pairs.values():
            assert abs(count / 10_000 - 0.1) < 0.02

    def test_bit_identical_reruns(self):
        sources, target = small_suite(n_sources=3)
        cfg = small_cfg(protocol="fact_idd", rounds=2)
        a = run_fact_idd(cfg, sources, target)
        b = run_fact_idd(cfg, sources, target)
        assert np.array_equal(a.classifier.params.values, b.classifier.params.values)


class TestBaselines:
    def test_oracle_learns_separable_task(self):
        # center_scale 6 puts the class clouds ~8.5 sigma apart: separable
        target = gen_gaussian_domain(4, 100, 8, seed=5, center_scale=6.0)
        cfg = small_cfg(protocol="oracle", rounds=40, batch_size=64,
                        hidden_dims=(32,), feature_dim=16, lr0=0.05)
        result = run_oracle(cfg, target)
        assert result.final_accuracy >= 0.99

    def test_source_only_matches_oracle_without_shift(self):
        target = gen_gaussian_domain(3, 80, 6, seed=6)
        sources = [type(target)(f"s{i}", target.samples, target.labels, 3)
                   for i in range(3)]
        cfg_s = small_cfg(protocol="source_only", rounds=25, batch_size=64,
                          hidden_dims=(32,), feature_dim=16)
        cfg_o = small_cfg(protocol="oracle", rounds=25, batch_size=64,
                          hidden_dims=(32,), feature_dim=16)
        source_only = run_source_only(cfg_s, sources, target)
        oracle = run_oracle(cfg_o, target)
        assert abs(source_only.final_accuracy - oracle.final_accuracy) <= 0.02

    def test_oracle_requires_labels(self):
        target = gen_gaussian_domain(3, 24, 4, seed=7).strip_labels()
        with pytest.raises(DataError):
            run_oracle(small_cfg(protocol="oracle"), target)

    def test_dispatch(self):
        sources, target = small_suite(n_sources=2)
        for protocol in ("gala", "fact_idd", "source_only", "oracle"):
            cfg = small_cfg(protocol=protocol, rounds=1)
            result = run_protocol(cfg, sources, target)
            assert len(result.records) == 1


class TestCommunicationAccounting:
    def test_hand_count_toy_model(self):
        # toy sizes: |G|=6, |F|=6, C=2, d=2, N=3
        up, down = account_communication("gala", 3, 6, 6, 2, 2)
        assert up == 3 * (6 + 6 + 2 * 2 + 2) * 4 == 216
        assert down == 3 * (2 * 6 + 6) * 4 == 216

    def test_gala_doubles_with_n(self):
        up1, down1 = account_communication("gala", 4, 100, 20, 4, 8)
        up2, down2 = account_communication("gala", 8, 100, 20, 4, 8)
        assert up2 == 2 * up1 and down2 == 2 * down1

    def test_fact_constant_in_n(self):
        for n in (2, 6, 12):
            assert account_communication("fact_idd", n, 100, 20, 4, 8) == \
                account_communication("fact_idd", 2, 100, 20, 4, 8)

    def test_oracle_communicates_nothing(self):
        assert account_communication("oracle", 5, 100, 20, 4, 8) == (0, 0)

    def test_records_carry_exact_closed_form(self):
        sources, target = small_suite()
        cfg = small_cfg(rounds=1)
        result = run_gala(cfg, sources, target)
        g = result.extractor.params.size
        f = result.classifier.params.size
        expect_up = 4 * 4 * (g + f + 3 * 8 + 3)
        assert result.records[0].bytes_up == expect_up


class TestWallModel:
    def test_deterministic_and_positive(self):
        sources, target = small_suite()
        cfg = small_cfg(rounds=1)
        a = run_gala(cfg, sources, target)
        b = run_gala(cfg, sources, target)
        assert a.records[0].wall_max_client_ms == b.records[0].wall_max_client_ms
        assert a.records[0].wall_max_client_ms > 0.0
        assert a.records[0].wall_server_ms > 0.0

    def test_client_wall_grows_with_sources(self):
        # with the usual large unlabeled target pool, the busiest node is the
        # target, whose group-evaluation work is linear in the source count
        cfg = small_cfg(rounds=1)
        walls = []
        for n in (4, 8, 16):
            sources, target = small_suite(n_sources=n, target_k=120)
            result = run_gala(cfg, sources, target)
            walls.append(result.records[0].wall_max_client_ms)
        assert walls[0] < walls[1] < walls[2]


class TestSimilarityMatrix:
    def test_shape_diagonal_and_duplicates(self):
        domains = [
            gen_gaussian_domain(3, 40, 4, seed=0, name="a"),
            gen_gaussian_domain(3, 40, 4, seed=0, name="a_copy"),
            gen_gaussian_domain(
                3, 40, 4, seed=3, name="b",
                shift=TransformSpec("mean_shift", {"magnitude": 4.0}, seed=1)),
        ]
        cfg = small_cfg(rounds=12, batch_size=32, hidden_dims=(16,),
                        feature_dim=8, lr0=0.03)
        matrix = similarity_matrix(domains, cfg)
        assert matrix.shape == (3, 3)
        # diagonal self-performance at least the row mean on separated domains
        for i in range(3):
            assert matrix[i, i] >= matrix[i].mean() - 1e-9
        # identical domains transfer to each other like to themselves
        assert abs(matrix[0, 1] - matrix[0, 0]) <= 0.02
        # no symmetry is imposed by construction
        assert matrix.shape[0] == matrix.shape[1]

    def test_requires_labels(self):
        d = gen_gaussian_domain(3, 40, 4, seed=0)
        with pytest.raises(DataError):
            similarity_matrix([d, d.strip_labels()], small_cfg())
