"""Protocol orchestration tests: determinism, the per-round classifier-merge
identity, weighting symmetry, communication accounting, and the
cross-domain matrix."""

import dataclasses
import multiprocessing
import os
import pickle
import threading
import warnings
from time import perf_counter
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
    WorkerError,
    account_communication,
    gen_gaussian_domain,
    run_gala,
    run_protocol,
    similarity_matrix,
    weighted_mean,
)
from galasim import federation
from galasim.federation import (_init_model, _processes, _source_blocks,
                                _train_lockstep, evaluate_accuracy, sample_pair)


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

    @pytest.mark.parametrize("protocol", federation.PROTOCOLS)
    def test_the_extractor_trains_in_float32_and_the_heads_in_float64(self, protocol):
        sources, target = small_suite()
        seen = []
        result = run_protocol(small_cfg(protocol=protocol, rounds=2), sources, target,
                              round_hook=seen.append)
        assert result.extractor.params.values.dtype == np.float32
        assert result.classifier.params.values.dtype == np.float64
        for info in seen:
            assert info["weights"].dtype == np.float64
            assert all(f.params.values.dtype == np.float64 for f in info["finetuned"] or [])

    def test_zero_lr_single_round_keeps_model(self):
        sources, target = small_suite()
        cfg = small_cfg(rounds=1, weight_decay=0.0)
        # a config's lr0 must be positive, so the zero rate comes from the schedule
        with mock.patch.object(federation, "lr_schedule", lambda lr0, t, gamma: 0.0):
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # tau * S overflows unseen
    @pytest.mark.parametrize("protocol, need", [("gala", "positive"),
                                                ("full_pairwise", "finite")])
    def test_overflowing_weights_are_a_numeric_error_before_aggregation(self, protocol, need):
        sources, target = small_suite(n_sources=3)
        with mock.patch.object(federation, "weighted_mean",
                               side_effect=AssertionError("aggregated")), \
                pytest.raises(NumericError, match=f"global weights must be {need}") as info:
            run_gala(small_cfg(protocol=protocol, tau=1e308), sources, target)
        assert (info.value.round_index, info.value.client) == (0, "server")

    def test_full_pairwise_runs_with_an_underflowed_weight(self):
        sources, target = small_suite(n_sources=3)
        result = run_gala(small_cfg(protocol="full_pairwise", tau=3000.0),
                          [*sources, distractor()], target)
        assert len(result.records) == 2
        assert (result.records[0].weights == 0).any()

    @pytest.mark.parametrize("run", [run_gala, run_protocol])
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_target_centroids_name_the_target(self):
        # the float32 features of samples at +-3e38 overflow in the centroid pass
        sources, target = small_suite()
        target = type(target)(target.name, np.sign(target.samples) * np.float32(3e38),
                              target.labels, target.num_classes)
        with pytest.raises(NumericError) as info:
            run_gala(small_cfg(rounds=1), sources, target)
        assert (info.value.round_index, info.value.client) == (0, "target")
        assert info.value.reason == "centroid set contains non-finite values"

    @pytest.mark.parametrize("overrides, reason", [
        ({"use_igd": False, "weighting": "uniform"}, "non-finite group-discrepancy loss"),
        ({"protocol": "source_only"}, "non-finite predictions"),
    ])
    def test_non_finite_target_stage_and_evaluation_name_the_target(self, overrides, reason):
        # no centroid pass here: the target at +-3e38 first overflows in the
        # no-igd ablation's group loss, or in source_only's evaluation
        sources, target = small_suite()
        target = type(target)(target.name, np.sign(target.samples) * np.float32(3e38),
                              target.labels, target.num_classes)
        with pytest.raises(NumericError) as info, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_protocol(small_cfg(rounds=1, **overrides), sources, target)
        assert (info.value.round_index, info.value.client) == (0, "target")
        assert info.value.reason == reason

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


def processes(count):
    """Force run_gala's process budget (the derived rule may give 1 here)."""
    return mock.patch.object(federation, "_processes", lambda: count)


def poison(sources, indices):
    """Huge features with shuffled labels: the source cannot be fit, so each
    step's update grows until its forward pass overflows in the first epoch."""
    for i in indices:
        src = sources[i]
        labels = np.random.default_rng(0).permutation(src.labels)
        sources[i] = type(src)(f"poisoned{i}", src.samples * np.float32(3e37),
                               labels, src.num_classes)


def assert_same_run(a, b):
    """Equal records, field by field and byte for byte, and equal final models."""
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        for f in dataclasses.fields(ra):
            va, vb = getattr(ra, f.name), getattr(rb, f.name)
            if isinstance(va, np.ndarray):
                assert va.shape == vb.shape and va.tobytes() == vb.tobytes(), f.name
            elif isinstance(va, float):
                assert np.float64(va).tobytes() == np.float64(vb).tobytes(), f.name
            else:
                assert va == vb, f.name
    assert a.extractor.params.values.tobytes() == b.extractor.params.values.tobytes()
    assert a.classifier.params.values.tobytes() == b.classifier.params.values.tobytes()


class TestSourceProcessRule:
    @pytest.fixture
    def four_cpus(self, monkeypatch):
        for var in federation._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        return monkeypatch

    @pytest.mark.parametrize("env, cpus, expected", [
        ({}, 2, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2), ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 8, 2),
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 3, 1),
        ({"OPENBLAS_NUM_THREADS": "abc"}, 2, 1), ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1)])
    def test_one_budget_table(self, four_cpus, env, cpus, expected):
        for var, value in env.items():
            four_cpus.setenv(var, value)
        four_cpus.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert _processes() == expected

    def test_without_affinity_calls_a_round_uses_one_process(self, four_cpus):
        four_cpus.setenv("OPENBLAS_NUM_THREADS", "1")
        four_cpus.delattr(os, "sched_setaffinity")
        assert _processes() == 4  # a sweep needs no pinning
        sources, _ = small_suite(n_sources=3)
        with federation._source_pool(small_cfg(), sources) as (block, workers):
            assert list(block.indices) == [0, 1, 2] and workers == []

    def test_unset_thread_variables_mean_one_process(self, four_cpus):
        assert _processes() == 1

    @pytest.mark.parametrize("var, value, expected", [
        ("OPENBLAS_NUM_THREADS", "1", 4), ("OMP_NUM_THREADS", "2", 2),
        ("MKL_NUM_THREADS", "3", 1), ("OPENBLAS_NUM_THREADS", "8", 1),
        ("OMP_NUM_THREADS", "0", 1), ("OMP_NUM_THREADS", "two", 1)])
    def test_usable_cpus_over_blas_threads(self, four_cpus, var, value, expected):
        four_cpus.setenv(var, value)
        assert _processes() == expected

    def test_largest_thread_count_of_the_set_variables(self, four_cpus):
        four_cpus.setenv("OPENBLAS_NUM_THREADS", "1")
        four_cpus.setenv("OMP_NUM_THREADS", "2")
        assert _processes() == 2

    def test_without_fork_one_process(self, four_cpus):
        four_cpus.setenv("OPENBLAS_NUM_THREADS", "1")
        four_cpus.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert _processes() == 1

    def test_inside_a_child_process_one_process(self, four_cpus):
        four_cpus.setenv("OPENBLAS_NUM_THREADS", "1")
        assert _processes() == 4
        ctx = multiprocessing.get_context("fork")
        here, there = ctx.Pipe()
        child = ctx.Process(target=lambda: there.send(_processes()))
        child.start()
        try:
            assert here.poll(30) and here.recv() == 1
        finally:
            child.join(timeout=30)
        assert not child.is_alive()

    def test_beside_another_thread_one_process(self, four_cpus):
        four_cpus.setenv("OPENBLAS_NUM_THREADS", "1")
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert _processes() == 1
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive() and _processes() == 4

    @given(n=st.integers(1, 20), count=st.integers(1, 8))
    def test_blocks_are_contiguous_and_block_0_is_smallest(self, n, count):
        blocks = _source_blocks(n, count)
        assert len(blocks) == min(n, count)
        assert [i for b in blocks for i in b] == list(range(n))
        sizes = [len(b) for b in blocks]
        assert max(sizes) - min(sizes) <= 1 and sizes[0] == min(sizes)


class TestSourceProcesses:
    @settings(max_examples=25, deadline=None)
    @given(per_class=st.lists(st.sampled_from([8, 9, 12]), min_size=2, max_size=7),
           count=st.sampled_from([2, 3]), mixup=st.booleans(),
           protocol=st.sampled_from(["gala", "full_pairwise"]),
           weighting=st.sampled_from(["mdmgb_plus", "uniform"]),
           seed=st.integers(0, 2**16))
    def test_records_equal_in_process_records(self, per_class, count, mixup, protocol,
                                              weighting, seed):
        sources = [gen_gaussian_domain(3, k, 4, seed=seed + i, name=f"s{i}")
                   for i, k in enumerate(per_class)]
        _, target = small_suite(seed0=seed)
        cfg = small_cfg(protocol=protocol, weighting=weighting, batch_size=16, seed=seed,
                        mixup_alpha=0.4 if mixup else None)
        serial = run_gala(cfg, sources, target)
        with processes(count):
            forked = run_gala(cfg, sources, target)
        assert_same_run(serial, forked)

    def test_round_hook_sees_the_in_process_models(self):
        sources, target = small_suite(n_sources=5)
        seen = {1: [], 2: []}
        for count in seen:
            def hook(info, out=seen[count]):
                out.append(b"".join(f.params.values.tobytes() for f in info["finetuned"]))
            with processes(count):
                run_gala(small_cfg(rounds=2), sources, target, round_hook=hook)
        assert seen[1] == seen[2]

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("poisoned", [(2,), (1, 3)])
    def test_source_training_error_in_a_worker_names_the_client(self, count, poisoned):
        # with 2 processes sources 2 and 3 train in the worker, with 3 each of
        # sources 1, 2 and 3 does; the error is the one of a single process
        sources, target = small_suite()
        poison(sources, poisoned)
        cfg = small_cfg(rounds=1, batch_size=16, seed=2)
        errors = []
        for forced in (1, count):
            with processes(forced), pytest.raises(NumericError) as info, \
                    np.errstate(all="ignore"):
                run_gala(cfg, sources, target)
            errors.append(info.value)
        here, there = errors
        assert (there.reason, there.round_index, there.client) == \
            (here.reason, here.round_index, here.client)
        assert there.client == f"poisoned{poisoned[0]}" and str(there) == str(here)

    def test_numeric_error_keeps_its_fields_through_pickle(self):
        exc = pickle.loads(pickle.dumps(NumericError("non-finite", round_index=3,
                                                     client="s1")))
        assert (exc.reason, exc.round_index, exc.client) == ("non-finite", 3, "s1")
        assert str(exc) == "non-finite (round 3) (client 's1')"

    def test_other_worker_errors_keep_their_type(self):
        sources, target = small_suite()
        parent = os.getpid()
        real = federation.compute_centroids

        def failing(extractor, classifier, dataset):
            if os.getpid() != parent:
                raise DataError(f"cannot read {dataset.name}")
            return real(extractor, classifier, dataset)

        with processes(2), mock.patch.object(federation, "compute_centroids", failing):
            with pytest.raises(DataError, match="cannot read"):
                run_gala(small_cfg(), sources, target)

    def test_dead_worker_is_a_worker_error_within_seconds(self):
        sources, target = small_suite()
        parent = os.getpid()
        real = federation._train_lockstep

        def dying(*args, **kwargs):
            # the worker dies in its fine-tune of round 1, after a good round 0
            if os.getpid() != parent and kwargs["round_index"] == 1 \
                    and kwargs.get("update_extractor") is False:
                os._exit(9)
            return real(*args, **kwargs)

        start = perf_counter()
        with processes(2), mock.patch.object(federation, "_train_lockstep", dying):
            with pytest.raises(WorkerError, match="exited with code 9 in round 1"):
                run_gala(small_cfg(rounds=3), sources, target)
        assert perf_counter() - start < 10.0
        assert multiprocessing.active_children() == []

    def test_failed_fork_runs_in_one_process(self):
        sources, target = small_suite(n_sources=5)
        serial = run_gala(small_cfg(), sources, target)
        real_start = multiprocessing.process.BaseProcess.start
        started = []

        def start(process):
            if started:  # the second worker cannot be forked
                raise OSError(11, "Resource temporarily unavailable")
            started.append(process)
            real_start(process)

        with processes(3), mock.patch.object(multiprocessing.process.BaseProcess,
                                             "start", start):
            forked = run_gala(small_cfg(), sources, target)
        assert_same_run(serial, forked)
        assert len(started) == 1 and started[0].exitcode is not None

    @pytest.mark.parametrize("exit_path", ["return", "hook raises", "interrupt",
                                           "error here", "error in worker"])
    def test_workers_are_reaped_on_every_exit_path(self, exit_path):
        sources, target = small_suite()
        if exit_path == "error here":
            poison(sources, [0])
        elif exit_path == "error in worker":
            poison(sources, [3])
        seen = []

        def hook(info):
            seen.extend(multiprocessing.active_children())
            if exit_path == "hook raises":
                raise RuntimeError("hook failed")
            if exit_path == "interrupt":
                raise KeyboardInterrupt

        own_cpus = os.sched_getaffinity(0)
        expected = {"hook raises": RuntimeError, "interrupt": KeyboardInterrupt,
                    "error here": NumericError, "error in worker": NumericError}
        with processes(3), mock.patch.object(federation, "_Worker",
                                             recording(federation._Worker, seen)), \
                np.errstate(all="ignore"):
            cfg = small_cfg(rounds=2, batch_size=16, seed=2)
            if exit_path == "return":
                run_gala(cfg, sources, target, round_hook=hook)
            else:
                with pytest.raises(expected[exit_path]):
                    run_gala(cfg, sources, target, round_hook=hook)
        workers = {id(p): p for p in seen}.values()
        assert len(workers) == 2
        assert all(p.exitcode is not None for p in workers)
        assert multiprocessing.active_children() == []
        assert os.sched_getaffinity(0) == own_cpus  # the caller's pinning is restored


def recording(worker_type, seen):
    """A _Worker factory that appends each worker's process to `seen`."""
    def make(*args, **kwargs):
        worker = worker_type(*args, **kwargs)
        seen.append(worker.process)
        return worker
    return make


def assert_lockstep_matches_one_at_a_time(cfg, datasets, seed, update_extractor):
    """Training all clients together gives each client's bytes and loss as
    training it alone, as a stack of one. Returns the stack sizes of the
    call that trains them together."""
    input_dim = datasets[0].feature_dim
    extractor, _ = _init_model(cfg, input_dim, 3)
    heads = [Classifier.init(cfg.feature_dim, 3, np.random.default_rng((seed, i)))
             for i in range(len(datasets))]

    def rngs():
        return [np.random.default_rng((seed, i, 1)) for i in range(len(datasets))]

    stacks = []
    train_stack = federation._train_stack

    def spy(*args):
        stacks.append(len(args[4]))  # the stack's datasets
        return train_stack(*args)

    with mock.patch.object(federation, "_train_stack", spy):
        g_all, f_all, losses = _train_lockstep(cfg, 0.05, extractor, heads, datasets, rngs(),
                                               update_extractor=update_extractor)
    for i, (d, rng) in enumerate(zip(datasets, rngs())):
        (g,), (f,), (loss,) = _train_lockstep(cfg, 0.05, extractor, heads[i:i + 1], [d],
                                              [rng], update_extractor=update_extractor)
        np.testing.assert_array_equal(g_all[i].params.values, g.params.values)
        np.testing.assert_array_equal(f_all[i].params.values, f.params.values)
        assert losses[i] == loss
    return stacks


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
        # a member's copied parameters: the float64 head, and the float32
        # extractor when it trains (the frozen fine-tune shares one)
        per_member = 8 * (3 * 8 + 3) + (4 * (16 * 4 + 16 + 8 * 16 + 8) if update_extractor else 0)
        with mock.patch.object(federation, "STACK_BYTES", stack_cap * per_member):
            stacks = assert_lockstep_matches_one_at_a_time(cfg, datasets, seed,
                                                           update_extractor)
        groups = [per_class.count(k) for k in dict.fromkeys(per_class)]
        assert stacks == [min(stack_cap, size - start) for size in groups
                          for start in range(0, size, stack_cap)]

    @pytest.mark.parametrize("update_extractor", [True, False])
    def test_wide_clients_share_stacks(self, update_extractor):
        # 768-input clients train at least two to a stack; the fine-tune
        # stacks heads alone, so all five fine-tune as one
        cfg = small_cfg(local_epochs=1, batch_size=16, mixup_alpha=0.2,
                        hidden_dims=(64,), feature_dim=32)
        datasets = [gen_gaussian_domain(3, 10, 768, seed=i, name=f"w{i}") for i in range(5)]
        stacks = assert_lockstep_matches_one_at_a_time(cfg, datasets, 5, update_extractor)
        assert sum(stacks) == 5
        assert stacks[0] >= 2 if update_extractor else stacks == [5]

    @pytest.mark.parametrize("update_extractor", [True, False])
    def test_trained_params_are_read_only_views_of_the_stack(self, update_extractor):
        cfg = small_cfg(local_epochs=1, batch_size=16)
        datasets = [gen_gaussian_domain(3, 8, 4, seed=i, name=f"c{i}") for i in range(3)]
        extractor, classifier = _init_model(cfg, 4, 3)
        rngs = [np.random.default_rng(i) for i in range(3)]
        extractors, heads, _ = _train_lockstep(cfg, 0.05, extractor, [classifier] * 3, datasets,
                                               rngs, update_extractor=update_extractor)
        trained = [*heads, *(extractors if update_extractor else [])]
        for model in trained:
            values = model.params.values
            assert not values.flags.writeable and not values.flags.owndata
            with pytest.raises(ValueError):
                values[0] = 0.0
        # the members of one stack share its buffer
        assert heads[0].params.values.base is heads[2].params.values.base
        if not update_extractor:
            assert all(g is extractor for g in extractors)

    def test_a_blocks_second_round_reuses_its_scratch_buffers(self):
        sources, _ = small_suite()
        cfg = small_cfg(mixup_alpha=0.4)
        block = federation._SourceBlock(cfg, sources, range(len(sources)))
        extractor, classifier = _init_model(cfg, 4, 3)

        def round_(t):
            block.train(t, 0.05, extractor, classifier)
            block.finetune(t, 0.05, extractor)
            return dict(block.scratch._flat)

        first = round_(0)
        assert first  # activations, deltas and mixup partners
        second = round_(1)
        assert second.keys() == first.keys()
        assert all(second[slot] is buffer for slot, buffer in first.items())


class TestRunFact:
    def test_two_sources_pair_is_deterministic(self):
        sources, target = small_suite(n_sources=2)
        cfg = small_cfg(protocol="fact_idd", rounds=2)
        result = run_protocol(cfg, sources, target)
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
        a = run_protocol(cfg, sources, target)
        b = run_protocol(cfg, sources, target)
        assert np.array_equal(a.classifier.params.values, b.classifier.params.values)


class TestBaselines:
    def test_oracle_learns_separable_task(self):
        # center_scale 6 puts the class clouds ~8.5 sigma apart: separable
        target = gen_gaussian_domain(4, 100, 8, seed=5, center_scale=6.0)
        cfg = small_cfg(protocol="oracle", rounds=40, batch_size=64,
                        hidden_dims=(32,), feature_dim=16, lr0=0.05)
        result = run_protocol(cfg, [], target)
        assert result.final_accuracy >= 0.99

    def test_source_only_matches_oracle_without_shift(self):
        target = gen_gaussian_domain(3, 80, 6, seed=6)
        sources = [type(target)(f"s{i}", target.samples, target.labels, 3)
                   for i in range(3)]
        cfg_s = small_cfg(protocol="source_only", rounds=25, batch_size=64,
                          hidden_dims=(32,), feature_dim=16)
        cfg_o = small_cfg(protocol="oracle", rounds=25, batch_size=64,
                          hidden_dims=(32,), feature_dim=16)
        source_only = run_protocol(cfg_s, sources, target)
        oracle = run_protocol(cfg_o, [], target)
        assert abs(source_only.final_accuracy - oracle.final_accuracy) <= 0.02

    def test_oracle_requires_labels(self):
        target = gen_gaussian_domain(3, 24, 4, seed=7).strip_labels()
        with pytest.raises(DataError):
            run_protocol(small_cfg(protocol="oracle"), [], target)

    def test_dispatch(self):
        sources, target = small_suite(n_sources=2)
        for protocol in ("gala", "fact_idd", "source_only", "oracle"):
            cfg = small_cfg(protocol=protocol, rounds=1)
            result = run_protocol(cfg, sources, target)
            assert len(result.records) == 1


HOOK_KEYS = {"round", "weights", "similarities", "partition", "finetuned",
             "classifier", "extractor"}

# attributes of galasim.federation that the benchmark's tracer and sweep
# round timer wrap, plus full_pairwise's stage loss, which no benchmark
# workload runs; the engine must reach them through the module
WRAPPED = ("cross_entropy_grad", "sgd_step", "weighted_mean", "compute_centroids",
           "similarity_score", "mdmgb_plus", "group_normalize", "igd_loss", "idd_loss",
           "all_pairs_loss", "mixup", "evaluate_accuracy")


class TestRoundEngine:
    @pytest.mark.parametrize("protocol", federation.PROTOCOLS)
    def test_round_hook_runs_once_per_round_after_evaluation(self, protocol):
        sources, target = small_suite()
        cfg = small_cfg(protocol=protocol, rounds=3)
        events, seen = [], []
        real = federation.evaluate_accuracy

        def evaluate(*args):
            events.append("evaluate")
            return real(*args)

        def hook(info):
            events.append("hook")
            seen.append(info)

        with mock.patch.object(federation, "evaluate_accuracy", evaluate):
            result = run_protocol(cfg, sources, target, round_hook=hook)
        assert events == ["evaluate", "hook"] * 3
        _, eval_split = target.split(1.0 - cfg.eval_fraction, seed=cfg.seed)
        for t, (info, rec) in enumerate(zip(seen, result.records)):
            assert set(info) == HOOK_KEYS and info["round"] == t
            assert info["weights"].tobytes() == rec.weights.tobytes()
            assert info["partition"] == rec.partition
            assert (info["partition"] is None) == (protocol != "gala")
            weighted = protocol in ("gala", "full_pairwise")
            assert (info["similarities"] is None) == (not weighted)
            assert (info["finetuned"] is None) == (not weighted)
            if weighted:
                assert len(info["similarities"]) == len(info["finetuned"]) == 4
            # the hook sees the round's evaluated models
            assert evaluate_accuracy(info["extractor"], info["classifier"],
                                     eval_split) == rec.target_accuracy
        assert seen[-1]["extractor"].params.values.tobytes() == \
            result.extractor.params.values.tobytes()
        assert seen[-1]["classifier"].params.values.tobytes() == \
            result.classifier.params.values.tobytes()

    @pytest.mark.parametrize("protocol", federation.PROTOCOLS)
    def test_benchmark_wrapped_names_are_reached_through_the_module(self, protocol):
        sources, target = small_suite()
        cfg = small_cfg(protocol=protocol, rounds=3, mixup_alpha=0.4)
        calls = dict.fromkeys(WRAPPED, 0)

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        with processes(1), mock.patch.multiple(
                federation, **{name: counting(name, getattr(federation, name))
                               for name in WRAPPED}):
            run_protocol(cfg, sources, target)
        assert calls["evaluate_accuracy"] == cfg.rounds  # the sweep's round timer
        reached = {name for name, count in calls.items() if count}
        expected = {"cross_entropy_grad", "sgd_step", "mixup", "evaluate_accuracy",
                    "weighted_mean"}
        if protocol in ("gala", "full_pairwise"):
            expected |= {"compute_centroids", "similarity_score", "mdmgb_plus"}
        if protocol == "gala":
            expected.add("group_normalize")
        stage_loss = {"gala": "igd_loss", "fact_idd": "idd_loss", "full_pairwise": "all_pairs_loss"}
        if protocol in stage_loss:  # the target stage's batch loss
            expected.add(stage_loss[protocol])
        assert reached == expected


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

    @pytest.mark.parametrize("protocol", federation.PROTOCOLS)
    def test_bytes_match_the_traffic(self, protocol):
        # count the floats source clients receive and send, per round; the
        # oracle's target client is co-located with the server
        sources, target = small_suite()
        cfg = small_cfg(protocol=protocol, rounds=3)
        down, up = {}, {}  # by round: floats down, and per source {part: floats up}
        real_train, real_finetune = federation._SourceBlock.train, federation._SourceBlock.finetune

        def train(block, t, lr, extractor, classifier):
            centroids, trained, losses = real_train(block, t, lr, extractor, classifier)
            for k, i in enumerate(block.indices):
                if i != federation._TARGET_NODE:
                    down[t] = down.get(t, 0) + extractor.params.size + classifier.params.size
                    up.setdefault(t, {})[i] = {
                        "extractor": trained[k].size, "head": block.heads[k].params.size,
                        "centroids": centroids[k].centroids.size + centroids[k].mass.size
                        if centroids else 0}
            return centroids, trained, losses

        def finetune(block, t, lr, aggregated):
            heads = real_finetune(block, t, lr, aggregated)
            for i, head in zip(block.indices, heads):
                down[t] += aggregated.params.size
                up[t][i]["head"] = head.params.size
            return heads

        with processes(1), mock.patch.object(federation._SourceBlock, "train", train), \
                mock.patch.object(federation._SourceBlock, "finetune", finetune):
            result = run_protocol(cfg, sources, target)
        assert len(result.records) == cfg.rounds
        for r in result.records:
            sent = sum(sum(parts.values()) for parts in up.get(r.round_index, {}).values())
            assert (r.bytes_up, r.bytes_down) == (4 * sent, 4 * down.get(r.round_index, 0))


# _round_wall_model(cfg, [30, 45, 60], target_size, mac_g=192, mac_f=24,
# num_classes=3) at feature_dim 8, by (protocol, weighting, use_igd,
# local_epochs): (busiest node's ms with a 10-sample target, with a
# 200-sample target, server ms). The unequal sizes tell fact_idd's pair (the
# first two sizes) from all sources; the small target leaves a source busiest.
# The server scores similarities only after a centroid pass, so the uniform
# rows of gala and full_pairwise charge it no n * c * d.
WALL_TABLE = {
    ("gala", "mdmgb_plus", True, 1): (0.06912, 0.2064, 0.00072),
    ("gala", "mdmgb_plus", True, 2): (0.12384, 0.3648, 0.00072),
    ("gala", "mdmgb_plus", False, 1): (0.06912, 0.06912, 0.00072),
    ("gala", "mdmgb_plus", False, 2): (0.12384, 0.12384, 0.00072),
    ("gala", "uniform", True, 1): (0.05472, 0.1584, 0.000648),
    ("gala", "uniform", True, 2): (0.10944, 0.3168, 0.000648),
    ("gala", "uniform", False, 1): (0.05472, 0.05472, 0.000648),
    ("gala", "uniform", False, 2): (0.10944, 0.10944, 0.000648),
    ("fact_idd", "mdmgb_plus", True, 1): (0.02916, 0.144, 0.000432),
    ("fact_idd", "mdmgb_plus", True, 2): (0.05832, 0.288, 0.000432),
    ("fact_idd", "mdmgb_plus", False, 1): (0.02916, 0.144, 0.000432),
    ("fact_idd", "mdmgb_plus", False, 2): (0.05832, 0.288, 0.000432),
    ("fact_idd", "uniform", True, 1): (0.02916, 0.144, 0.000432),
    ("fact_idd", "uniform", True, 2): (0.05832, 0.288, 0.000432),
    ("fact_idd", "uniform", False, 1): (0.02916, 0.144, 0.000432),
    ("fact_idd", "uniform", False, 2): (0.05832, 0.288, 0.000432),
    ("full_pairwise", "mdmgb_plus", True, 1): (0.06912, 0.2496, 0.00072),
    ("full_pairwise", "mdmgb_plus", True, 2): (0.12384, 0.4512, 0.00072),
    ("full_pairwise", "mdmgb_plus", False, 1): (0.06912, 0.2496, 0.00072),
    ("full_pairwise", "mdmgb_plus", False, 2): (0.12384, 0.4512, 0.00072),
    ("full_pairwise", "uniform", True, 1): (0.05472, 0.2016, 0.000648),
    ("full_pairwise", "uniform", True, 2): (0.10944, 0.4032, 0.000648),
    ("full_pairwise", "uniform", False, 1): (0.05472, 0.2016, 0.000648),
    ("full_pairwise", "uniform", False, 2): (0.10944, 0.4032, 0.000648),
    ("source_only", "mdmgb_plus", True, 1): (0.03888, 0.03888, 0.000648),
    ("source_only", "mdmgb_plus", True, 2): (0.07776, 0.07776, 0.000648),
    ("source_only", "mdmgb_plus", False, 1): (0.03888, 0.03888, 0.000648),
    ("source_only", "mdmgb_plus", False, 2): (0.07776, 0.07776, 0.000648),
    ("source_only", "uniform", True, 1): (0.03888, 0.03888, 0.000648),
    ("source_only", "uniform", True, 2): (0.07776, 0.07776, 0.000648),
    ("source_only", "uniform", False, 1): (0.03888, 0.03888, 0.000648),
    ("source_only", "uniform", False, 2): (0.07776, 0.07776, 0.000648),
    ("oracle", "mdmgb_plus", True, 1): (0.00648, 0.1296, 0.0),
    ("oracle", "mdmgb_plus", True, 2): (0.01296, 0.2592, 0.0),
    ("oracle", "mdmgb_plus", False, 1): (0.00648, 0.1296, 0.0),
    ("oracle", "mdmgb_plus", False, 2): (0.01296, 0.2592, 0.0),
    ("oracle", "uniform", True, 1): (0.00648, 0.1296, 0.0),
    ("oracle", "uniform", True, 2): (0.01296, 0.2592, 0.0),
    ("oracle", "uniform", False, 1): (0.00648, 0.1296, 0.0),
    ("oracle", "uniform", False, 2): (0.01296, 0.2592, 0.0),
}


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

    @pytest.mark.parametrize("key", WALL_TABLE)
    def test_unequal_source_sizes(self, key):
        protocol, weighting, use_igd, local_epochs = key
        cfg = ProtocolConfig(protocol=protocol, weighting=weighting, use_igd=use_igd,
                             local_epochs=local_epochs, feature_dim=8)
        small, large, server = WALL_TABLE[key]
        wall = federation._round_wall_model
        assert wall(cfg, [30, 45, 60], 10, 192, 24, 3) == (small, server)
        assert wall(cfg, [30, 45, 60], 200, 192, 24, 3) == (large, server)


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

    def test_row_i_is_an_oracle_run_on_domain_i(self):
        domains = [gen_gaussian_domain(3, 16, 4, seed=s, name=f"d{s}") for s in range(3)]
        cfg = small_cfg(protocol="gala", rounds=3)
        matrix = similarity_matrix(domains, cfg)
        for i, trained_on in enumerate(domains):
            run = run_protocol(dataclasses.replace(cfg, protocol="oracle"), [], trained_on)
            for j, d in enumerate(domains):
                test = d.split(1.0 - cfg.eval_fraction, seed=cfg.seed)[1]
                assert matrix[i, j] == evaluate_accuracy(run.extractor, run.classifier, test)
            assert matrix[i, i] == run.final_accuracy

    def test_a_numeric_failure_names_the_domain_and_round(self):
        domains = [gen_gaussian_domain(3, 16, 4, seed=s, name=f"d{s}") for s in range(2)]
        with pytest.raises(NumericError) as info, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            similarity_matrix(domains, small_cfg(lr0=1e12, batch_size=16))
        assert (info.value.round_index, info.value.client) == (0, "d0")
