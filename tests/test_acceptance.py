"""Acceptance suite.

One test per criterion, run in order; each prints a PASS/FAIL line (use
``pytest tests/test_acceptance.py -v -s`` to see them live). Tolerances are
stated inline; the statistical criteria (5-7) use frozen synthetic suites
whose distractor domains are deliberately misaligned by near-orthogonal
rotations plus heavy label noise.
"""

import time

import numpy as np

from galasim import (
    Classifier,
    FeatureExtractor,
    GroupClassifier,
    ParamVec,
    ProtocolConfig,
    TransformSpec,
    all_pairs_loss,
    apply_background_overlay,
    apply_channel_stack,
    apply_scale_recenter,
    away_from_kinks,
    enumerate_partitions,
    gen_gaussian_domain,
    gen_glyph_domain,
    grad_check,
    group_normalize,
    idd_loss,
    igd_loss,
    load_dataset,
    mdmgb_plus,
    parse_config,
    random_partition,
    run_experiment,
    run_protocol,
    save_dataset,
    weighted_mean,
)
from galasim import experiment
from galasim.nn import finite_difference_grad, relative_grad_error


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print("\n" + line)
    assert ok, line


def random_params(rng, template):
    return ParamVec(rng.uniform(-0.8, 0.8, template.size), template.shape_spec)


def random_model(rng, input_dim=4, hidden=(5,), d=3, num_classes=3):
    ext = FeatureExtractor.init(input_dim, hidden, d, rng)
    clf = Classifier.init(d, num_classes, rng)
    return (ext.with_params(random_params(rng, ext.params)),
            clf.with_params(random_params(rng, clf.params)))


# ---------------------------------------------------------------------------
# statistical suites (frozen)


def suite_6_sources():
    """Six Gaussian sources (three aligned, three near-orthogonal rotations)
    plus a mildly shifted target; d=8, C=4, 200 samples per class."""
    C, K, D = 4, 200, 8
    sources = []
    for i in range(3):
        sources.append(gen_gaussian_domain(
            C, K, D, seed=10 + i, name=f"good{i}",
            shift=(TransformSpec("rotate", {"angle": 0.1 * i}),
                   TransformSpec("mean_shift", {"magnitude": 0.3}, seed=20 + i))))
    for i in range(3):
        sources.append(gen_gaussian_domain(
            C, K, D, seed=30 + i, name=f"bad{i}",
            shift=(TransformSpec("rotate", {"angle": np.pi / 2 + 0.15 * i}),)))
    target = gen_gaussian_domain(
        C, K, D, seed=99, name="target",
        shift=(TransformSpec("rotate", {"angle": 0.15}),
               TransformSpec("mean_shift", {"magnitude": 0.5}, seed=50)))
    return sources, target


N_DISTRACT = 5


def suite_12_sources():
    """Twelve diverse sources, the last five being distractors (rotation by
    ~pi/2 or more, large mean shift, 50% label noise), plus a shifted target."""
    C, K, D = 4, 150, 8
    sources = []
    for i in range(12 - N_DISTRACT):
        chain = [TransformSpec("rotate", {"angle": 0.04 * i}),
                 TransformSpec("mean_shift", {"magnitude": 0.2 + 0.1 * (i % 4)},
                               seed=20 + i)]
        if i % 3 == 2:
            chain.append(TransformSpec("label_noise", {"fraction": 0.05}, seed=60 + i))
        sources.append(gen_gaussian_domain(C, K, D, seed=10 + i, name=f"src{i}",
                                           shift=tuple(chain)))
    for i in range(N_DISTRACT):
        sources.append(gen_gaussian_domain(
            C, K, D, seed=30 + i, name=f"distractor{i}",
            shift=(TransformSpec("rotate", {"angle": np.pi / 2 + 0.3 * i}),
                   TransformSpec("mean_shift", {"magnitude": 2.5}, seed=70 + i),
                   TransformSpec("label_noise", {"fraction": 0.5}, seed=40 + i))))
    target = gen_gaussian_domain(
        C, K, D, seed=99, name="target",
        shift=(TransformSpec("rotate", {"angle": 0.2}),
               TransformSpec("mean_shift", {"magnitude": 0.8}, seed=50)))
    return sources, target


def final_accuracies(protocol, weighting, sources, target, seeds, rounds, tau):
    out = []
    for s in range(seeds):
        cfg = ProtocolConfig(protocol=protocol, weighting=weighting, rounds=rounds,
                             batch_size=128, lr0=0.05, seed=s, tau=tau)
        out.append(run_protocol(cfg, sources, target).final_accuracy)
    return np.asarray(out)


# ---------------------------------------------------------------------------
# criteria


def test_01_algebraic_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    spec = Classifier.shape_spec(6, 4)
    worst_merge = 0.0
    worst_shift = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 10))
        s = rng.uniform(-3, 3, size=n)
        tau = float(rng.uniform(0.05, 4.0))
        part = random_partition(n, seed=int(rng.integers(1 << 31)))
        w = mdmgb_plus(s, tau)
        w_tilde = group_normalize(w, part)
        params = [ParamVec(rng.standard_normal(28), spec) for _ in range(n)]
        # group-then-merge path
        merged_groups = []
        group_masses = []
        for g in (part.g1, part.g2):
            idx = list(g)
            merged_groups.append(weighted_mean([params[i] for i in idx], w_tilde[idx]))
            group_masses.append(float(w[idx].sum()))
        via_groups = weighted_mean(merged_groups, group_masses)
        direct = weighted_mean(params, w)
        worst_merge = max(worst_merge, np.abs(via_groups.values - direct.values).max())
        # shift invariance of the temperature weights
        shift = float(rng.uniform(-50, 50))
        worst_shift = max(worst_shift, np.abs(mdmgb_plus(s + shift, tau) - w).max())
    elapsed = time.perf_counter() - start
    ok = worst_merge <= 1e-9 and worst_shift <= 1e-9 and elapsed < 5.0
    report(1, ok, f"merge identity {worst_merge:.2e} <= 1e-9, "
                  f"shift invariance {worst_shift:.2e} <= 1e-9, {elapsed:.2f}s < 5s")


def test_02_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_ce = 0.0
    for _ in range(20):
        ext, clf = random_model(rng)
        x = rng.standard_normal((4, 4))
        y = rng.integers(0, 3, size=4)
        worst_ce = max(worst_ce, grad_check(ext, clf, x, y, epsilon=1e-5))

    worst_igd = 0.0
    checked = 0
    while checked < 20:
        ext, _ = random_model(rng)
        members = [random_model(rng)[1] for _ in range(4)]
        gc1 = GroupClassifier([members[0], members[1]], np.array([0.5, 0.5]))
        gc2 = GroupClassifier([members[2], members[3]], np.array([0.4, 0.6]))
        x = rng.standard_normal((3, 4))
        if not away_from_kinks(ext, gc1, gc2, x):
            continue  # resample away from L1 and ReLU kinks
        _, analytic = igd_loss(ext, gc1, gc2, x)
        numeric = finite_difference_grad(
            lambda pv: igd_loss(ext.with_params(pv), gc1, gc2, x)[0],
            ext.params, 1e-5)
        worst_igd = max(worst_igd, relative_grad_error(analytic, numeric))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst_ce < 1e-4 and worst_igd < 1e-4 and elapsed < 30.0
    report(2, ok, f"cross-entropy {worst_ce:.2e} < 1e-4, group loss {worst_igd:.2e} "
                  f"< 1e-4 over 20 trials each, {elapsed:.1f}s < 30s")


def test_03_small_instance_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    ext, _ = random_model(rng)
    members = [random_model(rng)[1] for _ in range(4)]
    x = rng.standard_normal((6, 4))

    total = all_pairs_loss(ext, members, x)[0]
    manual = sum(idd_loss(ext, members[i], members[j], x)[0]
                 for i in range(4) for j in range(i + 1, 4))
    pairwise_err = abs(total - manual)

    # expected group loss over all three (2,2) splits vs straight-line oracle
    via_library = []
    for part in enumerate_partitions(4):
        gc1 = GroupClassifier([members[i] for i in part.g1], np.array([0.5, 0.5]))
        gc2 = GroupClassifier([members[i] for i in part.g2], np.array([0.5, 0.5]))
        via_library.append(igd_loss(ext, gc1, gc2, x)[0])
    feats = ext.forward(x)
    probs = [m.forward(feats) for m in members]
    oracle_vals = []
    for g1, g2 in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        p1 = 0.5 * (probs[g1[0]] + probs[g1[1]])
        p2 = 0.5 * (probs[g2[0]] + probs[g2[1]])
        oracle_vals.append(np.abs(p1 - p2).sum(axis=1).mean())
    enum_err = abs(float(np.mean(via_library)) - float(np.mean(oracle_vals)))

    counts = {}
    for seed in range(10_000):
        p = random_partition(4, seed=seed)
        key = frozenset((p.g1, p.g2))
        counts[key] = counts.get(key, 0) + 1
    freq_dev = max(abs(c / 10_000 - 1 / 3) for c in counts.values())

    elapsed = time.perf_counter() - start
    ok = (pairwise_err <= 1e-9 and enum_err <= 1e-12
          and len(counts) == 3 and freq_dev < 0.02 and elapsed < 60.0)
    report(3, ok, f"pairwise sum {pairwise_err:.2e} <= 1e-9, partition enumeration "
                  f"{enum_err:.2e} <= 1e-12, split frequency dev {freq_dev:.3f} < 0.02, "
                  f"{elapsed:.1f}s < 60s")


def test_04_softmax_limit_suite():
    rng = np.random.default_rng(404)
    low_tau_dev = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 12))
        s = rng.uniform(-5, 5, size=n)
        w = mdmgb_plus(s, tau=1e-6)
        low_tau_dev = max(low_tau_dev, np.abs(w - 1.0 / n).max())

    w_sat = mdmgb_plus(rng.uniform(-2, 2, size=8) + np.array([3, 0, 0, 0, 0, 0, 0, 0]),
                       tau=100.0)
    # distinct scores at tau=100: the argmax takes essentially all mass
    s_dist = np.array([2.0, 1.0, 0.5, -1.0])
    w_dist = mdmgb_plus(s_dist, tau=100.0)
    saturated = w_dist[0] > 1.0 - 1e-10

    monotone = True
    for _ in range(100):
        s = rng.uniform(-4, 4, size=6)
        tau = float(rng.uniform(0.05, 5.0))
        w = mdmgb_plus(s, tau)
        order = np.argsort(s)
        monotone &= bool(np.all(np.diff(w[order]) > 0))

    ok = low_tau_dev <= 1e-4 and saturated and monotone and np.isfinite(w_sat).all()
    report(4, ok, f"tau->0 deviation {low_tau_dev:.2e} <= 1e-4, tau=100 argmax "
                  f"weight {w_dist[0]:.12f} > 1-1e-10, monotone on 100 vectors")


def test_05_adaptation_ordering():
    start = time.perf_counter()
    sources, target = suite_6_sources()
    seeds, rounds, tau = 5, 20, 1.0
    oracle = final_accuracies("oracle", "mdmgb_plus", sources, target, seeds, rounds, tau)
    gala = final_accuracies("gala", "mdmgb_plus", sources, target, seeds, rounds, tau)
    source_only = final_accuracies("source_only", "mdmgb_plus", sources, target,
                                   seeds, rounds, tau)
    elapsed = time.perf_counter() - start
    gap = (gala.mean() - source_only.mean()) * 100
    ok = (oracle.mean() >= gala.mean() >= source_only.mean()
          and gap >= 3.0 and elapsed < 600.0 * seeds * 3)
    report(5, ok, f"oracle {oracle.mean():.3f} >= gala {gala.mean():.3f} >= "
                  f"source-only {source_only.mean():.3f}; gap {gap:.1f} >= 3 points; "
                  f"{elapsed:.0f}s")


def test_06_stability_at_scale():
    start = time.perf_counter()
    sources, target = suite_12_sources()
    seeds, rounds, tau = 5, 24, 3.0
    gala = final_accuracies("gala", "mdmgb_plus", sources, target, seeds, rounds, tau)
    fact = final_accuracies("fact_idd", "mdmgb_plus", sources, target, seeds, rounds, tau)
    elapsed = time.perf_counter() - start
    ok = (gala.std() < fact.std() and gala.mean() > fact.mean()
          and elapsed < 1800.0)
    report(6, ok, f"gala std {gala.std():.4f} < fact std {fact.std():.4f}; "
                  f"gala mean {gala.mean():.3f} > fact mean {fact.mean():.3f}; "
                  f"{elapsed:.0f}s < 1800s")


def test_07_weighting_claim():
    start = time.perf_counter()
    sources, target = suite_12_sources()
    seeds, rounds, tau = 5, 24, 3.0
    n = len(sources)
    plus = final_accuracies("gala", "mdmgb_plus", sources, target, seeds, rounds, tau)
    uniform = final_accuracies("gala", "uniform", sources, target, seeds, rounds, tau)

    distractor_weights = []
    for s in range(seeds):
        cfg = ProtocolConfig(protocol="gala", rounds=rounds, batch_size=128,
                             lr0=0.05, seed=s, tau=tau)
        rec = run_protocol(cfg, sources, target).records[rounds // 2]
        distractor_weights.append(rec.weights[-N_DISTRACT:].mean())
    mean_dw = float(np.mean(distractor_weights))
    elapsed = time.perf_counter() - start
    ok = plus.mean() >= uniform.mean() and mean_dw < 1.0 / (2 * n)
    report(7, ok, f"weighted {plus.mean():.3f} >= uniform {uniform.mean():.3f}; "
                  f"mean distractor weight at T/2 {mean_dw:.4f} < {1/(2*n):.4f} "
                  f"(half of uniform); {elapsed:.0f}s")


def test_08_scaling_accounting():
    start = time.perf_counter()
    walls = []
    byte_checks = True
    for n in (4, 8, 16):
        sources = [gen_gaussian_domain(4, 25, 8, seed=i, name=f"s{i}") for i in range(n)]
        target = gen_gaussian_domain(
            4, 150, 8, seed=99,
            shift=TransformSpec("mean_shift", {"magnitude": 0.5}, seed=1))
        cfg = ProtocolConfig(protocol="gala", rounds=4, batch_size=128, lr0=0.05,
                             seed=0, tau=1.0)
        result = run_protocol(cfg, sources, target)
        walls.append(np.mean([r.wall_max_client_ms for r in result.records]))
        g = result.extractor.params.size
        f = result.classifier.params.size
        expect_up = 4 * n * (g + f + 4 * 32 + 4)
        byte_checks &= result.records[0].bytes_up == expect_up
        cfg_f = ProtocolConfig(protocol="fact_idd", rounds=1, batch_size=128,
                               lr0=0.05, seed=0)
        fact = run_protocol(cfg_f, sources, target)
        byte_checks &= fact.records[0].bytes_up == 4 * 2 * (g + f)

    ns = np.array([4.0, 8.0, 16.0])
    ys = np.array(walls)
    slope, intercept = np.polyfit(ns, ys, 1)
    pred = slope * ns + intercept
    r2 = 1.0 - ((ys - pred) ** 2).sum() / ((ys - ys.mean()) ** 2).sum()
    elapsed = time.perf_counter() - start
    ok = r2 > 0.9 and slope > 0 and byte_checks
    report(8, ok, f"client wall vs N linear fit R^2={r2:.4f} > 0.9 (slope "
                  f"{slope:.4f} ms/source); byte closed forms exact; {elapsed:.0f}s")


def test_09_transform_suite():
    start = time.perf_counter()
    d = gen_glyph_domain(4, 10, 12, seed=3)

    inner = 8
    rescaled = apply_scale_recenter(d, inner)
    ring = (12 - inner) // 2
    imgs = rescaled.rasters()
    border_zero = (np.all(imgs[:, :, :ring, :] == 0) and np.all(imgs[:, :, -ring:, :] == 0)
                   and np.all(imgs[:, :, :, :ring] == 0) and np.all(imgs[:, :, :, -ring:] == 0))

    px = 2
    stacked = apply_channel_stack(d, px)
    simgs = stacked.rasters()
    base = d.rasters()[:, 0]
    translation = (np.array_equal(simgs[:, 1], base)
                   and np.array_equal(simgs[:, 0, :, px:], base[:, :, :-px])
                   and np.array_equal(simgs[:, 2, :, :-px], base[:, :, px:]))

    amp = 0.05
    overlaid = apply_background_overlay(d, amp, seed=4)
    overlay_limit = np.abs(overlaid.samples - d.samples).max() <= amp + 1e-6

    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "round.gdsd")
        save_dataset(d, path)
        round_trip = load_dataset(path) == d

    elapsed = time.perf_counter() - start
    ok = border_zero and translation and overlay_limit and round_trip and elapsed < 5.0
    report(9, ok, f"border-zero {border_zero}, channel translation {translation}, "
                  f"overlay limit {overlay_limit}, file round-trip {round_trip}, "
                  f"{elapsed:.2f}s < 5s")


def test_10_determinism(tmp_path, monkeypatch):
    config = """
[experiment]
name = determinism
target = t0
output_dir = {out}
num_seeds = 2

[protocol]
protocol = gala
rounds = 3
batch_size = 64
lr0 = 0.05
hidden_dims = 32
feature_dim = 16
seed = 5

[sweep]
tau = 0.5, 2.0

[domain t0]
generator = gaussian
num_classes = 3
samples_per_class = 40
input_dim = 6
seed = 100
transforms = mean_shift(magnitude=1.0, seed=7)

[domain s0]
generator = gaussian
num_classes = 3
samples_per_class = 30
input_dim = 6
seed = 0

[domain s1]
generator = gaussian
num_classes = 3
samples_per_class = 30
input_dim = 6
seed = 1
transforms = rotate(angle=0.4)

[domain s2]
generator = gaussian
num_classes = 3
samples_per_class = 30
input_dim = 6
seed = 2
"""
    # the process budget, set so that run b forks whatever the host's BLAS variables
    monkeypatch.setattr(experiment, "_processes", lambda: 4)
    outputs = {}
    for run_id, parallel in (("a", 1), ("b", 4)):
        cfg_path = tmp_path / f"exp_{run_id}.ini"
        cfg_path.write_text(config.format(out=tmp_path / f"out_{run_id}"))
        spec = parse_config(cfg_path)
        code = run_experiment(spec, parallel=parallel)
        assert code == 0
        outputs[run_id] = {
            p.name: p.read_bytes()
            for p in sorted((tmp_path / f"out_{run_id}" / "runs").glob("*.csv"))}
        outputs[run_id]["summary"] = (tmp_path / f"out_{run_id}" / "summary.csv").read_bytes()
    identical = outputs["a"] == outputs["b"]
    report(10, identical and len(outputs["a"]) == 5,
           f"serial and max-parallel reruns bit-identical over "
           f"{len(outputs['a']) - 1} run CSVs + summary: {identical}")
