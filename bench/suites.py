"""Frozen inputs of the three benchmark workloads.

The Gaussian suite is a copy of the 12-source acceptance suite, kept here so
that the benchmark's inputs do not change when the tests do. The glyph sweep
is an INI suite run through the experiment runner.
"""

from __future__ import annotations

import numpy as np

from galasim import TransformSpec, domains

N_DISTRACT = 5


def suite_12_sources():
    """Twelve Gaussian sources (d=8, C=4, 150 samples per class), the last
    five distractors, plus a shifted target."""
    C, K, D = 4, 150, 8
    sources = []
    for i in range(12 - N_DISTRACT):
        chain = [TransformSpec("rotate", {"angle": 0.04 * i}),
                 TransformSpec("mean_shift", {"magnitude": 0.2 + 0.1 * (i % 4)},
                               seed=20 + i)]
        if i % 3 == 2:
            chain.append(TransformSpec("label_noise", {"fraction": 0.05}, seed=60 + i))
        sources.append(domains.gen_gaussian_domain(C, K, D, seed=10 + i, name=f"src{i}",
                                                   shift=tuple(chain)))
    for i in range(N_DISTRACT):
        sources.append(domains.gen_gaussian_domain(
            C, K, D, seed=30 + i, name=f"distractor{i}",
            shift=(TransformSpec("rotate", {"angle": np.pi / 2 + 0.3 * i}),
                   TransformSpec("mean_shift", {"magnitude": 2.5}, seed=70 + i),
                   TransformSpec("label_noise", {"fraction": 0.5}, seed=40 + i))))
    target = domains.gen_gaussian_domain(
        C, K, D, seed=99, name="target",
        shift=(TransformSpec("rotate", {"angle": 0.2}),
               TransformSpec("mean_shift", {"magnitude": 0.8}, seed=50)))
    return sources, target


GLYPH_CONFIG = """\
[experiment]
name = glyph_sweep
target = t0
output_dir = {out}
num_seeds = 2

[protocol]
rounds = 20
batch_size = 64
lr0 = 0.05
tau = 3.0
mixup_alpha = 0.2
hidden_dims = 64
feature_dim = 32
seed = {seed}

[sweep]
protocol = source_only, fact_idd, gala

[domain t0]
generator = glyph
num_classes = 6
samples_per_class = 60
canvas = 16
channels = 1
seed = 100
transforms = background_overlay(noise_amplitude=0.3, seed=1); channel_stack(shift_px=1)

[domain s0]
generator = glyph
num_classes = 6
samples_per_class = 60
canvas = 16
channels = 3
seed = 0

[domain s1]
generator = glyph
num_classes = 6
samples_per_class = 60
canvas = 16
channels = 3
seed = 1
transforms = background_overlay(noise_amplitude=0.2, seed=2)

[domain s2]
generator = glyph
num_classes = 6
samples_per_class = 60
canvas = 16
channels = 1
seed = 2
transforms = scale_recenter(inner=12); channel_stack(shift_px=1)

[domain s3]
generator = glyph
num_classes = 6
samples_per_class = 60
canvas = 16
channels = 1
seed = 3
transforms = channel_stack(shift_px=2)

[domain s4]
generator = glyph
num_classes = 6
samples_per_class = 60
canvas = 16
channels = 3
seed = 4
transforms = label_noise(fraction=0.3, seed=5)
"""
