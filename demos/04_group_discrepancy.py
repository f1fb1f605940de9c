#!/usr/bin/env python3
"""The disagreement objectives, side by side.

Compares the all-pairs loss (quadratically many terms), the single random
pair, and the two-group loss on the same target batch; then runs the
adversarial extractor update and watches the group disagreement shrink.
"""

import numpy as np

from galasim import (
    Classifier,
    FeatureExtractor,
    GroupClassifier,
    OptimizerState,
    enumerate_partitions,
    full_pairwise_loss,
    gen_gaussian_domain,
    group_normalize,
    idd_loss,
    igd_loss,
    mdmgb_plus,
    random_partition,
    sgd_step,
)

rng = np.random.default_rng(1)
N = 6
extractor = FeatureExtractor.init(8, (64,), 32, rng)
# six classifier heads that disagree: independent random inits
heads = [Classifier.init(32, 4, np.random.default_rng(100 + i)) for i in range(N)]
target = gen_gaussian_domain(4, 100, 8, seed=9).strip_labels()
batch = target.samples[:128].astype(np.float64)

full = full_pairwise_loss(extractor, heads, batch)
print(f"all-pairs loss over {N * (N - 1) // 2} pairs: {full:.4f} "
      f"(terms grow quadratically with sources; one stacked pass computes them)")

pair_loss, _ = idd_loss(extractor, heads[0], heads[1], batch)
print(f"one random pair (0,1): {pair_loss:.4f} (cheap but high variance)")

weights = mdmgb_plus(rng.uniform(1.0, 3.0, size=N), tau=1.0)
part = random_partition(N, seed=3)
w_tilde = group_normalize(weights, part)
gc1 = GroupClassifier([(i, heads[i]) for i in part.g1], w_tilde[list(part.g1)])
gc2 = GroupClassifier([(i, heads[i]) for i in part.g2], w_tilde[list(part.g2)])
group_loss, grad = igd_loss(extractor, gc1, gc2, batch)
print(f"two-group loss, partition {part.g1} vs {part.g2}: {group_loss:.4f} "
      f"(one comparison per round, variance-reduced by averaging)")

# averaging over every (3,3) split shows what the random partition estimates
values = []
for p in enumerate_partitions(N):
    w_t = group_normalize(weights, p)
    g1 = GroupClassifier([(i, heads[i]) for i in p.g1], w_t[list(p.g1)])
    g2 = GroupClassifier([(i, heads[i]) for i in p.g2], w_t[list(p.g2)])
    values.append(igd_loss(extractor, g1, g2, batch)[0])
print(f"expected group loss over all {len(values)} splits: {np.mean(values):.4f} "
      f"(min {min(values):.4f}, max {max(values):.4f})")

# the adversarial update pushes the extractor toward group agreement
print("\nminimizing the group loss over the target set (5 epochs):")
opt = OptimizerState.for_params(extractor.params, momentum=0.9)
current = extractor
data = target.samples.astype(np.float64)
for epoch in range(5):
    order = np.random.default_rng(epoch).permutation(len(data))
    losses = []
    for start in range(0, len(data), 128):
        loss, grad = igd_loss(current, gc1, gc2, data[order[start:start + 128]])
        losses.append(loss)
        current = current.with_params(sgd_step(current.params, grad, opt, 0.05))
    print(f"  epoch {epoch}: mean loss {np.mean(losses):.4f}")
final, _ = igd_loss(current, gc1, gc2, batch)
print(f"group loss on the probe batch: {group_loss:.4f} -> {final:.4f}")
