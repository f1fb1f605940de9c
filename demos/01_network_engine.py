#!/usr/bin/env python3
"""Tour of the dense network engine.

Builds the default MLP extractor + linear-softmax classifier, checks the
analytic gradients against central finite differences, and walks the SGD
update and the step learning-rate schedule.
"""

import numpy as np

from galasim import (
    Classifier,
    FeatureExtractor,
    OptimizerState,
    ParamVec,
    cross_entropy_grad,
    grad_check,
    lr_schedule,
    sgd_step,
)

rng = np.random.default_rng(7)

# --- a model: 8 -> 64 -> 32 features, 4-way classifier --------------------
extractor = FeatureExtractor.init(8, (64,), 32, rng)
classifier = Classifier.init(32, 4, rng)
print(f"extractor parameters: {extractor.params.size}")
print(f"classifier parameters: {classifier.params.size}")

x = rng.standard_normal(8)
probs = classifier.forward(extractor.forward(x))
print(f"\nsingle input -> probabilities {np.round(probs, 4)} (sum {probs.sum():.12f})")

# --- cross-entropy and its exact gradients ---------------------------------
batch = rng.standard_normal((16, 8))
labels = rng.integers(0, 4, size=16)
loss, grad_g, grad_f = cross_entropy_grad(extractor, classifier, batch, labels)
print(f"\nbatch loss {loss:.4f}")
print(f"gradient norms: extractor {np.linalg.norm(grad_g.values):.4f}, "
      f"classifier {np.linalg.norm(grad_f.values):.4f}")

# finite differences agree to ~1e-7 on a small model (kept small because the
# checker perturbs every coordinate twice)
small_e = FeatureExtractor.init(5, (6,), 4, rng)
small_c = Classifier.init(4, 3, rng)
small_e = small_e.with_params(ParamVec(rng.uniform(-0.8, 0.8, small_e.params.size),
                                       small_e.params.shape_spec))
err = grad_check(small_e, small_c, rng.standard_normal((4, 5)),
                 rng.integers(0, 3, size=4))
print(f"gradient check, max relative error: {err:.2e}")

# --- one optimizer trajectory ----------------------------------------------
params = ParamVec(np.array([1.0, -2.0]), (("w", (2,)),))
grad = ParamVec(np.array([0.5, -0.5]), (("w", (2,)),))
state = OptimizerState.for_params(params, momentum=0.9)
print("\nSGD with momentum 0.9 on a toy vector:")
for step in range(4):
    params = sgd_step(params, grad, state, lr=0.1)
    print(f"  step {step}: params {np.round(params.values, 4)} "
          f"(buffer {np.round(state.momentum_buffer.values, 4)})")

# --- the schedule decays by gamma every 100 rounds --------------------------
print("\nlearning-rate schedule (lr0=0.01, gamma=0.75):")
for t in (0, 50, 100, 250, 400):
    print(f"  round {t:3d}: lr = {lr_schedule(0.01, t, 0.75):.6f}")
