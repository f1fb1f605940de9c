"""The all-pairs disagreement loss and full_pairwise's step on it."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galasim import (
    Classifier,
    FeatureExtractor,
    ParamVec,
    ProtocolConfig,
    all_pairs_loss,
    idd_loss,
    run_protocol,
)
from test_acceptance import suite_12_sources

# all_pairs_loss sums the same per-pair terms as a loop over idd_loss, in
# another order; both are compared with the loop's sum within this relative
# tolerance (seen up to about 2e-15)
RTOL = 1e-12


def random_model(rng, d, num_classes, n_heads):
    ext = FeatureExtractor.init(4, (5,), d, rng)
    ext = ext.with_params(ParamVec(rng.uniform(-0.8, 0.8, ext.params.size),
                                   ext.params.shape_spec))
    spec = Classifier.shape_spec(d, num_classes)
    heads = [Classifier(d, num_classes, ParamVec(rng.uniform(-1.5, 1.5, num_classes * (d + 1)),
                                                 spec))
             for _ in range(n_heads)]
    return ext, heads


def pair_loop(ext, heads, x):
    """The loss, the gradient and the elementwise sum of |pair gradient|, pair by pair."""
    loss, grad, size = 0.0, np.zeros(ext.params.size), np.zeros(ext.params.size)
    for head_i, head_j in itertools.combinations(heads, 2):
        pair_loss, pair_grad = idd_loss(ext, head_i, head_j, x)
        loss += pair_loss
        grad += pair_grad.values
        size += np.abs(pair_grad.values)
    return loss, grad, size


@st.composite
def pairwise_case(draw):
    n, d = draw(st.integers(2, 8)), draw(st.integers(1, 5))
    num_classes, batch = draw(st.integers(2, 4)), draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    ext, heads = random_model(rng, d, num_classes, n)
    # head k may copy an earlier head, so that some pair differences are exactly 0
    for k in range(1, n):
        source = draw(st.one_of(st.none(), st.integers(0, k - 1)))
        if source is not None:
            heads[k] = heads[source]
    return ext, heads, rng.standard_normal((batch, 4))


class TestAllPairsLoss:
    @settings(max_examples=60, deadline=None)
    @given(pairwise_case())
    def test_equals_the_sum_of_pair_losses_and_gradients(self, case):
        ext, heads, x = case
        loss, grad = all_pairs_loss(ext, heads, x)
        want_loss, want_grad, size = pair_loop(ext, heads, x)
        assert abs(loss - want_loss) <= RTOL * want_loss
        assert np.all(np.abs(grad.values - want_grad) <= RTOL * size.max())
        assert abs(all_pairs_loss(ext, heads, x)[0] - want_loss) <= 1e-9
        assert all_pairs_loss(ext, heads, x)[0] == loss

    def test_identical_heads_give_zero_loss_and_zero_gradient(self):
        rng = np.random.default_rng(7)
        ext, (head,) = random_model(rng, 3, 3, 1)
        loss, grad = all_pairs_loss(ext, [head] * 5, rng.standard_normal((6, 4)))
        assert loss == 0.0
        assert not grad.values.any()

    def test_needs_two_heads(self):
        rng = np.random.default_rng(8)
        ext, heads = random_model(rng, 3, 3, 1)
        with pytest.raises(ValueError, match="at least 2 classifiers"):
            all_pairs_loss(ext, heads, rng.standard_normal((2, 4)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_pairwise_converges_on_twelve_sources(seed):
    # a step on the sum of the 66 pair losses ended at 0.35, 0.50 and 0.31
    sources, target = suite_12_sources()
    cfg = ProtocolConfig(protocol="full_pairwise", rounds=24, batch_size=128, lr0=0.05,
                         seed=seed, tau=3.0)
    result = run_protocol(cfg, sources, target)
    assert result.final_accuracy >= 0.9
    # the records hold the mean pair loss, which lies in [0, 2]
    assert all(0.0 <= r.igd_loss <= 2.0 for r in result.records)
