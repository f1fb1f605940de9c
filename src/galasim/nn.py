"""Minimal dense neural-network engine.

Flat parameter vectors, an MLP feature extractor with ReLU, a linear-softmax
classifier, analytic gradients via manual backpropagation, SGD with momentum
and weight decay, a step learning-rate schedule, and a central finite
difference gradient checker.

Everything here is a pure function over value types. The math follows the
dtype it is given, one fixed rule, not an option: parameters stay float32 or
float64 as given; the layers, the softmax and the cross-entropy compute in
the result type of their parameters and inputs (a float32 extractor on
float32 batches runs in float32, a float64 head widens float32 features);
backprop computes in its activations' dtype; weighted_mean sums in float64
and rounds once to its inputs' dtype; soft targets are float64. The model
math also takes a leading client axis: a ParamStack holds one
parameter row per client, and the layers then map (N, batch, dim) to
(N, batch, dim') with each client's slice computed as the one-model
operation would compute it, bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError

ShapeSpec = tuple[tuple[str, tuple[int, ...]], ...]


@functools.lru_cache(maxsize=128)
def _layout(shape_spec: ShapeSpec) -> tuple[int, tuple[tuple[str, int, int, tuple[int, ...]], ...]]:
    """Total size of a shape_spec and its (name, start, stop, dims) blocks."""
    blocks = []
    offset = 0
    for name, dims in shape_spec:
        size = math.prod(dims)
        blocks.append((name, offset, offset + size, dims))
        offset += size
    return offset, tuple(blocks)


@dataclass
class _FlatParams:
    """Parameters flattened along the last axis of `values` under shape_spec."""

    values: np.ndarray
    shape_spec: ShapeSpec

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype != np.float32:  # float32 stays, anything else is float64
            values = values.astype(np.float64, copy=False)
        self.values = values
        if self.values.ndim != self.NDIM:
            raise ValueError(f"{type(self).__name__} values must be {self.NDIM}-D, "
                             f"got {self.values.ndim}-D")
        total = _layout(self.shape_spec)[0]
        if self.values.shape[-1] != total:
            raise ValueError(f"{type(self).__name__} row length {self.values.shape[-1]} "
                             f"does not match shape_spec total {total}")

    def zeros_like(self):
        return type(self)(np.zeros_like(self.values), self.shape_spec)

    def unpack(self) -> dict[str, np.ndarray]:
        """Views of each layer block, reshaped behind any leading axes;
        mutating them mutates the parameters."""
        values = self.values
        lead = values.shape[:-1]
        return {name: values[..., start:stop].reshape(lead + dims)
                for name, start, stop, dims in _layout(self.shape_spec)[1]}

    def _check_compatible(self, other: "_FlatParams") -> None:
        if self.shape_spec != other.shape_spec or self.values.shape != other.values.shape:
            raise ValueError("parameter shape_specs differ; not combinable")


@dataclass
class ParamVec(_FlatParams):
    """Flat parameter vector plus the layer layout it flattens.

    `unpack` exposes per-layer views into the flat buffer (no copies); the
    model math (`sgd_step`, `weighted_mean`) checks that the ParamVecs it
    combines share one shape_spec.
    """

    NDIM = 1  # axes of `values`

    @classmethod
    def zeros(cls, shape_spec: ShapeSpec) -> "ParamVec":
        return cls(np.zeros(_layout(shape_spec)[0]), shape_spec)

    @property
    def size(self) -> int:
        return self.values.size


@dataclass
class ParamStack(_FlatParams):
    """One flat parameter row per client, all under one shape_spec.

    The model math takes a ParamStack wherever it takes a ParamVec and
    treats the rows as independent models; `unpack` gives (N, *dims) views.
    """

    NDIM = 2  # axes of `values`: (client, parameter)

    @classmethod
    def of(cls, vecs: Sequence[ParamVec]) -> "ParamStack":
        """Stack ParamVecs that share one shape_spec, in order."""
        spec = vecs[0].shape_spec
        if any(v.shape_spec != spec for v in vecs):
            raise ValueError("ParamVec shape_specs differ; not stackable")
        return cls(np.stack([v.values for v in vecs]), spec)

    def row(self, n: int) -> ParamVec:
        """Client n's parameters, a read-only view of the stack's memory."""
        values = self.values[n]
        values.flags.writeable = False
        return ParamVec(values, self.shape_spec)


class Scratch:
    """Output memory that repeated model math of one shape can reuse.

    forward_trace, backprop and cross_entropy_grad write their activations
    and deltas into the buffers of a Scratch passed to them (domains.mixup
    its gathered partner rows), so a training loop allocates those once
    instead of once per step. Results then alias
    the buffers and are overwritten by the next call with the same Scratch.

    This is a measured choice: freshly allocated arrays of a few hundred KB
    go back to the system when freed and fault their pages in again on the
    next step. On a 2-vCPU box that cost more than the arithmetic of the
    Gaussian benchmark rounds (about 2,600 minor page faults per round).
    """

    def __init__(self):
        self._flat: dict = {}  # key -> 1-D buffer

    def take(self, key, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A contiguous `dtype` array of `shape`, the same memory on every
        call with `key` and `dtype` (grown when a larger shape is asked for)."""
        size = math.prod(shape)
        slot = (key, np.dtype(dtype))
        flat = self._flat.get(slot)
        if flat is None or flat.size < size:
            flat = self._flat[slot] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _out(scratch: Scratch | None, key, shape: tuple[int, ...], dtype) -> np.ndarray | None:
    return None if scratch is None else scratch.take(key, shape, dtype)


def _matmul(a: np.ndarray, b: np.ndarray, scratch: Scratch | None, key) -> np.ndarray:
    """a @ b, written into scratch memory when a Scratch is given. The
    leading axes of a and b must match or be absent on one side."""
    if scratch is None:
        return a @ b
    lead = max(a.shape[:-2], b.shape[:-2], key=len)
    return np.matmul(a, b, out=scratch.take(key, lead + (a.shape[-2], b.shape[-1]),
                                            np.result_type(a, b)))


def _as_input(params: _FlatParams, x) -> np.ndarray:
    """x with at least 2 axes, in the result type of params and x."""
    x = np.asarray(x)
    return np.atleast_2d(x.astype(np.result_type(params.values, x), copy=False))


def _check_finite(params: _FlatParams, message: str) -> None:
    """Raise NumericError unless every value is finite. For a ParamStack the
    error's `client` is the index of the lowest row holding a non-finite value."""
    finite = np.isfinite(params.values)
    if finite.all():
        return
    if finite.ndim == 1:
        raise NumericError(message)
    raise NumericError(message, client=int(np.flatnonzero(~finite.all(axis=1))[0]))


def weighted_mean(vecs: Sequence[ParamVec], weights: Sequence[float]) -> ParamVec:
    """Sum_n weights[n] * vecs[n]; all vecs must share one shape_spec. Every
    product and the sum are float64, rounded once to the inputs' dtype."""
    if len(vecs) == 0:
        raise ValueError("weighted_mean needs at least one ParamVec")
    if len(vecs) != len(weights):
        raise ValueError("weights length must match number of ParamVecs")
    spec = vecs[0].shape_spec
    acc = np.zeros(vecs[0].size)
    for v, w in zip(vecs, weights):
        if v.shape_spec != spec:
            raise ValueError("ParamVec shape_specs differ; not combinable")
        acc += np.multiply(v.values, w, dtype=np.float64)
    return ParamVec(acc.astype(vecs[0].values.dtype, copy=False), spec)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; invariant to adding a constant to all logits.
    float32 logits give float32 probabilities, others float64."""
    logits = np.asarray(logits)
    logits = logits.astype(np.result_type(logits, np.float32), copy=False)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _glorot_init(shape_spec: ShapeSpec, rng: np.random.Generator) -> ParamVec:
    # weights uniform in +-sqrt(6/(fan_in+fan_out)), biases zero
    pv = ParamVec.zeros(shape_spec)
    blocks = pv.unpack()
    for name, dims in shape_spec:
        if len(dims) == 2:
            fan_out, fan_in = dims
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            blocks[name][...] = rng.uniform(-limit, limit, size=dims)
    return pv


@dataclass
class FeatureExtractor:
    """MLP mapping inputs to a nonnegative feature vector (ReLU after every layer)."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    params: ParamVec

    @staticmethod
    def shape_spec(input_dim, hidden_dims, output_dim) -> ShapeSpec:
        spec = []
        dims = [input_dim, *hidden_dims, output_dim]
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            spec.append((f"w{i}", (fan_out, fan_in)))
            spec.append((f"b{i}", (fan_out,)))
        return tuple(spec)

    @classmethod
    def init(cls, input_dim, hidden_dims, output_dim, rng: np.random.Generator):
        hidden_dims = tuple(int(h) for h in hidden_dims)
        spec = cls.shape_spec(input_dim, hidden_dims, output_dim)
        return cls(int(input_dim), hidden_dims, int(output_dim), _glorot_init(spec, rng))

    @property
    def n_layers(self) -> int:
        return len(self.hidden_dims) + 1

    def with_params(self, params: ParamVec) -> "FeatureExtractor":
        return FeatureExtractor(self.input_dim, self.hidden_dims, self.output_dim, params)

    def layer_preact(self, i: int, x: np.ndarray, blocks=None,
                     scratch: Scratch | None = None) -> np.ndarray:
        """Pre-ReLU value x @ w_i.T + b_i of layer i for its input x, the one
        copy of the layer math; `blocks` are this extractor's unpacked params."""
        blocks = self.params.unpack() if blocks is None else blocks
        z = _matmul(x, blocks[f"w{i}"].swapaxes(-1, -2), scratch, ("z", i))
        z += blocks[f"b{i}"][..., None, :]
        return z

    def forward_trace(self, x: np.ndarray, scratch: Scratch | None = None) -> list[np.ndarray]:
        """Forward pass keeping every activation for backprop.

        Returns the activations: [0] is the input batch, [-1] the features,
        and [l + 1] is the ReLU output of layer l, applied in place on its
        pre-activation. With stacked params, x is (N, batch, input_dim), or
        one batch shared by every client; stacked inputs to one model give
        (N, batch, dim) activations. With a Scratch, the returned arrays live
        in its memory.
        """
        x = _as_input(self.params, x)
        if x.shape[-1] != self.input_dim:
            raise ConfigError(
                f"input dim {x.shape[-1]} does not match extractor input_dim {self.input_dim}"
            )
        blocks = self.params.unpack()
        acts = [x]
        for i in range(self.n_layers):
            z = self.layer_preact(i, acts[-1], blocks, scratch)
            acts.append(np.maximum(z, 0.0, out=z))
        return acts

    def forward(self, x: np.ndarray) -> np.ndarray:
        squeeze = np.asarray(x).ndim == 1
        features = self.forward_trace(x)[-1]
        return features[0] if squeeze else features

    def backprop(self, acts, dfeatures: np.ndarray,
                 scratch: Scratch | None = None) -> ParamVec:
        """Gradient of a scalar loss w.r.t. params given d(loss)/d(features),
        computed in the activations' dtype; a Scratch holds the layer deltas."""
        blocks = self.params.unpack()
        grad = type(self.params)(np.empty_like(self.params.values), self.params.shape_spec)
        gblocks = grad.unpack()  # every block is written below
        top = self.n_layers - 1
        dtype = acts[-1].dtype
        # ReLU subgradient, 0 at the kink: relu(z) > 0 exactly where z > 0
        delta = np.multiply(np.asarray(dfeatures, dtype=dtype), acts[-1] > 0.0,
                            out=_out(scratch, ("d", top), acts[-1].shape, dtype))
        for i in reversed(range(self.n_layers)):
            np.matmul(delta.swapaxes(-1, -2), acts[i], out=gblocks[f"w{i}"])
            delta.sum(axis=-2, out=gblocks[f"b{i}"])
            if i:  # d(loss)/d(input) is never used
                delta = _matmul(delta, blocks[f"w{i}"], scratch, ("d", i - 1))
                delta *= acts[i] > 0.0
        return grad


@dataclass
class Classifier:
    """Linear layer followed by softmax; maps features to a probability vector."""

    input_dim: int
    num_classes: int
    params: ParamVec

    @staticmethod
    def shape_spec(input_dim, num_classes) -> ShapeSpec:
        return (("w", (num_classes, input_dim)), ("b", (num_classes,)))

    @classmethod
    def init(cls, input_dim, num_classes, rng: np.random.Generator):
        if num_classes < 2:
            raise ConfigError("classifier needs at least 2 classes")
        spec = cls.shape_spec(input_dim, num_classes)
        return cls(int(input_dim), int(num_classes), _glorot_init(spec, rng))

    def with_params(self, params: ParamVec) -> "Classifier":
        return Classifier(self.input_dim, self.num_classes, params)

    def logits(self, z: np.ndarray) -> np.ndarray:
        z = _as_input(self.params, z)
        if z.shape[-1] != self.input_dim:
            raise ConfigError(
                f"feature dim {z.shape[-1]} does not match classifier input_dim {self.input_dim}"
            )
        blocks = self.params.unpack()
        return z @ blocks["w"].swapaxes(-1, -2) + blocks["b"][..., None, :]

    def forward(self, z: np.ndarray) -> np.ndarray:
        squeeze = np.asarray(z).ndim == 1
        probs = softmax(self.logits(z))
        return probs[0] if squeeze else probs


@dataclass
class OptimizerState:
    """SGD-with-momentum state for one ParamVec.

    step: buffer <- momentum*buffer + grad + weight_decay*params,
          params <- params - lr*buffer.
    """

    momentum_buffer: ParamVec
    momentum: float = 0.9
    weight_decay: float = 0.0

    @classmethod
    def for_params(cls, params: ParamVec, momentum=0.9, weight_decay=0.0):
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0.0:
            raise ValueError("weight_decay must be nonnegative")
        return cls(params.zeros_like(), float(momentum), float(weight_decay))


def _as_soft_targets(labels, num_classes: int, batch_ndim: int) -> np.ndarray:
    """Soft targets as given (labels with batch_ndim + 1 axes), or one-hot
    rows of integer class indices."""
    labels = np.asarray(labels)
    if labels.ndim > batch_ndim:
        return np.asarray(labels, dtype=np.float64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DataError(
            f"label out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    return (labels.astype(int)[..., None] == np.arange(num_classes)).astype(np.float64)


def head_grad(classifier: Classifier, features: np.ndarray,
              labels) -> tuple[float, ParamVec, np.ndarray]:
    """Mean cross-entropy of the classifier on fixed features, its gradient
    with respect to the classifier, and d(loss)/d(features).

    `labels` is either an int array of class indices or a (batch, C) matrix of
    soft targets whose rows sum to 1 (mixup). Returns (loss, gradF, dfeatures).
    A stacked classifier takes (N, batch, d) features and (N, batch) or
    (N, batch, C) labels, and returns one loss per client.
    """
    features = _as_input(classifier.params, features)
    batch = features.shape[-2]
    if batch == 0:
        raise ValueError("cross-entropy: empty batch")
    targets = _as_soft_targets(labels, classifier.num_classes, features.ndim - 1)
    if targets.shape[:-1] != features.shape[:-1]:
        raise DataError("labels length does not match batch size")

    logits = classifier.logits(features)
    # log-softmax with max subtraction keeps -log p exact for tiny p
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    probs = np.exp(log_probs)
    loss = -(targets * log_probs).sum(axis=(-2, -1)) / batch

    dlogits = (probs - targets) / batch
    grad_f = classifier.params.zeros_like()
    gfb = grad_f.unpack()
    gfb["w"][...] = dlogits.swapaxes(-1, -2) @ features
    gfb["b"][...] = dlogits.sum(axis=-2)
    dfeatures = dlogits @ classifier.params.unpack()["w"]
    return (loss if loss.ndim else float(loss)), grad_f, dfeatures


def cross_entropy_grad(extractor: FeatureExtractor, classifier: Classifier,
                       x: np.ndarray, labels, scratch: Scratch | None = None,
                       ) -> tuple[float, ParamVec, ParamVec]:
    """Mean cross-entropy over the batch and its exact analytic gradients.

    `labels` as for `head_grad`; a Scratch holds the activations and deltas.
    Returns (loss, gradG, gradF).
    """
    acts = extractor.forward_trace(x, scratch)
    loss, grad_f, dfeatures = head_grad(classifier, acts[-1], labels)
    grad_g = extractor.backprop(acts, dfeatures, scratch)
    return loss, grad_g, grad_f


def sgd_step(params: ParamVec, grad: ParamVec, state: OptimizerState, lr: float) -> ParamVec:
    """One SGD-with-momentum step, row by row on a ParamStack; mutates
    `state`, returns the new params. A non-finite gradient or result raises
    NumericError (naming the lowest bad row of a stack as its `client`)."""
    _check_finite(grad, "non-finite gradient in sgd_step")
    params._check_compatible(grad)
    params._check_compatible(state.momentum_buffer)
    p, buf = params.values, state.momentum_buffer.values
    buf *= state.momentum
    # buf += g + wd*p, then p - lr*buf, through one temporary: IEEE addition
    # commutes and negation is exact, so the bits are those of the formulas
    step = state.weight_decay * p
    step += grad.values
    buf += step
    np.multiply(buf, -lr, out=step)
    step += p
    new = type(params)(step, params.shape_spec)
    _check_finite(new, "non-finite parameters after sgd_step")
    return new


def lr_schedule(lr0: float, round_index: int, gamma: float = 0.75) -> float:
    """Step decay: lr0 * gamma^(round_index // 100). Nonincreasing in the round."""
    if round_index < 0:
        raise ValueError("round_index must be nonnegative")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    return float(lr0) * float(gamma) ** (round_index // 100)


def finite_difference_grad(loss_fn: Callable[[ParamVec], float], params: ParamVec,
                           epsilon: float) -> ParamVec:
    """Central finite differences of a scalar loss w.r.t. every coordinate."""
    grad = params.zeros_like()
    base = params.values
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + epsilon
        up = loss_fn(ParamVec(bumped, params.shape_spec))
        bumped[i] = base[i] - epsilon
        down = loss_fn(ParamVec(bumped, params.shape_spec))
        grad.values[i] = (up - down) / (2.0 * epsilon)
    return grad


def relative_grad_error(analytic: ParamVec, numeric: ParamVec) -> float:
    """Max per-coordinate discrepancy, relative to the finite-difference value;
    absolute where the analytic coordinate is below 1e-8."""
    a = analytic.values
    n = numeric.values
    diff = np.abs(a - n)
    small = np.abs(a) < 1e-8
    rel = diff / np.maximum(np.abs(n), 1e-300)
    return float(np.max(np.where(small, diff, rel))) if a.size else 0.0


def grad_check(extractor: FeatureExtractor, classifier: Classifier,
               x: np.ndarray, labels, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and finite-difference CE gradients."""
    if not 1e-7 < epsilon < 1e-3:
        raise ValueError("epsilon must lie in (1e-7, 1e-3)")
    _, grad_g, grad_f = cross_entropy_grad(extractor, classifier, x, labels)

    def loss_g(pv: ParamVec) -> float:
        return cross_entropy_grad(extractor.with_params(pv), classifier, x, labels)[0]

    def loss_f(pv: ParamVec) -> float:
        return cross_entropy_grad(extractor, classifier.with_params(pv), x, labels)[0]

    num_g = finite_difference_grad(loss_g, extractor.params, epsilon)
    num_f = finite_difference_grad(loss_f, classifier.params, epsilon)
    return max(relative_grad_error(grad_g, num_g), relative_grad_error(grad_f, num_f))
