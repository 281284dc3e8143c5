"""Minimal numpy neural-network engine.

Supports plain feed-forward stacks of valid (unpadded) convolutions, 2x2
max-pooling and dense layers, trained with softmax cross-entropy and SGD.
The pool is a strided-slice max; its backward breaks ties as argmax does.
All parameters live in a single flat vector so that aggregation, penalty
terms and constraint targets can treat a model as one array.

Flat layout: layers in order, weights before biases within a layer.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError


@dataclass(frozen=True)
class Conv:
    out_channels: int
    kernel: int = 5
    stride: int = 1
    relu: bool = True


@dataclass(frozen=True)
class Pool:
    size: int = 2
    stride: int = 2


@dataclass(frozen=True)
class Dense:
    units: int
    relu: bool = True


@dataclass(frozen=True)
class ModelSpec:
    """Layer stack plus input shape (channels, height, width)."""

    input_shape: tuple
    layers: tuple


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray  # (B, C, H, W), values in [0, 1]
    labels: np.ndarray  # (B,) integer class ids


def baseline_cnn(input_shape=(1, 28, 28)):
    """Two-conv / two-dense classifier used for all image experiments."""
    return ModelSpec(
        input_shape=tuple(input_shape),
        layers=(
            Conv(16, kernel=5, stride=1),
            Pool(),
            Conv(32, kernel=5, stride=1),
            Pool(),
            Dense(512),
            Dense(10, relu=False),
        ),
    )


def lr_at_round(round_idx, base, decay):
    """Per-communication-round learning rate: base * decay**(round-1)."""
    if base <= 0 or not (0 < decay <= 1):
        raise ConfigError(f"invalid lr schedule base={base} decay={decay}")
    if round_idx < 1:
        raise ConfigError(f"round index must be >= 1, got {round_idx}")
    return base * decay ** (round_idx - 1)


def sgd_step(params, grad, lr):
    if params.shape != grad.shape:
        raise ConfigError(f"shape mismatch {params.shape} vs {grad.shape}")
    return params - params.dtype.type(lr) * grad


class Network:
    """Stateless forward/backward engine for one ModelSpec.

    Parameters are always passed in explicitly as a flat vector; the network
    object only holds shapes. Conv layers require stride 1 and pooling
    requires even spatial dims (true for the baseline CNN on 28x28 and
    32x32 inputs).
    """

    def __init__(self, spec, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self._shapes = []  # flat list of parameter array shapes
        self._fan_in = []  # fan-in per weight array (None for biases)
        shape = tuple(spec.input_shape)
        for layer in spec.layers:
            if isinstance(layer, Conv):
                if layer.stride != 1:
                    raise ConfigError("only stride-1 convolutions supported")
                c, h, w = shape
                ho, wo = h - layer.kernel + 1, w - layer.kernel + 1
                if ho < 1 or wo < 1:
                    raise ConfigError(f"kernel {layer.kernel} too large for {shape}")
                self._shapes.append((layer.out_channels, c, layer.kernel, layer.kernel))
                self._fan_in.append(c * layer.kernel * layer.kernel)
                self._shapes.append((layer.out_channels,))
                self._fan_in.append(None)
                shape = (layer.out_channels, ho, wo)
            elif isinstance(layer, Pool):
                if layer.size != 2 or layer.stride != 2:
                    raise ConfigError("only 2x2 stride-2 pooling supported")
                c, h, w = shape
                if h % 2 or w % 2:
                    raise ConfigError(f"pooling needs even spatial dims, got {shape}")
                shape = (c, h // 2, w // 2)
            elif isinstance(layer, Dense):
                d = int(np.prod(shape))
                self._shapes.append((layer.units, d))
                self._fan_in.append(d)
                self._shapes.append((layer.units,))
                self._fan_in.append(None)
                shape = (layer.units,)
            else:
                raise ConfigError(f"unknown layer {layer!r}")
        self.output_dim = shape[0]
        self._offsets = np.cumsum([0] + [int(np.prod(s)) for s in self._shapes])
        self.n_params = int(self._offsets[-1])

    # -- parameter plumbing ------------------------------------------------

    def init_params(self, seed):
        """Fan-in scaled uniform weights, zero biases."""
        rng = np.random.default_rng(seed)
        parts = []
        for shape, fan_in in zip(self._shapes, self._fan_in):
            if fan_in is None:
                parts.append(np.zeros(shape, dtype=self.dtype))
            else:
                bound = np.sqrt(6.0 / fan_in)
                parts.append(rng.uniform(-bound, bound, size=shape).astype(self.dtype))
        return np.concatenate([p.ravel() for p in parts])

    def unflatten(self, params):
        if params.shape != (self.n_params,):
            raise ConfigError(f"expected {self.n_params} params, got {params.shape}")
        return [
            params[self._offsets[i]:self._offsets[i + 1]].reshape(s)
            for i, s in enumerate(self._shapes)
        ]

    # -- forward / backward ------------------------------------------------

    def forward(self, params, inputs):
        """Logits for a batch of inputs, shape (B, output_dim)."""
        logits, _ = self._forward(params, inputs, keep=False)
        return logits

    def _forward(self, params, inputs, keep):
        arrays = self.unflatten(params)
        a = np.asarray(inputs, dtype=self.dtype)
        if a.shape[1:] != tuple(self.spec.input_shape):
            raise ConfigError(
                f"input shape {a.shape[1:]} does not match spec "
                f"{self.spec.input_shape}"
            )
        caches = []
        i = 0
        for layer in self.spec.layers:
            if isinstance(layer, Conv):
                w, b = arrays[i], arrays[i + 1]
                i += 2
                k = layer.kernel
                nb, _, h, w_ = a.shape
                ho, wo = h - k + 1, w_ - k + 1
                # im2col: (b, c*k*k, ho*wo) windows, one GEMM against (f, c*k*k)
                cols = (
                    sliding_window_view(a, (k, k), axis=(2, 3))
                    .transpose(0, 1, 4, 5, 2, 3)
                    .reshape(nb, -1, ho * wo)
                )
                z = (w.reshape(w.shape[0], -1) @ cols).reshape(nb, -1, ho, wo)
                z += b[None, :, None, None]
                out = np.maximum(z, 0) if layer.relu else z
                if keep:
                    caches.append(("conv", layer, cols, w, z, a.shape))
                del cols  # free the window copy before the next layer makes its own
                a = out
            elif isinstance(layer, Pool):
                out = _pool_forward(a)
                if keep:
                    caches.append(("pool", layer, a, out))
                a = out
            elif isinstance(layer, Dense):
                orig_shape = a.shape
                if a.ndim > 2:
                    a = a.reshape(orig_shape[0], -1)
                w, b = arrays[i], arrays[i + 1]
                i += 2
                z = a @ w.T + b
                out = np.maximum(z, 0) if layer.relu else z
                if keep:
                    caches.append(("dense", layer, a, w, z, orig_shape))
                a = out
        return a, caches

    def loss_and_grad(self, params, batch, penalty=None):
        """Mean cross-entropy (plus optional penalty) and its flat gradient."""
        logits, caches = self._forward(params, batch.inputs, keep=True)
        logp, d = _nll_and_grad(logits, np.asarray(batch.labels))
        nb = logits.shape[0]
        loss = float(-logp.mean())
        d /= nb
        grads = self._backward(d.astype(self.dtype, copy=False), caches, square=False)
        grad = np.concatenate([g.ravel() for g in grads]).astype(self.dtype, copy=False)

        if penalty is not None:
            loss = loss + penalty.value(params)
            grad = grad + penalty.grad(params)
        return loss, grad

    def squared_grad_sum(self, params, batch):
        """Sum over the batch of each example's squared cross-entropy gradient.

        Flat float64 vector; divided by the batch size it is the empirical
        Fisher diagonal of the batch. One forward and one backward pass for
        the whole batch, through the same layer backward as `loss_and_grad`.
        """
        logits, caches = self._forward(params, batch.inputs, keep=True)
        _, d = _nll_and_grad(logits, np.asarray(batch.labels))
        grads = self._backward(d, caches, square=True)
        return np.concatenate([g.ravel() for g in grads])

    def _backward(self, d, caches, square):
        """Parameter gradients in flat order, given the logit gradient `d`.

        square=False sums each gradient over the batch. square=True returns,
        in float64, the batch sum of every example's squared gradient
        (dense: (d**2).T @ (a**2), Goodfellow 2015; conv: per-example im2col
        matmuls). The first layer's input gradient is never computed.
        """
        grads = []
        for pos in range(len(caches) - 1, -1, -1):
            kind, layer, *cache = caches[pos]
            need_dx = pos > 0
            if kind == "dense":
                a_in, w, z, orig_shape = cache
                if layer.relu:
                    d = d * (z > 0)
                grads.append(_reduce_batch(d, square))  # bias
                if square:  # exact: (d_b a_b^T)**2 = d_b**2 (a_b**2)^T
                    grads.append(np.square(d, dtype=np.float64).T
                                 @ np.square(a_in, dtype=np.float64))
                else:
                    grads.append(d.T @ a_in)
                if need_dx:
                    d = (d @ w).reshape(orig_shape)
            elif kind == "pool" and need_dx:
                d = _pool_backward(d, *cache)
            elif kind == "conv":
                cols, w, z, in_shape = cache
                if layer.relu:
                    d = d * (z > 0)
                nb, f, ho, wo = d.shape
                k = layer.kernel
                dm = d.reshape(nb, f, ho * wo)
                grads.append(_reduce_batch(dm.sum(axis=2), square))  # bias
                # per-example weight gradients, (b, f, ho*wo) @ (b, ho*wo, c*k*k)
                g = dm @ cols.transpose(0, 2, 1)
                grads.append(_reduce_batch(g, square).reshape(w.shape))
                if need_dx:
                    # col2im: one GEMM to (c, k, k, b, ho, wo), then k*k
                    # shifted slice-adds into the (c, b, h, w) view of dx
                    dcols = np.tensordot(w, d, axes=([0], [1]))
                    dx = np.zeros(in_shape, dtype=self.dtype)
                    dxt = dx.transpose(1, 0, 2, 3)
                    for u in range(k):
                        for v in range(k):
                            dxt[:, :, u:u + ho, v:v + wo] += dcols[:, u, v]
                    d = dx
        grads.reverse()
        return grads


def _reduce_batch(g, square):
    """Sum of the per-example gradients g[b], or float64 sum of their squares."""
    return np.square(g, dtype=np.float64).sum(axis=0) if square else g.sum(axis=0)


def _pool_forward(a):
    """2x2 stride-2 max-pool of (B, C, H, W) as a max over four strided slices."""
    return np.maximum(np.maximum(a[:, :, 0::2, 0::2], a[:, :, 0::2, 1::2]),
                      np.maximum(a[:, :, 1::2, 0::2], a[:, :, 1::2, 1::2]))


def _pool_backward(d, a, out):
    """Route each window's gradient to the first corner, in argmax order, at the max."""
    dx = np.empty_like(a)
    free = np.ones(out.shape, dtype=bool)
    for u, v in ((0, 0), (0, 1), (1, 0), (1, 1)):
        hit = free & (a[:, :, u::2, v::2] == out)
        np.multiply(d, hit, out=dx[:, :, u::2, v::2])  # d * 0 may be -0.0
        free &= ~hit
    return dx


def log_softmax(logits):
    """Row-wise log-softmax of (B, K) logits, shifted by the row max."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _nll_and_grad(logits, labels):
    """Per-example negative log-likelihood of `labels` and its logit gradient."""
    rows = np.arange(logits.shape[0])
    logp = log_softmax(logits)
    d = np.exp(logp)
    d[rows, labels] -= 1
    return logp[rows, labels], d
