"""Minimal numpy neural-network engine.

Supports plain feed-forward stacks of valid (unpadded) convolutions, 2x2
max-pooling and dense layers, trained with softmax cross-entropy and SGD.
The pool is a strided-slice max; its backward breaks ties as argmax does.
Convolutions compute in channels-last memory behind (b, c, h, w) views, an
order the pool's slices and ufuncs keep. Their im2col rows are output pixels
and columns (u, v, channel), copied along image rows from NCHW memory.
All parameters live in a single flat vector so that aggregation, penalty
terms and constraint targets can treat a model as one array.

Flat layout: layers in order, weights before biases within a layer.

Each layer kind is one class with `setup(in_shape) -> ([(param shape, fan-in
or None)], out_shape)`, which also validates the shape, `forward(a, *params)
-> (out, cache)` and `backward(d, cache, need_dx, square) -> (dx or None,
[weight grad, bias grad])`; `Network` loops over them and never reads a cache.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError

# examples per chunk of the passes that build per-example buffers: the batched
# Fisher's per-example gradients and the im2col copies of `Network.forward`'s
# layers before the first Dense (26 MB for conv2 of 256 MNIST-shape images)
CHUNK = 64


@dataclass(frozen=True)
class Conv:
    """Valid (unpadded) stride-1 convolution, optionally followed by a relu."""

    out_channels: int
    kernel: int = 5
    relu: bool = True

    def setup(self, in_shape):
        c, h, w = in_shape
        k = self.kernel
        if h < k or w < k:
            raise ConfigError(f"kernel {k} too large for {in_shape}")
        params = [((self.out_channels, c, k, k), c * k * k), ((self.out_channels,), None)]
        return params, (self.out_channels, h - k + 1, w - k + 1)

    def forward(self, a, w, b):
        k = self.kernel
        nb, _, h, w_ = a.shape
        ho, wo = h - k + 1, w_ - k + 1
        if a.flags.c_contiguous:  # NCHW memory (any 1-channel input): copy image rows
            cols = sliding_window_view(a, (ho, wo), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
            cols = cols.reshape(nb, -1, ho * wo).transpose(0, 2, 1)
        else:  # channels-last memory: copy runs of k*c floats
            cols = sliding_window_view(a.transpose(0, 2, 3, 1), (k, k), axis=(1, 2))
            cols = cols.transpose(0, 1, 2, 4, 5, 3).reshape(nb, ho * wo, -1)
        z = cols @ w.transpose(2, 3, 1, 0).reshape(-1, w.shape[0])
        z += b
        if self.relu:
            np.maximum(z, 0, out=z)
        # (b, f, ho, wo) view of channels-last memory
        return z.reshape(nb, ho, wo, -1).transpose(0, 3, 1, 2), (cols, w, z, a.shape)

    def backward(self, d, cache, need_dx, square):
        cols, w, out, (nb, c, h, w_) = cache
        _, f, ho, wo = d.shape
        k = self.kernel
        dm = d.transpose(0, 2, 3, 1).reshape(out.shape)
        if self.relu:
            dm = dm * (out > 0)
        gb = _reduce_batch(np.ones(ho * wo, dm.dtype) @ dm, square)
        # per-example weight gradients, (b, f, ho*wo) @ (b, ho*wo, k*k*c)
        gw = _reduce_batch(dm.transpose(0, 2, 1) @ cols, square)
        gw = gw.reshape(f, k, k, c).transpose(0, 3, 1, 2)
        if not need_dx:
            return None, [gw, gb]
        # col2im: per offset, (pixels, f) @ (f, c) then a shifted add into a
        # channels-last dx in runs of wo*c floats
        dm, wt = dm.reshape(-1, f), w.transpose(2, 3, 0, 1).reshape(k * k, f, c)
        dx = np.zeros((nb, h, w_, c), dtype=cols.dtype)
        for u in range(k):
            for v in range(k):
                dx[:, u:u + ho, v:v + wo] += (dm @ wt[u * k + v]).reshape(nb, ho, wo, c)
        return dx.transpose(0, 3, 1, 2), [gw, gb]


@dataclass(frozen=True)
class Pool:
    """2x2 stride-2 max-pool; needs even spatial dims."""

    def setup(self, in_shape):
        c, h, w = in_shape
        if h % 2 or w % 2:
            raise ConfigError(f"pooling needs even spatial dims, got {in_shape}")
        return [], (c, h // 2, w // 2)

    def forward(self, a):
        out = _pool_forward(a)
        return out, (a, out)

    def backward(self, d, cache, need_dx, square):
        return (_pool_backward(d, *cache) if need_dx else None), []


@dataclass(frozen=True)
class Dense:
    """Fully connected layer on the flattened input, optionally with a relu."""

    units: int
    relu: bool = True

    def setup(self, in_shape):
        d = int(np.prod(in_shape))
        return [((self.units, d), d), ((self.units,), None)], (self.units,)

    def forward(self, a, w, b):
        in_shape = a.shape
        a = a.reshape(in_shape[0], -1)
        z = a @ w.T + b
        out = np.maximum(z, 0) if self.relu else z
        return out, (a, w, z, in_shape)

    def backward(self, d, cache, need_dx, square):
        a, w, z, in_shape = cache
        if self.relu:
            d = d * (z > 0)
        if square:  # exact: (d_b a_b^T)**2 = d_b**2 (a_b**2)^T
            gw = np.square(d, dtype=np.float64).T @ np.square(a, dtype=np.float64)
        else:
            gw = d.T @ a
        dx = (d @ w).reshape(in_shape) if need_dx else None
        return dx, [gw, _reduce_batch(d, square)]


@dataclass(frozen=True)
class ModelSpec:
    """Layer stack plus input shape (channels, height, width)."""

    input_shape: tuple
    layers: tuple


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray  # (B, C, H, W) float pixels in [0, 1]; `Network` rejects integers
    labels: np.ndarray  # (B,) integer class ids


def baseline_cnn(input_shape=(1, 28, 28)):
    """Two-conv / two-dense classifier used for all image experiments."""
    return ModelSpec(
        input_shape=tuple(input_shape),
        layers=(
            Conv(16, kernel=5),
            Pool(),
            Conv(32, kernel=5),
            Pool(),
            Dense(512),
            Dense(10, relu=False),
        ),
    )


def lr_at_round(round_idx, base, decay):
    """Per-communication-round learning rate: base * decay**(round-1), > 0."""
    if round_idx < 1:
        raise ConfigError(f"round index must be >= 1, got {round_idx}")
    if not (0 < base < np.inf and 0 < decay <= 1 and base * decay ** (round_idx - 1) > 0):
        raise ConfigError(f"invalid lr schedule base={base} decay={decay} at round {round_idx}")
    return base * decay ** (round_idx - 1)


def sgd_step(params, grad, lr):
    return params - params.dtype.type(lr) * grad


class Network:
    """Stateless forward/backward engine for one ModelSpec.

    Parameters are always passed in explicitly as a flat vector; the network
    object only holds shapes. Each layer checks its own input shape, runs its
    own forward and backward, and alone reads the cache its forward returns.
    """

    def __init__(self, spec, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self._params = []  # (shape, fan-in or None) per parameter array, flat order
        self._slices = []  # each layer's slice of self._params
        shape = tuple(spec.input_shape)
        for layer in spec.layers:
            params, shape = layer.setup(shape)
            self._slices.append(slice(len(self._params), len(self._params) + len(params)))
            self._params += params
        self.output_dim = shape[0]
        # position of the first Dense layer: `forward` runs the layers before it in chunks
        self._head = next((pos for pos, layer in enumerate(spec.layers)
                           if isinstance(layer, Dense)), len(spec.layers))
        self._offsets = np.cumsum([0] + [int(np.prod(s)) for s, _ in self._params])
        self.n_params = int(self._offsets[-1])

    # -- parameter plumbing ------------------------------------------------

    def init_params(self, seed):
        """Fan-in scaled uniform weights, zero biases."""
        rng = np.random.default_rng(seed)
        parts = []
        for shape, fan_in in self._params:
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
            for i, (s, _) in enumerate(self._params)
        ]

    # -- forward / backward ------------------------------------------------

    def forward(self, params, inputs):
        """Logits for a batch of inputs, shape (B, output_dim).

        The layers before the first Dense run on `CHUNK` examples at a time,
        which bounds their im2col copies; their per-example results, and so
        the logits, are bitwise those of one pass over the batch.
        """
        arrays, a = self._input(params, inputs)
        head, c = self._head, CHUNK
        if head and len(a) > c:
            a = np.concatenate([self._layers(arrays, a[i:i + c], 0, head)
                                for i in range(0, len(a), c)])
        else:
            a = self._layers(arrays, a, 0, head)
        return self._layers(arrays, a, head, len(self.spec.layers))

    def _forward(self, params, inputs):
        arrays, a = self._input(params, inputs)
        caches = []
        return self._layers(arrays, a, 0, len(self.spec.layers), caches), caches

    def _input(self, params, inputs):
        arrays = self.unflatten(params)
        a = np.asarray(inputs)
        if a.dtype.kind in "iu":  # raw 0-255 bytes, not pixels in [0, 1]
            raise ConfigError(f"inputs must be float pixels in [0, 1], got {a.dtype}; "
                              "convert with Dataset.pixels")
        a = a.astype(self.dtype, copy=False)
        if a.shape[1:] != tuple(self.spec.input_shape):
            raise ConfigError(
                f"input shape {a.shape[1:]} does not match spec "
                f"{self.spec.input_shape}"
            )
        return arrays, a

    def _layers(self, arrays, a, start, stop, caches=None):
        """Layers start..stop-1 on `a`, their caches appended to `caches` if given."""
        for pos in range(start, stop):
            a, cache = self.spec.layers[pos].forward(a, *arrays[self._slices[pos]])
            if caches is not None:
                caches.append(cache)
            del cache  # free a conv's window copy before the next layer makes its own
        return a

    def loss_and_grad(self, params, batch, penalty=None):
        """Mean cross-entropy (plus optional penalty) and its flat gradient."""
        logits, caches = self._forward(params, batch.inputs)
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
        logits, caches = self._forward(params, batch.inputs)
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
        for pos in reversed(range(len(caches))):
            layer = self.spec.layers[pos]
            d, layer_grads = layer.backward(d, caches[pos], need_dx=pos > 0, square=square)
            grads[:0] = layer_grads
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
    # in d's memory order: channels-last when a conv follows, NCHW when a dense layer does
    free = np.ones_like(d, dtype=bool)
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
