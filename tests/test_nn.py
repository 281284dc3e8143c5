import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fedte.errors import ConfigError
from fedte.nn import (
    Batch,
    Conv,
    Dense,
    ModelSpec,
    Network,
    Pool,
    _pool_backward,
    _pool_forward,
    baseline_cnn,
    lr_at_round,
    sgd_step,
)
from fedte.penalties import Prox

from conftest import (
    STACKED_CONV_SPECS,
    assert_grad_close,
    finite_difference_grad,
    gradcheck_case,
    tiny_spec,
)


def softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def test_zero_network_gives_uniform_softmax():
    net = Network(baseline_cnn((1, 28, 28)))
    params = np.zeros(net.n_params, dtype=np.float32)
    x = np.random.default_rng(0).random((3, 1, 28, 28)).astype(np.float32)
    probs = softmax(net.forward(params, x))
    assert np.allclose(probs, 0.1, atol=1e-6)


def test_baseline_cnn_output_dim():
    net = Network(baseline_cnn((1, 28, 28)))
    x = np.random.default_rng(1).random((1, 1, 28, 28)).astype(np.float32)
    assert net.forward(net.init_params(0), x).shape == (1, 10)


def test_dense_only_identity_logit():
    spec = ModelSpec((1, 1, 1), (Dense(1, relu=False),))
    net = Network(spec)
    w = 0.75
    params = np.array([w, 0.0], dtype=np.float32)
    x = np.full((1, 1, 1, 1), 0.5, dtype=np.float32)
    assert net.forward(params, x)[0, 0] == pytest.approx(w * 0.5)


def test_softmax_rows_sum_to_one():
    net = Network(tiny_spec())
    rng = np.random.default_rng(2)
    params = net.init_params(2)
    x = rng.random((8, 1, 12, 12)).astype(np.float32)
    sums = softmax(net.forward(params, x)).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-5)


def test_forward_shape_mismatch_raises():
    net = Network(tiny_spec())
    with pytest.raises(ConfigError):
        net.forward(net.init_params(0), np.zeros((1, 1, 10, 10), dtype=np.float32))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_integer_inputs_raise(dtype):
    # 0-255 bytes that skipped Dataset.pixels would otherwise train silently
    net = Network(tiny_spec())
    params = net.init_params(0)
    x = np.full((2, 1, 12, 12), 255, dtype=dtype)
    with pytest.raises(ConfigError, match="float pixels"):
        net.forward(params, x)
    with pytest.raises(ConfigError, match="float pixels"):
        net.loss_and_grad(params, Batch(x, np.array([1, 2])))
    with pytest.raises(ConfigError, match="float pixels"):
        net.squared_grad_sum(params, Batch(x, np.array([1, 2])))
    as_float = x.astype(np.float64) / 255.0
    assert np.array_equal(net.forward(params, as_float),
                          net.forward(params, as_float.astype(np.float32)))


def test_flatten_unflatten_roundtrip():
    net = Network(tiny_spec())
    v = np.random.default_rng(3).normal(size=net.n_params).astype(np.float32)
    assert np.array_equal(np.concatenate([a.ravel() for a in net.unflatten(v)]), v)


def reference_pool(a, d):
    """2x2 max-pool and its input gradient via argmax over each flattened window."""
    nb, c, h, w = a.shape
    r = (
        a.reshape(nb, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(nb, c, h // 2, w // 2, 4)
    )
    idx = r.argmax(axis=-1)
    out = np.take_along_axis(r, idx[..., None], axis=-1)[..., 0]
    dr = np.zeros(r.shape, dtype=a.dtype)
    np.put_along_axis(dr, idx[..., None], d[..., None], axis=-1)
    dx = (
        dr.reshape(nb, c, h // 2, w // 2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(a.shape)
    )
    return out, dx


def tied_pool_input(rng, shape, dtype, kind):
    """Pool inputs whose windows tie: on few levels, at zero, or in 2-4 corners."""
    if kind == "random":
        return rng.normal(size=shape).astype(dtype)
    if kind == "three_levels":
        return rng.integers(0, 3, shape).astype(dtype) / 2
    if kind == "relu_zeros":  # post-relu, most windows all zero
        return np.maximum(rng.normal(-1.5, 1.0, shape), 0).astype(dtype)
    # the top value of each window in exactly 2, 3 or 4 of its corners
    nb, c, h, w = shape
    windows = rng.uniform(0, 1, (nb, c, h // 2, w // 2, 4))
    n_top = 2 + np.arange(windows[..., 0].size).reshape(windows.shape[:-1]) % 3
    order = rng.permuted(np.broadcast_to(np.arange(4), windows.shape), axis=-1)
    windows[order < n_top[..., None]] = 2.0
    return (
        windows.reshape(nb, c, h // 2, w // 2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(shape)
        .astype(dtype)
    )


@pytest.mark.parametrize(
    "kind", ["random", "three_levels", "relu_zeros", "tied_corners"])
# the inputs of baseline_cnn's two pools on MNIST-shape images
@pytest.mark.parametrize("chw", [(16, 24, 24), (32, 8, 8)])
@pytest.mark.parametrize("nb", [1, 7, 50])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_matches_argmax_reference(kind, chw, nb, dtype):
    rng = np.random.default_rng((nb, *chw))
    a = tied_pool_input(rng, (nb, *chw), dtype, kind)
    d = rng.normal(size=(nb, chw[0], chw[1] // 2, chw[2] // 2)).astype(dtype)
    ref_out, ref_dx = reference_pool(a, d)
    out = _pool_forward(a)
    dx = _pool_backward(d, a, out)
    assert out.dtype == dx.dtype == dtype
    assert np.array_equal(out, ref_out)
    assert np.array_equal(dx, ref_dx)
    at_max = a == np.repeat(np.repeat(out, 2, axis=2), 2, axis=3)
    n_at_max = at_max.reshape(nb, chw[0], chw[1] // 2, 2, -1, 2).sum(axis=(3, 5))
    if kind == "tied_corners":
        assert set(np.unique(n_at_max)) == {2, 3, 4}
    elif kind == "relu_zeros":
        assert np.any((out == 0) & (n_at_max == 4))


def reference_conv(layer, a, w, b, d, need_dx, square):
    """NCHW im2col convolution: (out, dx or None, [weight grad, bias grad]).

    Weight and bias gradients are summed over the batch, or with `square`
    the float64 batch sums of each example's squared gradients.
    """
    def reduce(g):
        return np.square(g, dtype=np.float64).sum(axis=0) if square else g.sum(axis=0)

    k = layer.kernel
    nb, _, h, w_ = a.shape
    ho, wo = h - k + 1, w_ - k + 1
    cols = (
        sliding_window_view(a, (k, k), axis=(2, 3))
        .transpose(0, 1, 4, 5, 2, 3)
        .reshape(nb, -1, ho * wo)
    )
    z = (w.reshape(w.shape[0], -1) @ cols).reshape(nb, -1, ho, wo)
    z += b[None, :, None, None]
    out = np.maximum(z, 0) if layer.relu else z
    if layer.relu:
        d = d * (z > 0)
    dm = d.reshape(nb, -1, ho * wo)
    grads = [reduce(dm @ cols.transpose(0, 2, 1)).reshape(w.shape), reduce(dm.sum(axis=2))]
    if not need_dx:
        return out, None, grads
    dcols = np.tensordot(w, d, axes=([0], [1]))
    dx = np.zeros(a.shape, dtype=cols.dtype)
    dxt = dx.transpose(1, 0, 2, 3)
    for u in range(k):
        for v in range(k):
            dxt[:, :, u:u + ho, v:v + wo] += dcols[:, u, v]
    return out, dx, grads


def channels_last(x):
    """The same (b, c, h, w) values in channels-last memory."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@pytest.mark.parametrize("layout", ["nchw", "channels_last"])
@pytest.mark.parametrize("need_dx", [True, False])
@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
@pytest.mark.parametrize("nb", [1, 7, 50])
@pytest.mark.parametrize("kernel", [2, 3, 5])
@pytest.mark.parametrize("c", [1, 2, 16])
def test_conv_matches_nchw_reference(c, kernel, nb, dtype, rtol, need_dx, layout):
    """Entries agree to `rtol` of each array's largest entry."""
    def close(got, ref):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max())

    rng = np.random.default_rng((c, kernel, nb))
    f, h, w_ = 3, 9, 8  # h != w and f != c catch swapped axes
    a = rng.normal(size=(nb, c, h, w_)).astype(dtype)
    w = rng.normal(size=(f, c, kernel, kernel)).astype(dtype)
    b = rng.normal(size=f).astype(dtype)
    d = rng.normal(size=(nb, f, h - kernel + 1, w_ - kernel + 1)).astype(dtype)
    if layout == "channels_last":
        a, d = channels_last(a), channels_last(d)
    for relu in (True, False):
        layer = Conv(f, kernel=kernel, relu=relu)
        out, cache = layer.forward(a, w, b)
        for square in (False, True):
            ref_out, ref_dx, ref_grads = reference_conv(layer, a, w, b, d, need_dx, square)
            dx, grads = layer.backward(d, cache, need_dx=need_dx, square=square)
            close(out, ref_out)
            if need_dx:
                close(dx, ref_dx)
            else:
                assert dx is None
            for g, ref in zip(grads, ref_grads):
                close(g, ref)


def test_conv_and_pool_outputs_are_channels_last(monkeypatch):
    """Every conv and pool output of baseline_cnn has channels-last memory."""
    outputs = []
    for cls in (Conv, Pool):
        def recording(self, *args, _forward=cls.forward):
            out, cache = _forward(self, *args)
            outputs.append(out)
            return out, cache
        monkeypatch.setattr(cls, "forward", recording)
    for shape in [(1, 28, 28), (3, 32, 32)]:
        outputs.clear()
        net = Network(baseline_cnn(shape))
        x = np.random.default_rng(7).random((4, *shape)).astype(np.float32)
        net._forward(net.init_params(7), x)
        assert len(outputs) == 4
        for out in outputs:
            assert out.transpose(0, 2, 3, 1).flags.c_contiguous


# 1, 63, 64, 65, 256 and 300 examples fall on both sides of forward's 64-example
# chunks; CIFAR's first conv takes the NCHW branch
@pytest.mark.parametrize("nb", [1, 63, 64, 65, 256, 300])
@pytest.mark.parametrize("shape", [(1, 28, 28), (3, 32, 32)])
def test_chunked_forward_equals_whole_batch_forward(monkeypatch, shape, nb):
    net = Network(baseline_cnn(shape))
    params = net.init_params(nb)
    x = np.random.default_rng(nb).random((nb, *shape)).astype(np.float32)
    whole = net._forward(params, x)[0]
    seen = []  # (layer kind, batch size) of every layer call
    for cls in (Conv, Pool, Dense):
        def recording(self, a, *args, _forward=cls.forward, _cls=cls):
            seen.append((_cls, len(a)))
            return _forward(self, a, *args)
        monkeypatch.setattr(cls, "forward", recording)
    assert np.array_equal(net.forward(params, x), whole)
    chunks = [min(64, nb - i) for i in range(0, nb, 64)]
    assert seen == [(cls, c) for c in chunks for cls in (Conv, Pool, Conv, Pool)] + [
        (Dense, nb), (Dense, nb)]


def test_forward_of_a_dense_first_network_does_not_chunk(monkeypatch):
    net = Network(ModelSpec((1, 4, 4), (Dense(8), Dense(3, relu=False))))
    params = net.init_params(0)
    x = np.random.default_rng(0).random((300, 1, 4, 4)).astype(np.float32)
    inputs = []
    dense_forward = Dense.forward

    def recording(self, a, *args):
        inputs.append(a)
        return dense_forward(self, a, *args)

    monkeypatch.setattr(Dense, "forward", recording)
    logits = net.forward(params, x)
    assert inputs[0] is x  # no slice and concatenate copy of the batch
    assert np.array_equal(logits, net._forward(params, x)[0])


def test_confident_correct_prediction_near_zero_loss():
    spec = ModelSpec((1, 1, 1), (Dense(2, relu=False),))
    net = Network(spec)
    params = np.array([50.0, -50.0, 0.0, 0.0], dtype=np.float32)  # W then b
    batch = Batch(np.ones((1, 1, 1, 1), dtype=np.float32), np.array([0]))
    loss, grad = net.loss_and_grad(params, batch)
    assert loss < 1e-6
    assert np.abs(grad).max() < 1e-6


def test_prox_at_target_contributes_nothing():
    net = Network(tiny_spec())
    params = net.init_params(4)
    batch = Batch(
        np.random.default_rng(4).random((2, 1, 12, 12)).astype(np.float32),
        np.array([1, 7]),
    )
    plain_loss, plain_grad = net.loss_and_grad(params, batch)
    pen_loss, pen_grad = net.loss_and_grad(params, batch, Prox(2.0, params))
    assert pen_loss == plain_loss
    assert np.array_equal(pen_grad, plain_grad)


def test_toy_gradient_matches_finite_differences():
    spec = ModelSpec((1, 1, 1), (Dense(3, relu=False),))
    net = Network(spec, dtype=np.float64)
    rng = np.random.default_rng(5)
    params = rng.normal(size=net.n_params)
    batch = Batch(rng.random((2, 1, 1, 1)), np.array([0, 2]))
    _, grad = net.loss_and_grad(params, batch)
    fd = finite_difference_grad(net, params, batch, None)
    assert_grad_close(grad, fd)


@pytest.mark.parametrize("case_seed", range(20))
def test_random_network_gradients(case_seed):
    net, params, batch, penalty = gradcheck_case(case_seed)
    _, grad = net.loss_and_grad(params, batch, penalty)
    fd = finite_difference_grad(net, params, batch, penalty)
    assert_grad_close(grad, fd)


@pytest.mark.parametrize("case_seed", range(8))
def test_stacked_conv_input_gradient(case_seed):
    net, params, batch, penalty = gradcheck_case(case_seed, specs=STACKED_CONV_SPECS)
    assert net.n_params < 200
    _, grad = net.loss_and_grad(params, batch, penalty)
    fd = finite_difference_grad(net, params, batch, penalty)
    assert_grad_close(grad, fd)


def test_sgd_step_arithmetic():
    p = np.array([1.0, 1.0], dtype=np.float32)
    g = np.array([1.0, 2.0], dtype=np.float32)
    assert np.array_equal(sgd_step(p, g, 0.5), np.array([0.5, 0.0], dtype=np.float32))
    assert np.array_equal(sgd_step(p, g, 0.0), p)
    assert np.array_equal(sgd_step(p, np.zeros(2, dtype=np.float32), 0.3), p)


def test_lr_schedule():
    assert lr_at_round(1, 0.005, 0.99) == pytest.approx(0.005)
    assert lr_at_round(2, 0.005, 0.99) == pytest.approx(0.00495)
    assert lr_at_round(17, 0.1, 1.0) == pytest.approx(0.1)
    with pytest.raises(ConfigError):
        lr_at_round(1, -0.1, 0.99)
    with pytest.raises(ConfigError):
        lr_at_round(1, 0.1, 0.0)


def test_full_batch_sgd_decreases_loss_on_separable_toy():
    spec = ModelSpec((1, 1, 2), (Dense(2, relu=False),))
    net = Network(spec)
    rng = np.random.default_rng(6)
    x = np.zeros((20, 1, 1, 2), dtype=np.float32)
    y = rng.integers(0, 2, 20).astype(np.int64)
    x[np.arange(20), 0, 0, y] = 1.0  # perfectly separable
    batch = Batch(x, y)
    params = net.init_params(6)
    losses = []
    for _ in range(10):
        loss, grad = net.loss_and_grad(params, batch)
        losses.append(loss)
        params = sgd_step(params, grad, 0.5)
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_spec_validation_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        Network(ModelSpec((1, 4, 4), (Conv(2, kernel=5),)))
    with pytest.raises(ConfigError):
        Network(ModelSpec((1, 5, 5), (Pool(),)))
