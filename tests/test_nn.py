import numpy as np
import pytest

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


def test_sgd_step_length_mismatch():
    with pytest.raises(ConfigError):
        sgd_step(np.zeros(3, dtype=np.float32), np.zeros(2, dtype=np.float32), 0.1)


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
