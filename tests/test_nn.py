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
    assert np.array_equal(net.flatten(net.unflatten(v)), v)


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
