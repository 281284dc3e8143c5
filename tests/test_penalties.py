import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fedte.data import Dataset
from fedte.nn import Batch, Dense, ModelSpec, Network, baseline_cnn
from fedte.penalties import FisherDiag, Prox, fisher_diag

from conftest import GRADCHECK_SPECS, STACKED_CONV_SPECS, synth_dataset, tiny_spec


def loop_fisher_diag(net, params, ds, max_samples, seed):
    """Reference Fisher: one single-example backward pass per example.

    Same subsampling and ascending order as `fisher_diag`; squares each
    example's flat gradient and accumulates in float64.
    """
    n = len(ds)
    if n > max_samples:
        idx = np.sort(np.random.default_rng(seed).choice(n, size=max_samples,
                                                         replace=False))
    else:
        idx = np.arange(n)
    acc = np.zeros(net.n_params, dtype=np.float64)
    for i in idx:
        _, grad = net.loss_and_grad(
            params, Batch(ds.images[i:i + 1], ds.labels[i:i + 1])
        )
        acc += grad.astype(np.float64) ** 2
    return (acc / idx.size).astype(params.dtype)


def assert_fisher_close(batched, loop, rtol=1e-5):
    assert batched.dtype == loop.dtype
    err = np.abs(batched.astype(np.float64) - loop).max()
    assert err <= rtol * np.abs(loop).max(), f"fisher error {err}"


def rand_vec(n, seed):
    return np.random.default_rng(seed).normal(size=n).astype(np.float32)


def test_value_zero_at_target():
    t = rand_vec(6, 0)
    f = np.abs(rand_vec(6, 1))
    assert Prox(1.3, t).value(t) == 0.0
    assert FisherDiag(1.3, t, f).value(t) == 0.0
    assert np.all(Prox(1.3, t).grad(t) == 0)
    assert np.all(FisherDiag(1.3, t, f).grad(t) == 0)


def test_prox_arithmetic():
    t = np.zeros(2, dtype=np.float32)
    w = np.array([1.0, 2.0], dtype=np.float32)
    assert Prox(1.0, t).value(w) == pytest.approx(5.0)
    assert np.allclose(Prox(0.5, np.zeros(1, np.float32)).grad(
        np.array([3.0], np.float32)), [3.0])


def test_fisher_all_ones_reduces_to_prox():
    t = rand_vec(20, 2)
    w = rand_vec(20, 3)
    ones = np.ones(20, dtype=np.float32)
    assert FisherDiag(0.7, t, ones).value(w) == Prox(0.7, t).value(w)
    assert np.array_equal(FisherDiag(0.7, t, ones).grad(w), Prox(0.7, t).grad(w))


@pytest.mark.parametrize("seed", range(10))
def test_penalty_grad_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n = 10
    w = rng.normal(size=n)
    t = rng.normal(size=n)
    f = rng.uniform(0, 2, n)
    alpha = float(rng.uniform(0, 3))
    for pen in (Prox(alpha, t), FisherDiag(alpha, t, f)):
        fd = np.zeros(n)
        h = 1e-6
        for i in range(n):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd[i] = (pen.value(wp) - pen.value(wm)) / (2 * h)
        assert np.abs(pen.grad(w) - fd).max() < 1e-6 * max(1.0, np.abs(fd).max())


def test_fisher_diag_nonnegative():
    net = Network(tiny_spec())
    ds = synth_dataset(30, 0)
    fd = fisher_diag(net, net.init_params(0), ds, max_samples=30, seed=0)
    assert fd.shape == (net.n_params,)
    assert np.all(fd >= 0)
    assert np.all(np.isfinite(fd))


def test_fisher_logistic_symbolic_oracle():
    # 2-class softmax with logits (w x, 0) is a logistic model in w:
    # d log p(y=1 | x) / dw = (1 - sigmoid(w x)) x, so the empirical Fisher
    # entry for w on one example with true label 1 is (1 - sigmoid(w x))^2 x^2.
    spec = ModelSpec((1, 1, 1), (Dense(2, relu=False),))
    net = Network(spec, dtype=np.float64)
    w, x = 0.8, 1.7
    params = np.array([w, 0.0, 0.0, 0.0])  # weights [w, 0], biases 0
    ds = Dataset(
        np.full((1, 1, 1, 1), x, dtype=np.float32),
        np.array([0], dtype=np.int64),
    )
    fd = fisher_diag(net, params, ds, max_samples=1, seed=0)
    sigma = 1.0 / (1.0 + np.exp(-w * x))
    assert fd[0] == pytest.approx((1 - sigma) ** 2 * x ** 2, rel=1e-6)


def test_fisher_duplication_invariance():
    net = Network(tiny_spec())
    params = net.init_params(1)
    ds = synth_dataset(16, 1)
    doubled = Dataset(
        np.concatenate([ds.images, ds.images]),
        np.concatenate([ds.labels, ds.labels]),
    )
    a = fisher_diag(net, params, ds, max_samples=64, seed=0)
    b = fisher_diag(net, params, doubled, max_samples=64, seed=0)
    assert np.array_equal(a, b)


def test_fisher_order_invariance():
    net = Network(tiny_spec())
    params = net.init_params(2)
    ds = synth_dataset(20, 2)
    perm = np.random.default_rng(0).permutation(20)
    shuffled = Dataset(ds.images[perm], ds.labels[perm])
    a = fisher_diag(net, params, ds, max_samples=64, seed=0)
    b = fisher_diag(net, params, shuffled, max_samples=64, seed=0)
    assert np.allclose(a, b, rtol=1e-6)


def test_fisher_subsampling_deterministic():
    net = Network(tiny_spec())
    params = net.init_params(3)
    ds = synth_dataset(50, 3)
    a = fisher_diag(net, params, ds, max_samples=10, seed=7)
    b = fisher_diag(net, params, ds, max_samples=10, seed=7)
    c = fisher_diag(net, params, ds, max_samples=10, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# 1, 63, 64, 65 and 256 examples fall on both sides of the 64-example chunks
@pytest.mark.parametrize("samples", [1, 63, 64, 65, 256])
@pytest.mark.parametrize("shape", [(1, 28, 28), (3, 32, 32)])
def test_fisher_matches_loop_oracle_baseline_cnn(shape, samples):
    net = Network(baseline_cnn(shape))
    params = net.init_params(samples)
    ds = synth_dataset(300, samples, shape=shape)
    assert_fisher_close(
        fisher_diag(net, params, ds, max_samples=samples, seed=4),
        loop_fisher_diag(net, params, ds, max_samples=samples, seed=4),
    )


@pytest.mark.parametrize("spec", GRADCHECK_SPECS + STACKED_CONV_SPECS)
def test_fisher_matches_loop_oracle_small_specs(spec):
    net = Network(spec, dtype=np.float64)
    rng = np.random.default_rng(9)
    params = rng.normal(0, 0.5, net.n_params)
    n = 130
    ds = Dataset(rng.random((n, *spec.input_shape)).astype(np.float32),
                 rng.integers(0, net.output_dim, n))
    assert_fisher_close(
        fisher_diag(net, params, ds, max_samples=n, seed=0),
        loop_fisher_diag(net, params, ds, max_samples=n, seed=0),
    )


# 63, 65 and 300 are no multiple of the 64-example chunks: the last is short
@pytest.mark.parametrize("samples", [63, 65, 300])
def test_fisher_on_a_pool_equals_sequential(samples):
    net = Network(baseline_cnn((1, 28, 28)))
    params = net.init_params(samples)
    ds = synth_dataset(400, samples, shape=(1, 28, 28))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(2) as pool:
            pooled = fisher_diag(net, params, ds, max_samples=samples, seed=4, map=pool.map)
    finally:
        sys.setswitchinterval(switch)
    assert np.array_equal(pooled, fisher_diag(net, params, ds, max_samples=samples, seed=4))
