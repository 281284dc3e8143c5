"""Acceptance suite: one test per release criterion.

Fast criteria (1-7, 11) need no external data except criterion 5, which uses
the real MNIST label distribution, and criterion 7, which falls back to a
synthetic IDX fixture when MNIST is absent. The long desk-scale reproductions
(8, 9) and the CIFAR-10 smoke run (10) require downloaded datasets and are
additionally gated behind FEDTE_RUN_FULL / FEDTE_RUN_SLOW because they take
hours on a CPU.
"""

import os
import statistics

import numpy as np
import pytest

from fedte import penalties
from fedte.analysis import converged_accuracy, pca_trajectory, rounds_to_accuracy
from fedte.cli import load_dataset, main
from fedte.data import dirichlet_partition, iterate_batches, split_proxy
from fedte.nn import Network, baseline_cnn, lr_at_round, sgd_step
from fedte.orchestrator import (
    _SEED_BATCH,
    _SEED_INIT,
    _SEED_PARTITION,
    _SEED_PROXY,
    aggregate,
    prepare,
    run_experiment,
)
from fedte.target import TargetTracker

from conftest import (
    assert_grad_close,
    ensemble_target,
    ensemble_weights,
    finite_difference_grad,
    gradcheck_case,
    make_variant,
    run_fed,
    runs_equal,
    synth_dataset,
    tiny_cfg,
    tiny_spec,
    write_idx_dataset,
)

RUN_FULL = os.environ.get("FEDTE_RUN_FULL") == "1"
RUN_SLOW = os.environ.get("FEDTE_RUN_SLOW") == "1"


def report(criterion, message):
    print(f"[acceptance] criterion {criterion}: PASS ({message})")


def test_criterion_1_gradient_oracle():
    for case_seed in range(100):
        net, params, batch, penalty = gradcheck_case(case_seed)
        _, grad = net.loss_and_grad(params, batch, penalty)
        fd = finite_difference_grad(net, params, batch, penalty, h=1e-3)
        assert_grad_close(grad, fd, rtol=1e-4)
    report(1, "100 random networks incl. penalty variants, rtol 1e-4")


def test_criterion_2_ensemble_oracle():
    rng = np.random.default_rng(0)
    for beta in (0.0, 0.2, 0.4, 0.6, 0.9):
        history = [rng.normal(size=6).astype(np.float32) for _ in range(50)]
        tracker = TargetTracker(beta)
        for t, g in enumerate(history, start=1):
            w = ensemble_weights(t, beta)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12
            current = tracker.update(g)
            oracle = ensemble_target(history[:t], beta)
            scale = max(np.abs(oracle).max(), 1e-12)
            assert np.abs(current - oracle).max() <= 1e-6 * scale
    report(2, "tracker == closed-form weighted sum, t<=50, 5 momenta")


def test_criterion_3_reduction_lattice(monkeypatch):
    train, test = synth_dataset(500, 30), synth_dataset(150, 31)
    net = Network(tiny_spec())

    def run(variant):
        return run_fed(tiny_cfg(variant, rounds=5), train, test, net)

    fedavg = run(make_variant("fedavg"))
    prox0 = run(make_variant("fedprox", alpha=0.0))
    prox = run(make_variant("fedprox", alpha=0.5))
    prox_te0 = run(make_variant("fedprox-te", alpha=0.5, beta=0.0))
    fedcl = run(make_variant("fedcl", alpha=0.5))
    fedcl_te0 = run(make_variant("fedcl-te", alpha=0.5, beta=0.0))
    monkeypatch.setattr(penalties, "fisher_diag",
                        lambda net, p, ds, m, s, map=map: np.ones_like(p))
    fedcl_ones = run(make_variant("fedcl", alpha=0.5))

    assert runs_equal(prox0, fedavg)
    assert runs_equal(prox_te0, prox)
    assert runs_equal(fedcl_te0, fedcl)
    assert runs_equal(fedcl_ones, prox)
    report(3, "4 variant reductions bitwise-identical on 500-example synthetic")


def test_criterion_4_aggregation_oracle():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        k = int(rng.integers(1, 8))
        dim = int(rng.integers(1, 40))
        models = [rng.normal(0, 10, dim).astype(np.float32) for _ in range(k)]
        counts = rng.integers(1, 1000, k).tolist()
        out = aggregate(models, counts)
        oracle = np.average(np.array(models, dtype=np.float64), axis=0,
                            weights=counts)
        assert np.abs(out - oracle).max() < 1e-6 * max(1.0, np.abs(oracle).max())
        stack = np.array(models)
        assert np.all(out >= stack.min(axis=0))
        assert np.all(out <= stack.max(axis=0))
    report(4, "1000 random weighted means vs float64 brute force + hull bound")


def test_criterion_5_partition_on_mnist_labels(mnist_dir):
    train, _ = load_dataset("mnist", mnist_dir)
    prior = np.bincount(train.labels, minlength=10) / len(train)
    deviations = {}
    for gamma in (0.1, 100.0):
        total = 0.0
        for seed in range(5):
            shards = dirichlet_partition(train.labels, 10, gamma, seed)
            merged = np.concatenate(shards)
            assert np.array_equal(np.sort(merged), np.arange(len(train)))
            total += np.mean([
                np.abs(np.bincount(train.labels[rows], minlength=10) / rows.size
                       - prior).sum()
                for rows in shards
            ])
        deviations[gamma] = total / 5
    assert deviations[100.0] < deviations[0.1]
    report(5, f"conservation + monotone deviation "
              f"{deviations[100.0]:.3f} < {deviations[0.1]:.3f}")


def test_criterion_6_pca_gram_trick():
    rng = np.random.default_rng(6)
    for _ in range(5):
        models = [rng.normal(size=1000) for _ in range(5)]
        traj = pca_trajectory(models)
        x = np.array(models)
        xc = x - x.mean(axis=0)
        evals, evecs = np.linalg.eigh(xc.T @ xc)
        order = np.argsort(evals)[::-1]
        for i in range(2):
            direct = evecs[:, order[i]]
            err = min(np.abs(traj.components[i] - direct).max(),
                      np.abs(traj.components[i] + direct).max())
            assert err < 1e-6

    direction = rng.normal(size=1000)
    rank1 = [i * direction for i in range(5)]
    assert pca_trajectory(rank1).explained_variance_ratio[1] < 1e-8
    report(6, "gram-trick PCA == direct eigendecomposition; rank-1 detected")


def test_criterion_7_end_to_end_determinism(tmp_path):
    data_root = os.environ.get("FEDTE_DATA_DIR", os.path.join(os.getcwd(), "data"))
    mnist = os.path.join(data_root, "mnist")
    if os.path.isdir(mnist):
        data_dir = mnist
        source = "mnist"
    else:
        data_dir = write_idx_dataset(str(tmp_path / "data"), n_train=500,
                                     n_test=100, side=28)
        source = "synthetic idx"
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "run", "--dataset", "mnist", "--data-dir", data_dir,
            "--out-dir", str(out), "--variant", "fedprox-te",
            "--alpha", "1", "--beta", "0.2", "--rounds", "10",
            "--limit-train", "500", "--limit-test", "200",
            "--proxy-fraction", "0.05", "--seed", "1",
        ]) == 0
        payloads.append(
            (out / "fedprox-te_seed1" / "metrics.csv").read_bytes()
        )
    assert payloads[0] == payloads[1]
    report(7, f"two 10-round runs byte-identical ({source}, 500 examples)")


def _rounds_to(variant, threshold, seeds, cfg_kwargs, train, test, max_rounds):
    results = []
    for seed in seeds:
        cfg = tiny_cfg(variant, seed=seed, rounds=max_rounds, **cfg_kwargs)
        net = Network(baseline_cnn(train.input_shape))
        records = run_experiment(cfg, *prepare(cfg, train, net), test, net)
        accuracy = [r.test_accuracy for r in records]
        results.append((rounds_to_accuracy(accuracy, threshold), records))
    return results


@pytest.mark.skipif(not RUN_FULL, reason="multi-hour run; set FEDTE_RUN_FULL=1")
def test_criterion_8_mnist_te_speedup(mnist_dir):
    train, test = load_dataset("mnist", mnist_dir)
    kwargs = dict(clients=10, ratio=0.2, epochs=2, batch=50,
                  lr=0.005, lr_decay=0.99, gamma=1.0, proxy_fraction=0.01,
                  fisher_samples=1024)
    base, te = [], []
    for seed in (1, 2, 3):
        base.append(_rounds_to(make_variant("fedprox", alpha=1.0), 0.95,
                               [seed], kwargs, train, test, 300)[0][0])
        te.append(_rounds_to(make_variant("fedprox-te", alpha=1.0, beta=0.2),
                             0.95, [seed], kwargs, train, test, 300)[0][0])
    assert all(r is not None for r in base + te), (base, te)
    base_m, te_m = statistics.median(base), statistics.median(te)
    assert te_m <= 0.9 * base_m, (base_m, te_m)
    report(8, f"median rounds to 95%: fedprox {base_m}, fedprox-te {te_m}")


@pytest.mark.skipif(not RUN_FULL, reason="multi-hour run; set FEDTE_RUN_FULL=1")
def test_criterion_9_fashion_fedcl_te(fashion_dir):
    train, test = load_dataset("fashion", fashion_dir)
    kwargs = dict(clients=10, ratio=0.2, epochs=2, batch=50,
                  lr=0.005, lr_decay=0.99, gamma=1.0, proxy_fraction=0.01,
                  fisher_samples=1024)
    base_rounds, te_rounds, base_conv, te_conv = [], [], [], []
    for seed in (1, 2, 3):
        (rb, recs_b), = _rounds_to(make_variant("fedcl", alpha=0.1), 0.80,
                                   [seed], kwargs, train, test, 300)
        (rt, recs_t), = _rounds_to(make_variant("fedcl-te", alpha=0.1, beta=0.6),
                                   0.80, [seed], kwargs, train, test, 300)
        base_rounds.append(rb)
        te_rounds.append(rt)
        base_conv.append(converged_accuracy([r.test_accuracy for r in recs_b], 20))
        te_conv.append(converged_accuracy([r.test_accuracy for r in recs_t], 20))
    assert all(r is not None for r in base_rounds + te_rounds)
    assert statistics.median(te_rounds) <= 0.95 * statistics.median(base_rounds)
    assert (statistics.median(te_conv)
            >= statistics.median(base_conv) + 0.01)
    report(9, f"rounds to 80%: {statistics.median(base_rounds)} -> "
              f"{statistics.median(te_rounds)}; converged acc "
              f"{statistics.median(base_conv):.3f} -> "
              f"{statistics.median(te_conv):.3f}")


@pytest.mark.skipif(not RUN_SLOW, reason="~1h CPU run; set FEDTE_RUN_SLOW=1")
def test_criterion_10_cifar_smoke(cifar_dir):
    train, test = load_dataset("cifar10", cifar_dir)
    cfg = tiny_cfg(
        make_variant("fedprox-te", alpha=0.4, beta=0.4),
        clients=10, ratio=0.2, epochs=2, batch=50, rounds=30,
        lr=0.005, lr_decay=0.99, gamma=10.0, proxy_fraction=0.01,
        fisher_samples=1024, seed=1,
    )
    net = Network(baseline_cnn(train.input_shape))
    records = run_experiment(cfg, *prepare(cfg, train, net), test, net)
    assert len(records) == 30
    assert all(np.isfinite(r.test_loss) for r in records)
    report(10, f"30-round CIFAR10 run finished, final acc "
               f"{records[-1].test_accuracy:.3f}")


def test_criterion_11_centralized_reduction():
    train, test = synth_dataset(400, 110), synth_dataset(100, 111)
    net = Network(tiny_spec())
    seed = 7
    cfg = tiny_cfg(make_variant("fedavg"), seed=seed, rounds=5,
                   clients=1, ratio=1.0, epochs=1, batch=32,
                   lr=0.05, lr_decay=0.99, proxy_fraction=0.05)
    _, models = run_fed(cfg, train, test, net)

    # centralized SGD over the same (post-proxy-split) training data
    train_rows, _ = split_proxy(train.labels, cfg.proxy_fraction, seed=(seed, _SEED_PROXY))
    (pos,) = dirichlet_partition(train.labels[train_rows], 1, cfg.gamma,
                                 (seed, _SEED_PARTITION))
    params = net.init_params((seed, _SEED_INIT))
    for t in range(1, cfg.rounds + 1):
        lr = lr_at_round(t, cfg.lr, cfg.lr_decay)
        for batch in iterate_batches(train, train_rows[pos], cfg.batch,
                                     seed=(seed, _SEED_BATCH, t, 0, 0)):
            _, grad = net.loss_and_grad(params, batch)
            params = sgd_step(params, grad, lr)
        assert np.array_equal(models[t - 1], params)
    report(11, "K=1 C=1 E=1 federated run bitwise equals centralized SGD")
