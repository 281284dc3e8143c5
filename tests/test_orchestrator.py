import os
import sys
import threading

import numpy as np
import pytest

from fedte.data import Dataset, dirichlet_partition, iterate_batches
from fedte.errors import ConfigError, DivergenceError
from fedte.nn import Network, lr_at_round
from fedte.orchestrator import (
    _SEED_BATCH,
    _SEED_FISHER,
    FedConfig,
    RoundRecord,
    aggregate,
    evaluate,
    local_train,
    prepare,
    run_experiment,
    select_clients,
)
from fedte.penalties import FisherDiag, Prox, fisher_diag

from conftest import make_variant, run_fed, runs_equal, synth_dataset, tiny_cfg, tiny_spec


def test_select_clients_count():
    assert len(select_clients(10, 0.2, 1, 0)) == 2
    assert len(select_clients(10, 0.05, 1, 0)) == 1
    assert len(select_clients(7, 1.0, 1, 0)) == 7


def test_select_clients_deterministic_and_valid():
    a = select_clients(10, 0.3, 4, 123)
    b = select_clients(10, 0.3, 4, 123)
    assert a == b
    assert len(set(a)) == len(a)
    assert all(0 <= c < 10 for c in a)
    assert select_clients(10, 0.3, 5, 123) != a or True  # different round may differ


def test_variant_validation():
    with pytest.raises(ConfigError):
        FedConfig(variant="fedsgd")
    with pytest.raises(ConfigError):
        FedConfig(variant="fedprox", alpha=-1)
    with pytest.raises(ConfigError):
        FedConfig(variant="fedprox-te", beta=1.0)
    assert FedConfig(variant="fedcl-te", alpha=0.1, beta=0.6).uses_fisher
    assert FedConfig(variant="fedcl-te", alpha=0.1, beta=0.6).uses_ensemble
    assert not FedConfig(variant="fedprox", alpha=1.0).uses_ensemble
    assert not FedConfig(variant="fedprox").uses_fisher


@pytest.mark.parametrize("field, value, named", [
    ("alpha", float("nan"), "alpha"), ("alpha", float("inf"), "alpha"),
    ("beta", float("nan"), "beta"), ("beta", -0.1, "beta"),
    ("ratio", 0.0, "ratio"), ("ratio", float("nan"), "ratio"),
    ("clients", 0, "clients"), ("epochs", 0, "epochs"), ("batch", 0, "batch"),
    ("rounds", 0, "rounds"), ("fisher_samples", -3, "fisher_samples"),
    ("seed", -1, "seed"),
    ("lr", 0.0, "lr schedule"), ("lr", float("nan"), "lr schedule"),
    ("lr", float("inf"), "lr schedule"), ("lr_decay", 1.5, "lr schedule"),
])
def test_fed_config_rejects_each_bad_option(field, value, named):
    with pytest.raises(ConfigError, match=named):
        FedConfig(**{field: value})


def test_aggregate_arithmetic():
    eq = aggregate(
        [np.array([0.0], np.float32), np.array([3.0], np.float32)], [1, 2]
    )
    assert np.allclose(eq, [2.0])
    mean = aggregate(
        [np.array([1.0, 2.0], np.float32), np.array([3.0, 6.0], np.float32)], [5, 5]
    )
    assert np.allclose(mean, [2.0, 4.0])


def test_aggregate_errors():
    with pytest.raises(ConfigError):
        aggregate([], [])
    with pytest.raises(ConfigError):
        aggregate([np.zeros(2, np.float32)], [0])


@pytest.mark.parametrize("seed", range(5))
def test_aggregate_matches_float64_oracle(seed):
    rng = np.random.default_rng(seed)
    models = [rng.normal(size=50).astype(np.float32) for _ in range(4)]
    counts = rng.integers(1, 100, 4).tolist()
    out = aggregate(models, counts)
    oracle = np.average(
        np.array(models, dtype=np.float64), axis=0, weights=counts
    )
    assert np.abs(out - oracle).max() < 1e-6
    stack = np.array(models)
    assert np.all(out >= stack.min(axis=0))
    assert np.all(out <= stack.max(axis=0))


def test_aggregate_order_invariance():
    rng = np.random.default_rng(9)
    models = [rng.normal(size=30).astype(np.float32) for _ in range(6)]
    counts = [3, 1, 4, 1, 5, 9]
    fwd = aggregate(models, counts)
    rev = aggregate(models[::-1], counts[::-1])
    assert np.abs(fwd - rev).max() < 1e-6


def test_local_train_replay_matches_manual_loop():
    # local_train is one SGD step per batch; replaying the same schedule by
    # hand must give identical parameters (also pins the step count)
    from fedte.data import iterate_batches
    from fedte.nn import sgd_step

    ds = synth_dataset(100, 0)
    net = Network(tiny_spec())
    (shard,) = dirichlet_partition(ds, 1, 1.0, 0)
    g = net.init_params(0)
    penalty = Prox(0.3, g)
    out, n_k = local_train(net, g, ds, shard, penalty, epochs=2, batch_size=50,
                           lr=0.05, seed=(1, 2))
    assert n_k == 100

    params = g.copy()
    steps = 0
    for epoch in range(2):
        for batch in iterate_batches(ds, shard, 50, seed=(1, 2, epoch)):
            _, grad = net.loss_and_grad(params, batch, penalty)
            params = sgd_step(params, grad, 0.05)
            steps += 1
    assert steps == 4
    assert np.array_equal(out, params)


def test_strong_anchor_pins_parameters():
    ds = synth_dataset(60, 1)
    net = Network(tiny_spec())
    (shard,) = dirichlet_partition(ds, 1, 1.0, 1)
    g = net.init_params(1)
    out, _ = local_train(net, g, ds, shard, Prox(1e6, g), epochs=1,
                         batch_size=20, lr=1e-7, seed=(0,))
    assert np.abs(out - g).max() < 1e-2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_local_train_divergence_error():
    ds = synth_dataset(40, 2)
    net = Network(tiny_spec())
    (shard,) = dirichlet_partition(ds, 1, 1.0, 2)
    g = np.full(net.n_params, np.float32(1e30))
    with pytest.raises(DivergenceError) as err:
        local_train(net, g, ds, shard, None, epochs=1, batch_size=20,
                    lr=1e20, seed=(0,), round_idx=3, client_id=1)
    assert err.value.round_idx == 3
    assert err.value.client_id == 1


def test_run_experiment_deterministic():
    train, test = synth_dataset(300, 0), synth_dataset(100, 1)
    net = Network(tiny_spec())
    cfg = tiny_cfg(make_variant("fedprox-te", alpha=0.5, beta=0.4))
    assert runs_equal(run_fed(cfg, train, test, net), run_fed(cfg, train, test, net))


def test_round_records_well_formed():
    train, test = synth_dataset(300, 2), synth_dataset(100, 3)
    net = Network(tiny_spec())
    cfg = tiny_cfg(make_variant("fedcl-te", alpha=0.2, beta=0.3), rounds=3)
    seen = []

    def on_round(state):
        seen.append((list(state.records), state.global_params.copy()))

    records = run_experiment(cfg, prepare(cfg, train, net), test, net, on_round=on_round)
    assert [r.round for r in records] == [1, 2, 3]
    assert [done for done, _ in seen] == [records[:t] for t in (1, 2, 3)]
    for rec, (_, params) in zip(records, seen):
        assert len(rec.selected) == 2  # floor(0.4 * 5)
        assert 0.0 <= rec.test_accuracy <= 1.0
        assert params.shape == (net.n_params,)
        assert np.all(np.isfinite(params))


def test_reduction_lattice():
    train, test = synth_dataset(300, 4), synth_dataset(100, 5)
    net = Network(tiny_spec())

    def run(variant, **kw):
        return run_fed(tiny_cfg(variant), train, test, net, **kw)

    fedavg = run(make_variant("fedavg"))
    prox0 = run(make_variant("fedprox", alpha=0.0))
    prox = run(make_variant("fedprox", alpha=0.5))
    prox_te0 = run(make_variant("fedprox-te", alpha=0.5, beta=0.0))
    fedcl = run(make_variant("fedcl", alpha=0.5))
    fedcl_te0 = run(make_variant("fedcl-te", alpha=0.5, beta=0.0))
    fedcl_ones = run(
        make_variant("fedcl", alpha=0.5),
        fisher_fn=lambda net, p, ds, m, s: np.ones_like(p),
    )

    assert runs_equal(prox0, fedavg)
    assert runs_equal(prox_te0, prox)
    assert runs_equal(fedcl_te0, fedcl)
    assert runs_equal(fedcl_ones, prox)
    # the penalties do change the trajectory when active
    assert not runs_equal(prox, fedavg)


def test_variants_share_client_selection():
    train, test = synth_dataset(300, 6), synth_dataset(100, 7)
    net = Network(tiny_spec())
    a, _ = run_fed(tiny_cfg(make_variant("fedavg")), train, test, net)
    b, _ = run_fed(tiny_cfg(make_variant("fedprox", alpha=1.0)), train, test, net)
    assert [r.selected for r in a] == [r.selected for r in b]


def test_evaluate_empty_dataset_raises():
    net = Network(tiny_spec())
    with pytest.raises(ConfigError):
        evaluate(net, net.init_params(0), synth_dataset(0, 0))


# -- concurrent clients ------------------------------------------------------

def three_client_cfg(kind, **overrides):
    """A -TE config that selects 3 of 6 clients per round."""
    return tiny_cfg(make_variant(kind, alpha=0.5, beta=0.4), clients=6, ratio=0.5,
                    **overrides)


def use_cpus(monkeypatch, cpus):
    """Make `cpus` CPUs usable to run_experiment, with one BLAS thread per
    call as the environment sets it; None leaves the host's CPU count."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)


def sequential_run(cfg, train, test, net):
    """A -TE run as one plain loop of local_train and aggregate per round."""
    state = prepare(cfg, train, net)
    records, models = [], []
    for t in range(1, cfg.rounds + 1):
        lr = lr_at_round(t, cfg.lr, cfg.lr_decay)
        selected = select_clients(cfg.clients, cfg.ratio, t, cfg.seed)
        if cfg.uses_fisher:
            fisher = fisher_diag(net, state.target, state.proxy, cfg.fisher_samples,
                                 (cfg.seed, _SEED_FISHER, t))
            penalty = FisherDiag(cfg.alpha, state.target, fisher)
        else:
            penalty = Prox(cfg.alpha, state.target)
        trained = [
            local_train(net, state.global_params, state.train, state.shards[k], penalty,
                        cfg.epochs, cfg.batch, lr, seed=(cfg.seed, _SEED_BATCH, t, k),
                        round_idx=t, client_id=k)
            for k in selected
        ]
        state.global_params = aggregate([p for p, _ in trained], [n for _, n in trained])
        state.target = state.tracker.update(state.global_params)
        accuracy, loss = evaluate(net, state.global_params, test)
        records.append(RoundRecord(t, selected, accuracy, loss, lr))
        models.append(state.global_params.copy())
    return records, models


@pytest.mark.parametrize("cpus", [None, 1, 2, 8], ids=["host", "1cpu", "2cpu", "8cpu"])
@pytest.mark.parametrize("kind", ["fedprox-te", "fedcl-te"])
def test_concurrent_clients_equal_sequential_loop(monkeypatch, kind, cpus):
    use_cpus(monkeypatch, cpus)
    train, test = synth_dataset(300, 10), synth_dataset(100, 11)
    net = Network(tiny_spec())
    cfg = three_client_cfg(kind)
    got = run_fed(cfg, train, test, net)
    expected = sequential_run(cfg, train, test, net)
    assert all(len(r.selected) == 3 for r in got[0])
    assert [r.lr for r in got[0]] == [r.lr for r in expected[0]]
    assert runs_equal(got, expected)


def test_more_client_threads_than_cores_equal_sequential_loop(monkeypatch):
    # 12 clients on 12 threads, switching every 10 us: a client that read
    # another's batch, penalty or result would break the bitwise equality
    use_cpus(monkeypatch, 16)
    train, test = synth_dataset(300, 16), synth_dataset(100, 17)
    net = Network(tiny_spec())
    cfg = tiny_cfg(make_variant("fedprox-te", alpha=0.5, beta=0.4), clients=12,
                   ratio=1.0, rounds=2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = run_fed(cfg, train, test, net)
    finally:
        sys.setswitchinterval(switch)
    assert all(len(r.selected) == 12 for r in got[0])
    assert runs_equal(got, sequential_run(cfg, train, test, net))


def poisoned_state(cfg, train, net):
    """Round 1's state with NaN pixels: the 3rd selected client diverges at step
    0 and the 2nd at the last step of its first epoch. Returns (state, 2nd
    client, its failing step)."""
    state = prepare(cfg, train, net)
    _, second, third = select_clients(cfg.clients, cfg.ratio, 1, cfg.seed)
    # a dataset whose images are their own row numbers gives the batch order
    rows = Dataset(np.arange(len(state.train), dtype=np.float32).reshape(-1, 1, 1, 1),
                   state.train.labels)
    batches = list(iterate_batches(rows, state.shards[second], cfg.batch,
                                   seed=(cfg.seed, _SEED_BATCH, 1, second, 0)))
    state.train.images[int(batches[-1].inputs[0, 0, 0, 0])] = np.nan
    state.train.images[state.shards[third].indices] = np.nan
    return state, second, len(batches) - 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cpus", [None, 1, 2, 8], ids=["host", "1cpu", "2cpu", "8cpu"])
def test_first_diverging_client_in_selection_order_is_reported(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    train, test = synth_dataset(300, 12), synth_dataset(100, 13)
    net = Network(tiny_spec())
    cfg = three_client_cfg("fedprox-te", batch=16, rounds=2)

    state, second, step = poisoned_state(cfg, train, net)
    penalty = Prox(cfg.alpha, state.target)
    lr = lr_at_round(1, cfg.lr, cfg.lr_decay)
    with pytest.raises(DivergenceError) as sequential:
        for k in select_clients(cfg.clients, cfg.ratio, 1, cfg.seed):
            local_train(net, state.global_params, state.train, state.shards[k], penalty,
                        cfg.epochs, cfg.batch, lr, seed=(cfg.seed, _SEED_BATCH, 1, k),
                        round_idx=1, client_id=k)
    assert (sequential.value.client_id, sequential.value.step) == (second, step)
    assert step > 0  # the 3rd client fails at step 0, so a mix-up would show

    state, _, _ = poisoned_state(cfg, train, net)
    with pytest.raises(DivergenceError) as err:
        run_experiment(cfg, state, test, net)
    assert (err.value.round_idx, err.value.client_id, err.value.step) == (1, second, step)
    assert state.records == []


class Stop(Exception):
    pass


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_no_client_thread_outlives_run_experiment(monkeypatch):
    use_cpus(monkeypatch, 2)
    train, test = synth_dataset(300, 14), synth_dataset(100, 15)
    net = Network(tiny_spec())
    cfg = three_client_cfg("fedprox-te", batch=16, rounds=2)
    before = set(threading.enumerate())
    alive = []

    def on_round(state):
        alive.append(len(set(threading.enumerate()) - before))

    run_experiment(cfg, prepare(cfg, train, net), test, net, on_round=on_round)
    assert alive == [1, 1]  # one pool thread next to this one, for the whole run
    assert set(threading.enumerate()) == before

    state, _, _ = poisoned_state(cfg, train, net)
    with pytest.raises(DivergenceError):
        run_experiment(cfg, state, test, net)
    assert set(threading.enumerate()) == before

    def stop(state):
        raise Stop

    with pytest.raises(Stop):
        run_experiment(cfg, prepare(cfg, train, net), test, net, on_round=stop)
    assert set(threading.enumerate()) == before


def pool_threads(monkeypatch, blas_env):
    """Threads beside this one while a run of 3 selected clients on 8 usable
    CPUs trains, with only `blas_env` of the BLAS thread variables set."""
    use_cpus(monkeypatch, 8)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in blas_env.items():
        monkeypatch.setenv(name, value)
    train, test = synth_dataset(300, 18), synth_dataset(100, 19)
    net = Network(tiny_spec())
    cfg = three_client_cfg("fedprox-te", rounds=1)
    before = set(threading.enumerate())
    alive = []

    def on_round(state):
        alive.append(len(set(threading.enumerate()) - before))

    run_experiment(cfg, prepare(cfg, train, net), test, net, on_round=on_round)
    return alive[0]


@pytest.mark.parametrize("blas_env", [
    {},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"},
    {"OMP_NUM_THREADS": "0"},
], ids=["unset", "openblas2", "openblas-over-omp", "omp0"])
def test_clients_train_one_at_a_time_unless_blas_runs_one_thread(monkeypatch,
                                                                  blas_env):
    # client threads that each start multithreaded BLAS calls oversubscribe
    # the CPUs, so only a BLAS thread count of one gets a pool
    assert pool_threads(monkeypatch, blas_env) == 0


@pytest.mark.parametrize("blas_env", [
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OMP_NUM_THREADS": "1"},
    {"GOTO_NUM_THREADS": " 1 ", "OMP_NUM_THREADS": "4"},
], ids=["openblas1", "omp1", "goto-over-omp"])
def test_clients_train_concurrently_when_blas_runs_one_thread(monkeypatch, blas_env):
    # this thread trains the 1st of 3 selected clients, two pool threads the rest
    assert pool_threads(monkeypatch, blas_env) == 2
