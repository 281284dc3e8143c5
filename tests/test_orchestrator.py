import copy
import functools
import os
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from fedte import orchestrator, penalties
from fedte.data import (
    Dataset,
    _pixels,
    dirichlet_partition,
    iterate_batches,
    load_idx,
    split_proxy,
)
from fedte.errors import ConfigError, DivergenceError
from fedte.nn import Conv, Dense, ModelSpec, Network, Pool, baseline_cnn, lr_at_round
from fedte.orchestrator import (
    EVAL_BATCH,
    _SEED_BATCH,
    _SEED_FISHER,
    _SEED_PROXY,
    FedConfig,
    _map_in_order,
    _openblas,
    RoundRecord,
    Split,
    aggregate,
    evaluate,
    local_train,
    prepare,
    run_experiment,
    run_round,
    select_clients,
)
from fedte.penalties import FisherDiag, Prox, fisher_diag

from conftest import (
    make_variant,
    run_fed,
    runs_equal,
    synth_dataset,
    tiny_cfg,
    tiny_spec,
    write_idx_dataset,
)


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
    assert select_clients(10, 0.3, 5, 123) != a  # rounds 4 and 5 draw apart at seed 123


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
    ("ratio", 0.0, "ratio"), ("ratio", 1.5, "ratio"), ("ratio", float("nan"), "ratio"),
    ("clients", 0, "clients"), ("epochs", 0, "epochs"), ("batch", 0, "batch"),
    ("rounds", 0, "rounds"), ("fisher_samples", -3, "fisher_samples"),
    ("seed", -1, "seed"),
    ("lr", 0.0, "lr schedule"), ("lr", float("nan"), "lr schedule"),
    ("lr", float("inf"), "lr schedule"), ("lr_decay", 1.5, "lr schedule"),
    ("gamma", 0.0, "concentration"), ("gamma", float("nan"), "concentration"),
    ("gamma", float("inf"), "concentration"), ("proxy_fraction", 0.0, "proxy fraction"),
    ("proxy_fraction", 1.0, "proxy fraction"), ("proxy_fraction", 1.5, "proxy fraction"),
    ("proxy_fraction", float("nan"), "proxy fraction"),
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
    (rows,) = dirichlet_partition(ds.labels, 1, 1.0, 0)
    g = net.init_params(0)
    penalty = Prox(0.3, g)
    out, n_k = local_train(net, g, ds, rows, penalty, epochs=2, batch_size=50,
                           lr=0.05, seed=(1, 2))
    assert n_k == 100

    params = g.copy()
    steps = 0
    for epoch in range(2):
        for batch in iterate_batches(ds, rows, 50, seed=(1, 2, epoch)):
            _, grad = net.loss_and_grad(params, batch, penalty)
            params = sgd_step(params, grad, 0.05)
            steps += 1
    assert steps == 4
    assert np.array_equal(out, params)


def test_strong_anchor_pins_parameters():
    ds = synth_dataset(60, 1)
    net = Network(tiny_spec())
    (rows,) = dirichlet_partition(ds.labels, 1, 1.0, 1)
    g = net.init_params(1)
    out, _ = local_train(net, g, ds, rows, Prox(1e6, g), epochs=1,
                         batch_size=20, lr=1e-7, seed=(0,))
    assert np.abs(out - g).max() < 1e-2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_local_train_divergence_error():
    ds = synth_dataset(40, 2)
    net = Network(tiny_spec())
    (rows,) = dirichlet_partition(ds.labels, 1, 1.0, 2)
    g = np.full(net.n_params, np.float32(1e30))
    with pytest.raises(DivergenceError) as err:
        local_train(net, g, ds, rows, None, epochs=1, batch_size=20,
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

    records = run_experiment(cfg, *prepare(cfg, train, net), test, net, on_round=on_round)
    assert [r.round for r in records] == [1, 2, 3]
    assert [done for done, _ in seen] == [records[:t] for t in (1, 2, 3)]
    for rec, (_, params) in zip(records, seen):
        assert len(rec.selected) == 2  # floor(0.4 * 5)
        assert 0.0 <= rec.test_accuracy <= 1.0
        assert params.shape == (net.n_params,)
        assert np.all(np.isfinite(params))


def test_reduction_lattice(monkeypatch):
    train, test = synth_dataset(300, 4), synth_dataset(100, 5)
    net = Network(tiny_spec())

    def run(variant):
        return run_fed(tiny_cfg(variant), train, test, net)

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
    # the penalties do change the trajectory when active
    assert not runs_equal(prox, fedavg)


def test_variants_share_client_selection():
    train, test = synth_dataset(300, 6), synth_dataset(100, 7)
    net = Network(tiny_spec())
    a, _ = run_fed(tiny_cfg(make_variant("fedavg")), train, test, net)
    b, _ = run_fed(tiny_cfg(make_variant("fedprox", alpha=1.0)), train, test, net)
    assert [r.selected for r in a] == [r.selected for r in b]


def test_prepare_shares_the_callers_training_set():
    train = synth_dataset(2000, 20)
    cfg = tiny_cfg(make_variant("fedprox-te", alpha=0.5, beta=0.4))
    tracemalloc.start()
    try:
        split, _ = prepare(cfg, train, Network(tiny_spec()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert split.train is train
    # the 5% proxy copy, the row arrays and the model: no copy of the images
    assert peak < train.images.nbytes / 4


@pytest.mark.parametrize("gamma", [0.05, 1.0, 100.0])
def test_shards_and_proxy_are_sorted_disjoint_and_cover_every_row(gamma):
    train = synth_dataset(500, 21)
    cfg = tiny_cfg(make_variant("fedavg"), clients=7, gamma=gamma)
    split, _ = prepare(cfg, train, Network(tiny_spec()))
    _, proxy_rows = split_proxy(train.labels, cfg.proxy_fraction, (cfg.seed, _SEED_PROXY))
    assert np.array_equal(split.proxy.images, train.images[proxy_rows])
    assert np.array_equal(split.proxy.labels, train.labels[proxy_rows])
    parts = [*split.shards, proxy_rows]
    assert len(parts) == 8
    for rows in parts:
        assert rows.size > 0
        assert np.all(np.diff(rows) > 0)
    assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(len(train)))


# -- concurrent clients ------------------------------------------------------

needs_openblas = pytest.mark.skipif(_openblas() is None,
                                    reason="numpy's BLAS is not a known OpenBLAS")


def three_client_cfg(kind, **overrides):
    """A -TE config that selects 3 of 6 clients per round."""
    return tiny_cfg(make_variant(kind, alpha=0.5, beta=0.4), clients=6, ratio=0.5,
                    **overrides)


def use_cpus(monkeypatch, cpus):
    """Make `cpus` CPUs usable to run_experiment; None leaves the host's count."""
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)


def sequential_run(cfg, train, test, net):
    """A -TE run as one plain loop of local_train and aggregate per round."""
    split, state = prepare(cfg, train, net)
    records, models = [], []
    for t in range(1, cfg.rounds + 1):
        lr = lr_at_round(t, cfg.lr, cfg.lr_decay)
        selected = select_clients(cfg.clients, cfg.ratio, t, cfg.seed)
        if cfg.uses_fisher:
            fisher = fisher_diag(net, state.target, split.proxy, cfg.fisher_samples,
                                 (cfg.seed, _SEED_FISHER, t))
            penalty = FisherDiag(cfg.alpha, state.target, fisher)
        else:
            penalty = Prox(cfg.alpha, state.target)
        trained = [
            local_train(net, state.global_params, split.train, split.shards[k], penalty,
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
    """Round 1's split and state on a copy of `train` with NaN pixels: the 3rd
    selected client diverges at step 0 and the 2nd at the last step of its
    first epoch. Returns (split, state, 2nd client, its failing step)."""
    split, state = prepare(cfg, train, net)
    split = Split(Dataset(train.images.copy(), train.labels), split.proxy, split.shards)
    _, second, third = select_clients(cfg.clients, cfg.ratio, 1, cfg.seed)
    # a dataset whose images are their own row numbers gives the batch order
    rows = Dataset(np.arange(len(train), dtype=np.float32).reshape(-1, 1, 1, 1),
                   train.labels)
    batches = list(iterate_batches(rows, split.shards[second], cfg.batch,
                                   seed=(cfg.seed, _SEED_BATCH, 1, second, 0)))
    split.train.images[int(batches[-1].inputs[0, 0, 0, 0])] = np.nan
    split.train.images[split.shards[third]] = np.nan
    return split, state, second, len(batches) - 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cpus", [None, 1, 2, 8], ids=["host", "1cpu", "2cpu", "8cpu"])
def test_first_diverging_client_in_selection_order_is_reported(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    train, test = synth_dataset(300, 12), synth_dataset(100, 13)
    net = Network(tiny_spec())
    cfg = three_client_cfg("fedprox-te", batch=16, rounds=2)

    split, state, second, step = poisoned_state(cfg, train, net)
    penalty = Prox(cfg.alpha, state.target)
    lr = lr_at_round(1, cfg.lr, cfg.lr_decay)
    with pytest.raises(DivergenceError) as sequential:
        for k in select_clients(cfg.clients, cfg.ratio, 1, cfg.seed):
            local_train(net, state.global_params, split.train, split.shards[k], penalty,
                        cfg.epochs, cfg.batch, lr, seed=(cfg.seed, _SEED_BATCH, 1, k),
                        round_idx=1, client_id=k)
    assert (sequential.value.client_id, sequential.value.step) == (second, step)
    assert step > 0  # the 3rd client fails at step 0, so a mix-up would show

    split, state, _, _ = poisoned_state(cfg, train, net)
    with pytest.raises(DivergenceError) as err:
        run_experiment(cfg, split, state, test, net)
    assert (err.value.round_idx, err.value.client_id, err.value.step) == (1, second, step)
    assert state.records == []


class Stop(Exception):
    pass


# fedcl-te with a 150-example proxy and 300 test images: the Fisher's 64-example
# chunks and the evaluation's 256-image batches also run on the pool
POOLED_PHASES = {"fedprox-te": {}, "fedcl-te": {"proxy_fraction": 0.5, "fisher_samples": 130}}


@needs_openblas
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_no_client_thread_outlives_run_experiment(monkeypatch):
    use_cpus(monkeypatch, 2)
    train, test = synth_dataset(600, 14), synth_dataset(300, 15)
    before = set(threading.enumerate())
    for kind, phases in POOLED_PHASES.items():
        net = Network(tiny_spec())
        cfg = three_client_cfg(kind, batch=16, rounds=2, **phases)
        alive = []

        def on_round(state):
            alive.append(len(set(threading.enumerate()) - before))

        run_experiment(cfg, *prepare(cfg, train, net), test, net, on_round=on_round)
        assert alive == [1, 1]  # one pool thread next to this one, for the whole run
        assert set(threading.enumerate()) == before

        split, state, _, _ = poisoned_state(cfg, train, net)
        with pytest.raises(DivergenceError):
            run_experiment(cfg, split, state, test, net)
        assert set(threading.enumerate()) == before

        def stop(state):
            raise Stop

        with pytest.raises(Stop):
            run_experiment(cfg, *prepare(cfg, train, net), test, net, on_round=stop)
        assert set(threading.enumerate()) == before

    # a Fisher chunk of the last run, fedcl-te's, fails on whichever thread runs it
    assert cfg.uses_fisher
    chunks = []

    def failing_chunk(params, batch):
        chunks.append(threading.current_thread())
        raise Stop

    monkeypatch.setattr(net, "squared_grad_sum", failing_chunk)
    with pytest.raises(Stop):
        run_experiment(cfg, *prepare(cfg, train, net), test, net)
    assert chunks
    assert set(threading.enumerate()) == before


def pool_threads(monkeypatch, kind="fedprox-te"):
    """Threads beside this one after each round of a 2-round run of 3 selected
    clients on 8 usable CPUs."""
    use_cpus(monkeypatch, 8)
    train, test = synth_dataset(600, 18), synth_dataset(300, 19)
    net = Network(tiny_spec())
    cfg = three_client_cfg(kind, rounds=2, **POOLED_PHASES[kind])
    before = set(threading.enumerate())
    alive = []

    def on_round(state):
        alive.append(set(threading.enumerate()) - before)

    run_experiment(cfg, *prepare(cfg, train, net), test, net, on_round=on_round)
    assert alive[0] == alive[1]  # the same threads serve every round
    assert all(t.name.startswith("fedte-pool") for t in alive[0])
    return len(alive[0])


@needs_openblas
@pytest.mark.parametrize("blas_env", [
    {},
    {"OPENBLAS_NUM_THREADS": "2"},
    {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"},
    {"OMP_NUM_THREADS": "0"},
    {"OPENBLAS_NUM_THREADS": "1"},
    {"OMP_NUM_THREADS": "1"},
    {"GOTO_NUM_THREADS": " 1 ", "OMP_NUM_THREADS": "4"},
], ids=["unset", "openblas2", "openblas4-omp1", "omp0", "openblas1", "omp1",
        "goto-over-omp"])
def test_clients_train_concurrently_when_blas_runs_one_thread(monkeypatch, blas_env):
    # run_experiment sets OpenBLAS to one thread itself, so the pool's width
    # depends on no BLAS variable: this thread and two pool threads train the
    # 3 selected clients
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in blas_env.items():
        monkeypatch.setenv(name, value)
    assert pool_threads(monkeypatch) == 2


def test_clients_train_one_at_a_time_without_openblas(monkeypatch):
    # threads that each start multithreaded BLAS calls oversubscribe the
    # CPUs, so a BLAS whose thread count cannot be set gets no pool
    monkeypatch.setattr(orchestrator, "_openblas", lambda: None)
    assert pool_threads(monkeypatch) == 0


@needs_openblas
def test_pool_thread_count_does_not_depend_on_the_first_phase(monkeypatch):
    # fedcl-te's first pool jobs are Fisher chunks, each far shorter than a
    # client: still one thread per submitted job up to the pool's width
    assert pool_threads(monkeypatch, "fedcl-te") == 2


@pytest.mark.parametrize("pool", [pytest.param(True, marks=needs_openblas), False],
                         ids=["pool", "no-pool"])
@pytest.mark.parametrize("kind", ["fedprox-te", "fedcl-te"])
def test_run_continued_from_a_copy_of_its_state_is_the_uninterrupted_run(monkeypatch, kind,
                                                                         pool):
    # the RoundState is all a round carries: 3 rounds, then 3 more from a deep
    # copy of the state, give the bits of 6 rounds in one run
    if pool:
        use_cpus(monkeypatch, 2)
    else:
        monkeypatch.setattr(orchestrator, "_openblas", lambda: None)
    train, test = synth_dataset(600, 24), synth_dataset(300, 25)
    net = Network(tiny_spec())
    cfg = three_client_cfg(kind, rounds=6, **POOLED_PHASES[kind])
    before, alive = set(threading.enumerate()), []

    def on_round(state):
        alive.append(len(set(threading.enumerate()) - before))

    split, first = prepare(cfg, train, net)
    run_experiment(replace(cfg, rounds=3), split, first, test, net, on_round=on_round)
    continued = copy.deepcopy(first)
    run_experiment(cfg, split, continued, test, net, on_round=on_round)
    whole_split, whole = prepare(cfg, train, net)
    run_experiment(cfg, whole_split, whole, test, net)

    assert alive == [int(pool)] * 6  # one pool thread, or none
    assert [r.round for r in first.records] == [1, 2, 3]  # the copy left it as it was
    assert continued.records == whole.records
    for name in ("global_params", "target"):
        assert getattr(continued, name).tobytes() == getattr(whole, name).tobytes()
    assert continued.tracker.round == whole.tracker.round == 6
    assert continued.tracker._ensemble.tobytes() == whole.tracker._ensemble.tobytes()


@pytest.mark.parametrize("pool", [True, False], ids=["pool", "no-pool"])
@pytest.mark.parametrize("kind", ["fedprox", "fedprox-te", "fedcl-te"])
def test_run_round_leaves_the_previous_model_and_target_unchanged(kind, pool):
    # local_train trains from the global model itself, not a copy, and the CLI
    # stores each round's model uncopied: both need a round that only rebinds them
    train, test = synth_dataset(600, 26), synth_dataset(100, 27)
    net = Network(tiny_spec())
    cfg = three_client_cfg(kind, **POOLED_PHASES.get(kind, {}))
    split, state = prepare(cfg, train, net)
    with ThreadPoolExecutor(1) as executor:
        round_map = functools.partial(_map_in_order, executor if pool else None)
        for _ in range(3):
            previous = (state.global_params, state.target)
            saved = [p.tobytes() for p in previous]
            run_round(cfg, split, state, test, net, map=round_map)
            assert [p.tobytes() for p in previous] == saved
            assert state.global_params is not previous[0]
    assert len(state.records) == 3


@pytest.fixture
def blas_at_3():
    """OpenBLAS at 3 threads per call, a count run_experiment never sets;
    the count the test found is restored after it."""
    get, set_ = _openblas()
    found = get()
    set_(3)
    yield get
    set_(found)


@needs_openblas
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_sets_openblas_to_one_thread_and_restores_it(monkeypatch, blas_at_3):
    use_cpus(monkeypatch, 2)
    train, test = synth_dataset(300, 20), synth_dataset(100, 21)
    net = Network(tiny_spec())
    cfg = three_client_cfg("fedprox-te", batch=16, rounds=2)
    inside = []

    def on_round(state):
        inside.append(blas_at_3())

    run_experiment(cfg, *prepare(cfg, train, net), test, net, on_round=on_round)
    assert inside == [1, 1] and blas_at_3() == 3

    split, state, _, _ = poisoned_state(cfg, train, net)
    with pytest.raises(DivergenceError):
        run_experiment(cfg, split, state, test, net)
    assert blas_at_3() == 3

    def stop(state):
        inside.append(blas_at_3())
        raise Stop

    with pytest.raises(Stop):
        run_experiment(cfg, *prepare(cfg, train, net), test, net, on_round=stop)
    assert inside == [1, 1, 1] and blas_at_3() == 3


@needs_openblas
def test_one_thread_leaves_blas_alone(monkeypatch, blas_at_3):
    # one usable CPU, or one selected client: no pool, and BLAS keeps its count
    train, test = synth_dataset(300, 22), synth_dataset(100, 23)
    net = Network(tiny_spec())
    for cpus, cfg in ((1, three_client_cfg("fedprox-te", rounds=1)),
                      (8, tiny_cfg(make_variant("fedprox-te"), ratio=0.2, rounds=1))):
        use_cpus(monkeypatch, cpus)
        inside = []
        run_experiment(cfg, *prepare(cfg, train, net), test, net,
                       on_round=lambda state: inside.append(blas_at_3()))
        assert inside == [3] and blas_at_3() == 3


# fedte's GEMMs at B=50, MNIST shape: conv1 and conv2 as im2col products, the
# conv input gradient's col2im product, dense1 at a training and an evaluation
# batch, and the Fisher's float64 product. fedte may split the rows of the conv
# stages (`Network.forward` runs them on 64 images at a time) and of dense1, so
# these must not depend on the row count. Calls of 1 to 3 rows take other
# OpenBLAS kernels with other bits (numpy 2.4's wheel), so the row slices hold
# 4 rows or more: the row blocks OpenBLAS gives its threads, and fedte splits
# no product into smaller calls than its fixed batches and chunks.
CANARY_GEMMS = [((576, 25), (25, 16), np.float32), ((4096, 400), (400, 32), np.float32),
                ((3200, 32), (32, 16), np.float32), ((50, 512), (512, 512), np.float32),
                ((256, 512), (512, 512), np.float32), ((512, 64), (64, 512), np.float64)]
ROW_INDEPENDENCE = ("fedte assumes that a GEMM row's bits do not depend on BLAS's thread "
                    "count, nor, for the products whose rows it splits, on how many rows "
                    "are in the call: the chunked forward, the pooled evaluation and the "
                    "client pool rest on it, and on this BLAS this does not hold")


def assert_thread_count_changes_no_bit(product, full):
    """`product()` equals `full` at 1 BLAS thread and at every usable CPU's."""
    blas = _openblas()
    if blas is None:
        return
    get, set_ = blas
    found = get()
    try:
        for threads in (1, max(2, len(os.sched_getaffinity(0)))):
            set_(threads)
            assert np.array_equal(product(), full), ROW_INDEPENDENCE
    finally:
        set_(found)


@pytest.mark.parametrize("a_shape, b_shape, dtype", CANARY_GEMMS,
                         ids=["conv1", "conv2", "col2im", "dense-b50", "dense-b256",
                              "fisher"])
def test_blas_canary_gemm_rows_independent_of_threads_and_rows(a_shape, b_shape, dtype):
    rng = np.random.default_rng(24)
    a = rng.standard_normal(a_shape).astype(dtype)
    b = rng.standard_normal(b_shape).astype(dtype)
    full = a @ b
    rows = a_shape[0]
    for start, stop in ((0, 4), (5, 12), (3, 67), (rows // 2, rows), (1, rows)):
        assert np.array_equal(a[start:stop] @ b, full[start:stop]), ROW_INDEPENDENCE
    assert_thread_count_changes_no_bit(lambda: a @ b, full)


def test_blas_canary_dense2_independent_of_threads():
    # dense2, `Dense.forward`'s a @ w.T with w of shape (10, 512), at an
    # evaluation batch: on numpy 2.4's OpenBLAS its row slices 0:4, 5:12, 3:67
    # and 0:64 differ from the full product's rows, so only the thread count is
    # checked. fedte never splits its rows: the evaluation batch (EVAL_BATCH),
    # the SGD batch and the Fisher chunk (CHUNK) fix them, and those batch
    # sizes are part of metrics.csv's bits.
    rng = np.random.default_rng(24)
    a = rng.standard_normal((EVAL_BATCH, 512)).astype(np.float32)
    w = rng.standard_normal((10, 512)).astype(np.float32)
    assert_thread_count_changes_no_bit(lambda: a @ w.T, a @ w.T)


# -- the ordered map -----------------------------------------------------------

def test_map_in_order_returns_results_in_item_order():
    def fn(x):
        return x, float(np.full(500, x, np.float64).sum())

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(3) as pool:
            got = list(_map_in_order(pool, fn, range(300)))
    finally:
        sys.setswitchinterval(switch)
    assert got == [fn(x) for x in range(300)]


def test_map_in_order_runs_items_here_while_the_pool_runs_others():
    # item 0 waits for item 1: with the pool's one thread busy on either,
    # only this thread can run the other
    ran_on = {}
    item_1_done = threading.Event()

    def fn(x):
        ran_on[x] = threading.current_thread()
        if x == 0:
            assert item_1_done.wait(10)
        else:
            item_1_done.set()
        return x

    with ThreadPoolExecutor(1) as pool:
        assert list(_map_in_order(pool, fn, [0, 1])) == [0, 1]
    assert threading.current_thread() in ran_on.values()
    assert ran_on[0] is not ran_on[1]


def test_map_in_order_raises_the_first_error_in_item_order():
    # item 0 fails on the pool's one thread after item 1 failed on this one;
    # item 0 yields first, so its error is raised
    ran_on = {}
    item_0_started, item_1_done = threading.Event(), threading.Event()

    def fn(x):
        ran_on[x] = threading.current_thread()
        if x == 0:
            item_0_started.set()
            item_1_done.wait(10)
            raise ValueError("item 0")
        item_1_done.set()
        raise KeyError("item 1")

    with ThreadPoolExecutor(1) as pool:
        submit = pool.submit

        def submit_and_start(f, x):  # the pool starts item 0 before item 1 is sent
            job = submit(f, x)
            if x == 0:
                assert item_0_started.wait(10)
            return job

        pool.submit = submit_and_start
        results = _map_in_order(pool, fn, [0, 1])
        with pytest.raises(ValueError, match="item 0"):
            next(results)
    assert ran_on[0] is not threading.current_thread()
    assert ran_on[1] is threading.current_thread()


class IdlePool:
    """A pool that starts no job: this thread runs every item."""

    def submit(self, fn, *args):
        return Future()


def test_map_in_order_keeps_no_result_once_read():
    # a Fisher chunk's result is a model-sized float64 vector: the map must
    # not hold every chunk's until the last is read
    read = []
    for result in _map_in_order(IdlePool(), np.ones, range(1, 6)):
        assert all(ref() is None for ref in read)
        read.append(weakref.ref(result))
        del result
    assert len(read) == 5


def test_map_in_order_without_pool_or_with_one_item_runs_here_in_order():
    calls = []

    def fn(x):
        calls.append((x, threading.current_thread()))
        if x == "fail":
            raise Stop
        return x

    here = threading.current_thread()
    before = set(threading.enumerate())
    assert list(_map_in_order(None, fn, [3, 1, 2])) == [3, 1, 2]
    with pytest.raises(Stop):
        list(_map_in_order(None, fn, [4, "fail", 5]))
    with ThreadPoolExecutor(2) as pool:
        assert list(_map_in_order(pool, fn, [6])) == [6]
        assert set(threading.enumerate()) == before  # the pool started no thread
    assert calls == [(x, here) for x in (3, 1, 2, 4, "fail", 6)]


def test_pooled_evaluate_equals_sequential():
    # 700 images: two full 256-image batches and one of 188
    net = Network(baseline_cnn((1, 28, 28)))
    params = net.init_params(4)
    test = synth_dataset(700, 24, shape=(1, 28, 28))
    with ThreadPoolExecutor(2) as pool:
        pooled = evaluate(net, params, test, map=functools.partial(_map_in_order, pool))
    assert pooled == evaluate(net, params, test)


@pytest.mark.parametrize("cpus", [1, 2], ids=["1cpu", "2cpu"])
@pytest.mark.parametrize("kind", ["fedprox-te", "fedcl-te"])
def test_uint8_storage_runs_bitwise_like_float32_storage(monkeypatch, tmp_path, kind,
                                                         cpus):
    # 300 test images: evaluation batches of 256 and 44; 100 Fisher samples
    # of a 150-example proxy: chunks of 64 and 36
    use_cpus(monkeypatch, cpus)
    data_dir = write_idx_dataset(str(tmp_path), n_train=600, n_test=300)
    train, test = (load_idx(os.path.join(data_dir, f"{name}-images-idx3-ubyte"),
                            os.path.join(data_dir, f"{name}-labels-idx1-ubyte"))
                   for name in ("train", "t10k"))
    assert train.images.dtype == test.images.dtype == np.uint8
    converted = [Dataset(_pixels(ds.images), ds.labels) for ds in (train, test)]
    net = Network(ModelSpec((1, 16, 16), (Conv(4, kernel=5), Pool(), Dense(10, relu=False))))
    cfg = tiny_cfg(make_variant(kind, alpha=0.5, beta=0.4), rounds=2,
                   proxy_fraction=0.25, fisher_samples=100)
    assert len(prepare(cfg, train, net)[0].proxy) == 150
    assert runs_equal(run_fed(cfg, train, test, net), run_fed(cfg, *converted, net))
