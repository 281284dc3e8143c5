"""Federated training loop: client selection, local SGD, weighted aggregation.

The loop is fully deterministic given the config seed. Every random stream is
derived from (seed, purpose-code, ...) tuples so that paired runs of different
algorithm variants share client selections, partitions and batch orders.

With numpy's OpenBLAS set to one thread per call, each phase of a round runs
its independent jobs on up to one thread per usable CPU, the calling thread and
a pool opened for the run: the Fisher's 64-example chunks, the selected clients
and the evaluation's 256-image batches. Results are combined in a fixed order
(chunk, selection, batch), so the thread count changes no result.
"""

import ctypes
import functools
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import penalties
from .data import Dataset, dirichlet_partition, iterate_batches, split_proxy
from .errors import ConfigError, DivergenceError
from .nn import log_softmax, lr_at_round, sgd_step
from .target import TargetTracker

# the options each variant reads beyond FedAvg's: a penalty weight, the momentum of
# the -TE target and the size of FedCL's Fisher sample
VARIANT_OPTIONS = {"fedavg": (), "fedprox": ("alpha",), "fedcl": ("alpha", "fisher_samples"),
                   "fedprox-te": ("alpha", "beta"),
                   "fedcl-te": ("alpha", "beta", "fisher_samples")}
VARIANT_KINDS = tuple(VARIANT_OPTIONS)

# purpose codes for derived RNG streams
_SEED_SELECT = 10
_SEED_PROXY = 11
_SEED_PARTITION = 12
_SEED_INIT = 13
_SEED_BATCH = 14
_SEED_FISHER = 15

EVAL_BATCH = 256  # test images per evaluation job; fixes dense2's rows, so metrics.csv's bits


@dataclass(frozen=True)
class FedConfig:
    """One run's training options, each named and defaulted as its `fedte run` flag."""

    variant: str = "fedavg"
    alpha: float = 1.0  # penalty weight
    beta: float = 0.2  # EMA momentum of the -TE target
    gamma: float = 1.0  # Dirichlet concentration of the client partition
    clients: int = 10
    ratio: float = 0.2  # fraction of clients selected per round
    epochs: int = 2
    batch: int = 50
    rounds: int = 100
    lr: float = 0.005
    lr_decay: float = 0.99
    seed: int = 1
    proxy_fraction: float = 0.01
    fisher_samples: int = 1024

    def __post_init__(self):
        if self.variant not in VARIANT_KINDS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not 0 <= self.alpha < np.inf:
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not 0 <= self.beta < 1:
            raise ConfigError(f"beta must be in [0, 1), got {self.beta}")
        if not 0 < self.gamma < np.inf:
            raise ConfigError(f"concentration gamma must be in (0, inf), got {self.gamma}")
        if not 0 < self.proxy_fraction < 1:
            raise ConfigError(f"proxy fraction must be in (0, 1), got {self.proxy_fraction}")
        if not 0 < self.ratio <= 1:
            raise ConfigError(f"selection ratio must be in (0, 1], got {self.ratio}")
        for key in ("clients", "epochs", "batch", "rounds", "fisher_samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        lr_at_round(self.rounds, self.lr, self.lr_decay)  # the schedule at its least rate

    @property
    def uses_fisher(self):
        return "fisher_samples" in VARIANT_OPTIONS[self.variant]

    @property
    def uses_ensemble(self):
        return "beta" in VARIANT_OPTIONS[self.variant]


@dataclass
class RoundRecord:
    round: int
    selected: list
    test_accuracy: float
    test_loss: float
    lr: float


@dataclass(frozen=True)
class Split:
    """The data of a run, derived by `prepare` from (cfg, train); no round changes it."""

    train: Dataset  # the caller's training set, shared, not copied
    proxy: Dataset  # a copy of the proxy rows, `proxy_fraction` of `train`
    shards: list  # one sorted array of `train` rows per client


@dataclass
class RoundState:
    """All that a round hands the next: a run between rounds, given its Split."""

    global_params: np.ndarray
    target: np.ndarray  # anchor of the next round's local training
    tracker: Optional[TargetTracker]  # the -TE ensemble; None for other variants
    records: list  # one RoundRecord per completed round: its length is the round index


def _selection_size(clients, ratio):
    return max(int(np.floor(ratio * clients)), 1)


def select_clients(clients, ratio, round_idx, seed):
    """Uniform sample of max(floor(ratio*clients), 1) ids, without replacement."""
    m = _selection_size(clients, ratio)
    rng = np.random.default_rng((seed, _SEED_SELECT, round_idx))
    return sorted(int(c) for c in rng.choice(clients, size=m, replace=False))


def aggregate(models, counts):
    """Data-count-weighted average, accumulated in float64."""
    acc = np.zeros(models[0].shape, dtype=np.float64)
    for m, c in zip(models, counts):
        acc += float(c) * m.astype(np.float64)
    return (acc / float(sum(counts))).astype(models[0].dtype)


def local_train(net, global_params, ds, rows, penalty, epochs, batch_size, lr,
                seed, round_idx=None, client_id=None):
    """E epochs of mini-batch SGD on the rows `rows` of `ds`, from the global model,
    which it leaves unchanged. Returns (trained parameters, number of rows)."""
    params = global_params  # sgd_step returns a new array
    step = 0
    for epoch in range(epochs):
        for batch in iterate_batches(ds, rows, batch_size, seed=(*seed, epoch)):
            loss, grad = net.loss_and_grad(params, batch, penalty)
            if not np.isfinite(loss):
                raise DivergenceError(round_idx, client_id, step, loss)
            params = sgd_step(params, grad, lr)
            step += 1
    return params, int(rows.size)


def evaluate(net, params, ds, map=map):
    """(accuracy, mean cross-entropy) over a dataset.

    `map(fn, batch starts)` runs the batches; any map that returns their
    results in order gives the same bits as the builtin.
    """
    n = len(ds)  # >= 1: load_dataset refuses an empty test set

    def batch_stats(start):
        x = ds.pixels(slice(start, start + EVAL_BATCH))
        y = ds.labels[start:start + EVAL_BATCH]
        logits = net.forward(params, x)
        logp = log_softmax(logits)
        loss = float(-logp[np.arange(len(y)), y].sum())
        return loss, int((logits.argmax(axis=1) == y).sum())

    correct = 0
    loss_sum = 0.0
    for batch_loss, batch_correct in map(batch_stats, range(0, n, EVAL_BATCH)):
        loss_sum += batch_loss
        correct += batch_correct
    return correct / n, loss_sum / n


def prepare(cfg, train, net):
    """(Split, RoundState before round 1); raises every ConfigError the data can cause."""
    # the proxy split happens for every variant so that paired runs of
    # different algorithms train on identical shards
    train_rows, proxy_rows = split_proxy(train.labels, cfg.proxy_fraction,
                                         seed=(cfg.seed, _SEED_PROXY))
    # partition by position among the train rows, then map positions to rows:
    # the map is increasing, so draws, repairs and batch orders match a copy's
    positions = dirichlet_partition(train.labels[train_rows], cfg.clients, cfg.gamma,
                                    (cfg.seed, _SEED_PARTITION))
    shards = [train_rows[pos] for pos in positions]
    global_params = net.init_params((cfg.seed, _SEED_INIT))
    tracker = TargetTracker(cfg.beta) if cfg.uses_ensemble else None
    # round 1 anchors local training to the initial model
    return (Split(train, train.subset(proxy_rows), shards),
            RoundState(global_params, global_params, tracker, []))


@functools.cache
def _openblas():
    """(get, set) of the loaded OpenBLAS's thread count, looked up by ctypes on
    first use; None where there is none (not Linux, MKL, Accelerate)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[5].rstrip("\n") for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(filter(os.path.exists, paths)):  # skip a mapped file since deleted
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_%s_num_threads64_",  # numpy 2's wheels
                     "openblas_%s_num_threads64_",  # numpy 1's 64-bit-integer build
                     "openblas_%s_num_threads"):  # a plain build
            if hasattr(lib, name % "get") and hasattr(lib, name % "set"):
                return getattr(lib, name % "get"), getattr(lib, name % "set")
    return None


def _map_in_order(pool, fn, items):
    """map(fn, items), with `pool` running items next to this thread.

    Every item goes to the pool. While the next result in item order is not
    ready, this thread runs the next item that no pool thread has started, so
    few results wait to be read. Results, and the first error, come in item
    order. `pool=None` or a single item runs here, one item after another.

    This thread works rather than waits, so the pool needs one thread fewer
    than `Executor.map` would, and each pool thread's malloc arena adds to
    the peak RSS: on a 2-vCPU VM, `Executor.map` on two pool threads against
    this map on one raised a fedprox-te run's peak from 148 to 172 MB (MNIST
    shape, 500 test images), with no faster rounds.
    """
    items = list(items)
    if pool is None or len(items) < 2:
        yield from map(fn, items)
        return
    jobs = [pool.submit(fn, x) for x in items]
    ahead = 0  # the next item this thread may take
    try:
        for i in range(len(jobs)):
            ahead = max(ahead, i)
            while not jobs[i].done() and ahead < len(jobs):
                if jobs[ahead].cancel():  # no pool thread has started it
                    jobs[ahead] = _run_here(fn, items[ahead])
                ahead += 1
            job, jobs[i] = jobs[i], None  # keep no result once it is read
            yield job.result()
    finally:
        for job in jobs[ahead:]:
            if job is not None:
                job.cancel()


def _run_here(fn, x):
    """A finished Future of fn(x), run on this thread."""
    job = Future()
    try:
        job.set_result(fn(x))
    except Exception as err:
        job.set_exception(err)
    return job


def run_round(cfg, split, state, test, net, map=map):
    """Advance `state` by one round and append its RoundRecord. `map` runs the
    Fisher's chunks, the clients and the evaluation's batches, as `evaluate`'s."""
    t = len(state.records) + 1
    lr = lr_at_round(t, cfg.lr, cfg.lr_decay)
    selected = select_clients(cfg.clients, cfg.ratio, t, cfg.seed)

    if cfg.variant == "fedavg":
        penalty = None
    elif cfg.uses_fisher:
        fisher = penalties.fisher_diag(net, state.target, split.proxy, cfg.fisher_samples,
                                       (cfg.seed, _SEED_FISHER, t), map=map)
        penalty = penalties.FisherDiag(cfg.alpha, state.target, fisher)
    else:
        penalty = penalties.Prox(cfg.alpha, state.target)

    def train(k):
        return local_train(net, state.global_params, split.train, split.shards[k], penalty,
                           cfg.epochs, cfg.batch, lr, seed=(cfg.seed, _SEED_BATCH, t, k),
                           round_idx=t, client_id=k)

    models, counts = zip(*map(train, selected))
    state.global_params = aggregate(models, counts)
    state.target = (state.tracker.update(state.global_params) if state.tracker
                    else state.global_params)
    accuracy, loss = evaluate(net, state.global_params, test, map=map)
    state.records.append(RoundRecord(t, selected, accuracy, loss, lr))


def run_experiment(cfg, split, state, test, net, on_round=None):
    """Advance `state`, from `prepare` or a copy of one between rounds, to round
    `cfg.rounds`, calling `on_round` with it after each round; returns its records.
    The run's pool is shut down and the BLAS thread count restored before this
    returns or raises."""
    get_blas, set_blas = _openblas() or (None, None)
    # one thread without it: concurrent multithreaded BLAS calls oversubscribe the CPUs
    threads = (min(len(os.sched_getaffinity(0)), _selection_size(cfg.clients, cfg.ratio))
               if set_blas else 1)
    pool = (ThreadPoolExecutor(threads - 1, thread_name_prefix="fedte-pool")
            if threads > 1 else None)
    if pool is not None:  # one BLAS thread per call while the pool runs
        blas_threads = get_blas()
        set_blas(1)
    try:
        while len(state.records) < cfg.rounds:
            run_round(cfg, split, state, test, net, map=functools.partial(_map_in_order, pool))
            if on_round is not None:
                on_round(state)
        return state.records
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
            set_blas(blas_threads)
