"""Federated training loop: client selection, local SGD, weighted aggregation.

The loop is fully deterministic given the config seed. Every random stream is
derived from (seed, purpose-code, ...) tuples so that paired runs of different
algorithm variants share client selections, partitions and batch orders.

A round's selected clients train concurrently, each from the same global
model, on up to one thread per usable CPU when BLAS runs one thread per call:
the calling thread and a pool opened for the run. Their models are aggregated
in selection order, so the thread count changes no result.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import penalties
from .data import Dataset, dirichlet_partition, iterate_batches, split_proxy
from .errors import ConfigError, DivergenceError
from .nn import log_softmax, lr_at_round, sgd_step
from .target import TargetTracker

VARIANT_KINDS = ("fedavg", "fedprox", "fedcl", "fedprox-te", "fedcl-te")

# purpose codes for derived RNG streams
_SEED_SELECT = 10
_SEED_PROXY = 11
_SEED_PARTITION = 12
_SEED_INIT = 13
_SEED_BATCH = 14
_SEED_FISHER = 15


@dataclass(frozen=True)
class FedConfig:
    """One run's training options, each named and defaulted as its `fedte run` flag."""

    variant: str = "fedavg"
    alpha: float = 1.0  # penalty weight; unused by fedavg
    beta: float = 0.2  # EMA momentum of the -TE target; unused by the base variants
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
        if not 0 < self.ratio <= 1:
            raise ConfigError(f"selection ratio must be in (0, 1], got {self.ratio}")
        for key in ("clients", "epochs", "batch", "rounds", "fisher_samples"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        lr_at_round(1, self.lr, self.lr_decay)  # the lr schedule's own check

    @property
    def uses_fisher(self):
        return self.variant in ("fedcl", "fedcl-te")

    @property
    def uses_ensemble(self):
        return self.variant.endswith("-te")


@dataclass
class RoundRecord:
    round: int
    selected: list
    test_accuracy: float
    test_loss: float
    lr: float


@dataclass
class RoundState:
    """A run between rounds: its data split and all that a round hands the next."""

    train: Dataset  # the training examples left after the proxy split
    proxy: Dataset
    shards: list  # one ClientShard per client
    global_params: np.ndarray
    target: np.ndarray  # anchor of the next round's local training
    tracker: Optional[TargetTracker]  # the -TE ensemble; None for other variants
    records: list  # one RoundRecord per completed round: its length is the round index


def _selection_size(clients, ratio):
    return max(int(np.floor(ratio * clients)), 1)


def select_clients(clients, ratio, round_idx, seed):
    """Uniform sample of max(floor(ratio*clients), 1) ids, without replacement."""
    if clients < 1 or not (0 < ratio <= 1):
        raise ConfigError(f"invalid selection parameters K={clients} C={ratio}")
    m = _selection_size(clients, ratio)
    rng = np.random.default_rng((seed, _SEED_SELECT, round_idx))
    return sorted(int(c) for c in rng.choice(clients, size=m, replace=False))


def aggregate(models, counts):
    """Data-count-weighted average, accumulated in float64."""
    if not models:
        raise ConfigError("nothing to aggregate")
    if len(models) != len(counts) or any(c <= 0 for c in counts):
        raise ConfigError("counts must be positive and match models")
    acc = np.zeros(models[0].shape, dtype=np.float64)
    for m, c in zip(models, counts):
        acc += float(c) * m.astype(np.float64)
    return (acc / float(sum(counts))).astype(models[0].dtype)


def local_train(net, global_params, ds, shard, penalty, epochs, batch_size, lr,
                seed, round_idx=None, client_id=None):
    """E epochs of mini-batch SGD from a copy of the global model.

    Returns (trained parameters, shard example count).
    """
    if lr <= 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    params = global_params.copy()
    step = 0
    for epoch in range(epochs):
        for batch in iterate_batches(ds, shard, batch_size, seed=(*seed, epoch)):
            loss, grad = net.loss_and_grad(params, batch, penalty)
            if not np.isfinite(loss):
                raise DivergenceError(round_idx, client_id, step, loss)
            params = sgd_step(params, grad, lr)
            step += 1
    return params, int(np.asarray(shard.indices).size)


def evaluate(net, params, ds, batch_size=256):
    """(accuracy, mean cross-entropy) over a dataset."""
    n = len(ds)
    if n == 0:
        raise ConfigError("evaluation needs a non-empty dataset")
    correct = 0
    loss_sum = 0.0
    for start in range(0, n, batch_size):
        x = ds.images[start:start + batch_size]
        y = ds.labels[start:start + batch_size]
        logits = net.forward(params, x)
        logp = log_softmax(logits)
        loss_sum += float(-logp[np.arange(len(y)), y].sum())
        correct += int((logits.argmax(axis=1) == y).sum())
    return correct / n, loss_sum / n


def prepare(cfg, train, net):
    """The RoundState before round 1; raises every ConfigError the data can cause."""
    # the proxy split happens for every variant so that paired runs of
    # different algorithms train on identical shards
    train_main, proxy = split_proxy(
        train, cfg.proxy_fraction, seed=(cfg.seed, _SEED_PROXY)
    )
    shards = dirichlet_partition(train_main, cfg.clients, cfg.gamma,
                                 (cfg.seed, _SEED_PARTITION))
    global_params = net.init_params((cfg.seed, _SEED_INIT))
    tracker = TargetTracker(cfg.beta) if cfg.uses_ensemble else None
    # round 1 anchors local training to the initial model
    return RoundState(train_main, proxy, shards, global_params, global_params, tracker, [])


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _blas_threads():
    """BLAS threads per call as the environment sets them, in OpenBLAS's order
    of precedence; None if unset."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return None


def _client_threads(cfg):
    """Threads to train a round's clients on: one per usable CPU, at most one
    per selected client, if BLAS runs one thread per call. Otherwise one:
    client threads that each start multithreaded BLAS calls oversubscribe
    the CPUs, which made rounds slower than training clients one at a time."""
    if _blas_threads() != 1:
        return 1
    return min(_usable_cpus(), _selection_size(cfg.clients, cfg.ratio))


def _train_all(pool, train, selected):
    """[train(k) for k in selected], the first error in selection order raised.

    This thread trains the first client while the pool trains the others.
    """
    if pool is None:
        return [train(k) for k in selected]
    rest = [pool.submit(train, k) for k in selected[1:]]
    first = train(selected[0])
    return [first] + [job.result() for job in rest]


def run_experiment(cfg, state, test, net, fisher_fn=None, on_round=None):
    """Advance `state` from `prepare` to round `cfg.rounds`; returns its records.

    `fisher_fn(net, params, proxy, max_samples, seed)` may be overridden for
    testing; `on_round` is called with the RoundState after each round. The
    client pool is shut down before this returns or raises.
    """
    if fisher_fn is None:
        fisher_fn = penalties.fisher_diag
    threads = _client_threads(cfg)
    pool = (ThreadPoolExecutor(threads - 1, thread_name_prefix="fedte-client")
            if threads > 1 else None)
    try:
        for t in range(len(state.records) + 1, cfg.rounds + 1):
            lr = lr_at_round(t, cfg.lr, cfg.lr_decay)
            selected = select_clients(cfg.clients, cfg.ratio, t, cfg.seed)

            if cfg.variant == "fedavg":
                penalty = None
            elif cfg.uses_fisher:
                fisher = fisher_fn(net, state.target, state.proxy, cfg.fisher_samples,
                                   (cfg.seed, _SEED_FISHER, t))
                penalty = penalties.FisherDiag(cfg.alpha, state.target, fisher)
            else:
                penalty = penalties.Prox(cfg.alpha, state.target)

            def train(k):
                return local_train(
                    net, state.global_params, state.train, state.shards[k], penalty,
                    cfg.epochs, cfg.batch, lr,
                    seed=(cfg.seed, _SEED_BATCH, t, k), round_idx=t, client_id=k,
                )

            models, counts = zip(*_train_all(pool, train, selected))
            state.global_params = aggregate(models, counts)
            state.target = (state.tracker.update(state.global_params) if state.tracker
                            else state.global_params)

            accuracy, loss = evaluate(net, state.global_params, test)
            state.records.append(RoundRecord(t, selected, accuracy, loss, lr))
            if on_round is not None:
                on_round(state)
        return state.records
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
