"""Quadratic constraint terms for local training and Fisher-diagonal estimation.

One penalty serves every constrained variant:
alpha * sum_i f_i (w_i - target_i)^2, where f is a nonnegative per-parameter
Fisher diagonal (FedCL) or all ones (`Prox`, FedProx's proximal anchor,
which skips the multiply). A penalty of None means unconstrained local
training.

`fisher_diag` estimates f as the empirical Fisher: the mean of squared
per-example gradients of the cross-entropy on a proxy set. It runs the
network in chunks of 64 examples, each one forward and one backward pass
that reduces every layer's per-example gradients to a float64 sum of
squares (`Network.squared_grad_sum`), so the estimate costs a handful of
GEMMs rather than one pass per example. `run_experiment` spreads the chunks
over its thread pool and adds their sums in chunk order, which keeps every
bit of the sequential estimate.
"""

from dataclasses import dataclass

import numpy as np

from .nn import CHUNK, Batch


@dataclass(frozen=True)
class FisherDiag:
    """alpha * sum_i f_i (w_i - target_i)^2; `fisher=None` weighs every i by 1."""

    alpha: float  # >= 0, as FedConfig checks
    target: np.ndarray
    fisher: np.ndarray | None = None  # nonnegative, same length as target

    def _weighted(self, diff):
        return diff if self.fisher is None else self.fisher * diff

    def value(self, params):
        diff = params - self.target
        return self.alpha * float(np.sum(self._weighted(diff) * diff))

    def grad(self, params):
        return (2.0 * self.alpha) * self._weighted(params - self.target)


class Prox(FisherDiag):
    """The proximal anchor alpha * ||w - target||^2: FisherDiag with unit weights."""


def fisher_diag(net, params, ds, max_samples=1024, seed=0, map=map):
    """Empirical Fisher diagonal: mean squared per-example log-likelihood gradient.

    Uses the true labels of `ds` (a server-side proxy set). At most
    `max_samples` examples are used, subsampled without replacement; they
    are taken in ascending index order, in chunks of `CHUNK`, so the
    estimate does not depend on draw order. `map(fn, chunk starts)` runs the
    chunks; any map that returns their results in order, such as the run's
    thread pool, gives the same bits as the builtin.
    """
    n = len(ds)  # >= 1: split_proxy keeps an example of every class
    if n > max_samples:
        idx = np.random.default_rng(seed).choice(n, size=max_samples, replace=False)
        idx = np.sort(idx)
    else:
        idx = np.arange(n)

    def chunk(start):
        rows = idx[start:start + CHUNK]
        # each example's cross-entropy is the negative log-likelihood of its label
        return net.squared_grad_sum(params, Batch(ds.pixels(rows), ds.labels[rows]))

    acc = np.zeros(net.n_params, dtype=np.float64)
    for part in map(chunk, range(0, idx.size, CHUNK)):
        acc += part  # in chunk order, whichever thread ran the chunk
    return (acc / idx.size).astype(params.dtype)
