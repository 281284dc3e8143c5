"""Span recorder, wrappers around fedte's public functions, per-layer metrics.

A traced run patches the public functions of every `src/fedte` module from
here, so the program itself carries no tracing. Where `cli` or
`orchestrator` import a name directly, the wrapper goes on the importing
module's attribute (`fedte.cli.run_experiment`, `fedte.orchestrator.
iterate_batches`), because that is the name the caller looks up.

A span is [name, start, end, parent index, run id, n]; `n` is a size the
metrics need (batch size, bytes read). Spans stay in memory until the run
ends. The layer of a span is the first part of its name.
"""

import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter

from metrics import LAYERS, PHASES

ROUND = "orchestrator.round"
PHASE_OF = {
    "penalties.fisher_diag": "fisher",
    "orchestrator.local_train": "local_train",
    "orchestrator.aggregate": "aggregate",
    "target.TargetTracker.update": "target",
    "orchestrator.evaluate": "evaluate",
}
LOSS_AND_GRAD = "nn.Network.loss_and_grad"
PENALTY_SPANS = ("penalties.Prox.value", "penalties.Prox.grad",
                 "penalties.FisherDiag.value", "penalties.FisherDiag.grad")
BATCH = "data.iterate_batches"
LOADERS = ("data.load_idx", "data.load_cifar10")
MB = 2 ** 20


class Recorder:
    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []

    def open(self, name, n=0):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.run, n])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def close_all(self):
        """Ends spans an exception left open (the round span of a failed run)."""
        while self._stack:
            self.close()


def _file_bytes(paths):
    return sum(os.path.getsize(p) for p in paths)


def _traced(rec, name, fn, size=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.open(name, size(args) if size else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close()
    return wrapper


def _traced_batches(rec, name, fn):
    """One span per batch the generator yields: the gather of that batch."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        batches = fn(*args, **kwargs)
        while True:
            i = rec.open(name)
            try:
                batch = next(batches)
            except StopIteration:
                return
            finally:
                rec.close()
            rec.spans[i][5] = len(batch.labels)
            yield batch
    return wrapper


def install(fedte, rec):
    """Wraps every traced function; returns what `restore` needs to undo it."""
    cli, orch = fedte.cli, fedte.orchestrator

    def batch_size(args):  # (self, params, inputs or batch)
        return len(getattr(args[2], "labels", args[2]))

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "load_dataset", "cli.load_dataset", None),
        (cli, "run_single", "cli.run_single", None),
        (cli, "load_idx", "data.load_idx", lambda a: _file_bytes(a[:2])),
        (cli, "load_cifar10", "data.load_cifar10", lambda a: _file_bytes(a[0])),
        (cli, "baseline_cnn", "nn.baseline_cnn", None),
        (cli, "run_experiment", "orchestrator.run_experiment", None),
        (cli, "rounds_to_accuracy", "analysis.rounds_to_accuracy", None),
        (cli, "converged_accuracy", "analysis.converged_accuracy", None),
        (fedte.analysis, "pca_trajectory", "analysis.pca_trajectory", None),
        (orch, "select_clients", "orchestrator.select_clients", None),
        (orch, "local_train", "orchestrator.local_train", None),
        (orch, "aggregate", "orchestrator.aggregate", None),
        (orch, "evaluate", "orchestrator.evaluate", None),
        (orch, "split_proxy", "data.split_proxy", None),
        (orch, "dirichlet_partition", "data.dirichlet_partition", None),
        (orch, "sgd_step", "nn.sgd_step", None),
        (orch, "lr_at_round", "nn.lr_at_round", None),
        (fedte.penalties, "fisher_diag", "penalties.fisher_diag", None),
        (fedte.nn.Network, "forward", "nn.Network.forward", batch_size),
        (fedte.nn.Network, "loss_and_grad", LOSS_AND_GRAD, batch_size),
        (fedte.nn.Network, "init_params", "nn.Network.init_params", None),
        (fedte.data.Dataset, "subset", "data.Dataset.subset", None),
        (fedte.penalties.Prox, "value", "penalties.Prox.value", None),
        (fedte.penalties.Prox, "grad", "penalties.Prox.grad", None),
        (fedte.penalties.FisherDiag, "value", "penalties.FisherDiag.value", None),
        (fedte.penalties.FisherDiag, "grad", "penalties.FisherDiag.grad", None),
        (fedte.target.TargetTracker, "update", "target.TargetTracker.update", None),
    ]
    saved = []
    for owner, attr, name, size in targets:
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, _traced(rec, name, fn, size))
    fn = orch.iterate_batches
    saved.append((orch, "iterate_batches", fn))
    orch.iterate_batches = _traced_batches(rec, BATCH, fn)
    return saved


def restore(saved):
    for owner, attr, fn in reversed(saved):
        setattr(owner, attr, fn)


# -- per-layer metrics -------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def analyse(spans, step_flops_per_example):
    """Per-layer metrics from the spans of one or more traced runs.

    Self time is a span's duration minus that of its direct children. Inside
    a round, every span's self time goes to its layer; the round span's own
    self time is the residual: round time spent outside any wrapped call.
    Returns (metrics, per-round self seconds by layer).
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    self_t = list(dur)
    round_of = [-1] * n
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= dur[i]
            round_of[i] = round_of[parent]
        if name == ROUND:
            round_of[i] = i
    runs = {s[4] for s in spans} or {0}
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def per_run(ids):
        """Summed duration of the given spans in each traced invocation."""
        totals = defaultdict(float)
        for i in ids:
            totals[spans[i][4]] += dur[i]
        return [totals[r] for r in runs]

    rounds = by_name[ROUND]
    round_total = sum(dur[i] for i in rounds)
    layer_self = defaultdict(float)
    phase_time = defaultdict(float)
    phase_per_round = defaultdict(lambda: defaultdict(float))
    for i in range(n):
        r = round_of[i]
        if r < 0 or i == r:
            continue
        layer_self[spans[i][0].split(".")[0]] += self_t[i]
        if spans[i][3] == r and spans[i][0] in PHASE_OF:
            phase = PHASE_OF[spans[i][0]]
            phase_time[phase] += dur[i]
            phase_per_round[phase][r] += dur[i]

    def share(x):
        return x / round_total if round_total else 0.0

    def round_median(phase):
        return _median([phase_per_round[phase][r] for r in rounds])

    train_steps = [i for i in by_name[LOSS_AND_GRAD]
                   if spans[spans[i][3]][0] == "orchestrator.local_train"]
    fisher = by_name["penalties.fisher_diag"]
    fisher_examples = [
        sum(1 for j in by_name[LOSS_AND_GRAD] if spans[j][3] == i) for i in fisher
    ]
    batches = [i for i in by_name[BATCH] if spans[i][5]]
    loads = [i for name in LOADERS for i in by_name[name]]
    load_time = sum(dur[i] for i in loads)
    step_time = sum(self_t[i] for i in train_steps)
    penalty_time = sum(self_t[i] for name in PENALTY_SPANS for i in by_name[name])
    fisher_s = _median([dur[i] for i in fisher])
    fisher_n = _median(fisher_examples)

    m = {
        "nn.loss_and_grad_ms": 1e3 * _median([self_t[i] for i in train_steps]),
        "nn.loss_and_grad_calls": len(by_name[LOSS_AND_GRAD]) / len(runs),
        "nn.forward_ms": 1e3 * _median([self_t[i] for i in by_name["nn.Network.forward"]]),
        "nn.sgd_step_ms": 1e3 * _median([self_t[i] for i in by_name["nn.sgd_step"]]),
        "nn.step_gflops": (
            step_flops_per_example * sum(spans[i][5] for i in train_steps)
            / step_time / 1e9 if step_time else 0.0),
        "penalties.fisher_s": fisher_s,
        "penalties.fisher_examples": fisher_n,
        "penalties.fisher_example_ms": 1e3 * fisher_s / fisher_n if fisher_n else 0.0,
        "penalties.penalty_ms": (
            1e3 * penalty_time / len(train_steps) if train_steps else 0.0),
        "orchestrator.local_train_s": round_median("local_train"),
        "orchestrator.local_steps": len(train_steps) / len(runs),
        "orchestrator.aggregate_ms": 1e3 * _median(
            [dur[i] for i in by_name["orchestrator.aggregate"]]),
        "orchestrator.evaluate_s": round_median("evaluate"),
        "orchestrator.round_self_s": _median([self_t[i] for i in rounds]),
        "target.update_ms": 1e3 * _median(
            [dur[i] for i in by_name["target.TargetTracker.update"]]),
        "data.load_mb_per_s": (
            sum(spans[i][5] for i in loads) / MB / load_time if load_time else 0.0),
        "data.partition_s": _median(per_run(
            by_name["data.split_proxy"] + by_name["data.dirichlet_partition"])),
        "data.batch_gather_ms": 1e3 * _median([dur[i] for i in batches]),
        "data.batches": len(batches) / len(runs),
        "analysis.pca_s": _median(per_run(by_name["analysis.pca_trajectory"])),
        "cli.load_dataset_s": _median([dur[i] for i in by_name["cli.load_dataset"]]),
        "cli.outputs_s": _median([self_t[i] for i in by_name["cli.run_single"]]),
    }
    for layer in LAYERS:
        m[f"{layer}.round_share"] = share(layer_self[layer])
    m["round.residual_share"] = share(sum(self_t[i] for i in rounds))
    for phase in PHASES:
        m[f"phase.{phase}_share"] = share(phase_time[phase])
    per_round = {layer: layer_self[layer] / max(len(rounds), 1) for layer in LAYERS}
    per_round["residual"] = sum(self_t[i] for i in rounds) / max(len(rounds), 1)
    return m, per_round
