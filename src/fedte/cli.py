"""Command-line experiment runner.

`fedte run` executes one or more (variant, seed) federated runs and writes
metrics.csv, summary.json (the run's config, times, accuracy and loss curves)
and optionally trajectory.csv per run. `fedte compare` derives every statistic
from the summaries' accuracy curves: medians over seeds of rounds-to-threshold
and converged accuracy, and the relative round reduction of the -TE variants
against their base algorithms.

Config files are flat `key = value` text; command-line flags win.
"""

import argparse
import csv
import ctypes
import json
import os
import statistics
import sys
from dataclasses import fields
from datetime import datetime, timezone

from . import __version__
from .analysis import check_threshold, converged_accuracy, rounds_to_accuracy
from .data import load_cifar10, load_idx
from .errors import ConfigError, DivergenceError, IngestionError
from .nn import Network, baseline_cnn
from .orchestrator import VARIANT_KINDS, VARIANT_OPTIONS, FedConfig, prepare, run_experiment

DEFAULTS = {
    "dataset": "mnist",
    "data_dir": "data",
    **{f.name: f.default for f in fields(FedConfig)},  # the training options
    "seed": "1",  # a comma-separated list of FedConfig seeds
    "out_dir": "runs",
    "save_trajectory": False,
    "traj_stride": 1,
    "limit_train": 0,
    "limit_test": 0,
}

# the options some variant reads beyond FedAvg's: summaries of one variant must
# agree in those it reads (all for a variant not in VARIANT_OPTIONS), or their
# median would pool different penalty weights, momenta or Fisher sizes
VARIANT_KEYS = tuple(sorted({key for keys in VARIANT_OPTIONS.values() for key in keys}))
# config keys that must agree for summaries to be comparable: the dataset, its
# limits and every training option but the variant, seed and those
FAMILY_KEYS = ("dataset", "limit_train", "limit_test") + tuple(
    f.name for f in fields(FedConfig) if f.name not in ("variant", "seed", *VARIANT_KEYS))
CONVERGED_WINDOW = 20  # rounds that compare's converged accuracy averages (all of fewer)


def parse_config_file(path):
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _coerce(key, raw)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} must be "
                                  f"{type(DEFAULTS[key]).__name__}, got {raw!r}") from None
    return values


def _coerce(key, raw):
    template = DEFAULTS[key]
    if isinstance(template, bool):
        word = str(raw).lower()
        if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ValueError(raw)
        return word in ("1", "true", "yes", "on")
    return type(template)(raw)  # int, float or str, as the flag's type


def _find_file(data_dir, name):
    for candidate in (name, name + ".gz"):
        path = os.path.join(data_dir, candidate)
        if os.path.exists(path):
            return path
    raise IngestionError(f"missing dataset file: {os.path.join(data_dir, name)}")


def load_dataset(dataset, data_dir, limit_train=0, limit_test=0):
    """Returns (train, test) for mnist / fashion / cifar10, their first `limit_train`
    and `limit_test` examples (all if 0); both non-empty, one shape. Every file
    must exist, but a file past a limit's records is not opened."""
    if dataset in ("mnist", "fashion"):
        train = load_idx(_find_file(data_dir, "train-images-idx3-ubyte"),
                         _find_file(data_dir, "train-labels-idx1-ubyte"), limit_train)
        test = load_idx(_find_file(data_dir, "t10k-images-idx3-ubyte"),
                        _find_file(data_dir, "t10k-labels-idx1-ubyte"), limit_test)
    elif dataset == "cifar10":
        base = data_dir
        nested = os.path.join(data_dir, "cifar-10-batches-bin")
        if os.path.isdir(nested):
            base = nested
        train = load_cifar10([_find_file(base, f"data_batch_{i}.bin") for i in range(1, 6)],
                             limit_train)
        test = load_cifar10([_find_file(base, "test_batch.bin")], limit_test)
    else:
        raise ConfigError(f"unknown dataset {dataset!r}")
    for split, ds in (("train", train), ("test", test)):
        if len(ds) == 0:
            raise IngestionError(f"{dataset} {split} set in {data_dir} is empty")
    if test.input_shape != train.input_shape:
        raise IngestionError(f"{dataset} test images in {data_dir} have shape "
                             f"{test.input_shape}, train images {train.input_shape}")
    return train, test


# mallopt parameters of glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _pin_malloc():
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB,
    and cap its malloc arenas at one.

    The thresholds are the values glibc's dynamic rule reaches once a 32 MiB
    mapped block is freed. A run that freed no such block would map and unmap
    its im2col copies and gradients again in every round (see README). With
    one arena, the run's pool threads allocate from the main arena rather
    than each growing its own: a benchmark-shape `mnist-fedprox-te` run peaks
    at 93-100 MB with the cap and at 126-129 MB without it (2-vCPU VM). A
    no-op where mallopt cannot be found (not glibc).
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 1)


_RUN_HELP = {
    "seed": "seed or comma-separated seed list",
    "limit_train": "read only the first N training examples (0 = all)",
}
_RUN_CHOICES = {"dataset": ("mnist", "fashion", "cifar10"), "variant": VARIANT_KINDS}


def build_parser():
    parser = argparse.ArgumentParser(prog="fedte")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute federated training runs")
    run_p.add_argument("--config", help="flat key=value config file")
    # one flag per config key; a flag left out stays None so the config file
    # or DEFAULTS supplies the value (see merge_options)
    for key, default in DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        text = f"{_RUN_HELP.get(key, '')} (default: {default})".lstrip()
        if isinstance(default, bool):
            run_p.add_argument(flag, action="store_true", default=None, help=text)
        else:
            run_p.add_argument(flag, type=type(default), choices=_RUN_CHOICES.get(key),
                               help=text)

    cmp_p = sub.add_parser("compare", help="compare run summaries")
    cmp_p.add_argument("summaries", nargs="+", help="summary.json paths")
    cmp_p.add_argument("--thresholds", default="0.95")
    cmp_p.add_argument("--out", help="optional JSON report path")
    return parser


def merge_options(args):
    merged = dict(DEFAULTS)
    if args.config:
        merged.update(parse_config_file(args.config))
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged.update({key: value})
    return merged


def _parse_list(raw, name, convert):
    """The comma-separated values of `raw`, each through `convert`; ConfigError if
    there is none, one does not convert or one repeats."""
    try:
        values = [convert(v) for v in str(raw).split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{name} list {raw!r} holds a non-{convert.__name__} value") from None
    if not values:
        raise ConfigError(f"no {name} given")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{name} list {raw!r} repeats {repeated}")
    return values


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _run_dir(opts, cfg):
    return os.path.join(opts["out_dir"], f"{cfg.variant}_seed{cfg.seed}")


def _stored_rounds(rounds, stride):
    """The rounds whose global model a trajectory keeps: 1, 1 + stride, ... and the last."""
    return sorted({*range(1, rounds + 1, stride), rounds})


def run_single(opts, cfg, train, test):
    """One (variant, seed) run of `cfg`; returns the output directory."""
    keep = set(_stored_rounds(cfg.rounds, opts["traj_stride"]) if opts["save_trajectory"] else ())
    net = Network(baseline_cnn(train.input_shape))
    split, state = prepare(cfg, train, net)  # rejects the config before any output

    run_dir = _run_dir(opts, cfg)
    os.makedirs(run_dir, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()

    stored = []  # (round, global model) of each round in `keep`
    with open(os.path.join(run_dir, "metrics.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["round", "selected_clients", "test_accuracy",
                         "test_loss", "lr"])

        def on_round(state):
            rec = state.records[-1]
            writer.writerow([rec.round, ";".join(str(c) for c in rec.selected),
                             repr(rec.test_accuracy), repr(rec.test_loss), repr(rec.lr)])
            f.flush()
            if rec.round in keep:
                stored.append((rec.round, state.global_params))  # each round's new array

        records = run_experiment(cfg, split, state, test, net, on_round=on_round)
    # the models, proxy copy and shard rows are garbage now; free them before the PCA
    del split, state

    _write_json(os.path.join(run_dir, "summary.json"), {
        "artifact_version": __version__,
        "config": {k: opts[k] for k in DEFAULTS} | {"seed": cfg.seed},  # this run's seed
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "accuracy": [r.test_accuracy for r in records],
        "loss": [r.test_loss for r in records],
    })

    if keep:
        from .analysis import pca_trajectory

        traj = pca_trajectory([p for _, p in stored], rounds=[rd for rd, _ in stored])
        with open(os.path.join(run_dir, "trajectory.csv"), "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["round", "x", "y"])
            for rd, x, y in traj.points:
                writer.writerow([rd, repr(x), repr(y)])
    return run_dir


def cmd_run(args):
    _pin_malloc()  # before any data is allocated, so every block sees one setting
    try:
        opts = merge_options(args)
        for key, low in (("traj_stride", 1), ("limit_train", 0), ("limit_test", 0)):
            if opts[key] < low:
                raise ConfigError(f"{key} must be >= {low}, got {opts[key]}")
        training = {f.name: opts[f.name] for f in fields(FedConfig)}
        cfgs = [FedConfig(**training | {"seed": s}) for s in _parse_list(opts["seed"], "seed", int)]
        rounds, stride = cfgs[0].rounds, opts["traj_stride"]
        stored = len(_stored_rounds(rounds, stride))
        if opts["save_trajectory"] and stored < 3:
            raise ConfigError(f"a trajectory needs 3 stored models; {rounds} rounds at "
                              f"traj_stride {stride} store {stored}")
        # a run writes summary.json first after its rounds, so an earlier run
        # without one left only metrics.csv, which a new run rewrites; one with
        # it may have files the new run would leave beside its own
        for path in (_run_dir(opts, cfg) for cfg in cfgs):
            if os.path.exists(os.path.join(path, "summary.json")):
                raise ConfigError(f"run directory {path} holds a finished run")
        train, test = load_dataset(opts["dataset"], opts["data_dir"], opts["limit_train"],
                                   opts["limit_test"])
        for cfg in cfgs:
            print(f"run complete: {run_single(opts, cfg, train, test)}")
    except DivergenceError as exc:
        print(f"error: {exc} (partial metrics preserved)", file=sys.stderr)
        return 1
    except (ConfigError, IngestionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _median_rounds(curves, threshold):
    """Median rounds-to-threshold over accuracy curves; None if any never reaches."""
    rounds = [rounds_to_accuracy(curve, threshold) for curve in curves]
    if any(r is None for r in rounds):
        return None
    return statistics.median(rounds)


def _load_summary(path):
    """A summary.json holding every key `compare` reads and a non-empty accuracy
    curve; ConfigError if not."""
    try:
        with open(path) as f:
            summary = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    config = summary.get("config") if isinstance(summary, dict) else None
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: not a summary with a 'config' object")
    missing = [k for k in ("accuracy",) if k not in summary]
    missing += [f"config.{k}" for k in ("variant", "seed") + FAMILY_KEYS + VARIANT_KEYS
                if k not in config]
    if missing:
        raise ConfigError(f"{path}: missing {', '.join(missing)}")
    real = (int, float)  # JSON numbers: type(), not isinstance, so that no bool passes
    wanted = {"config.variant": (config["variant"], (str,)),
              "config.seed": (config["seed"], (int,)),
              "accuracy": (summary["accuracy"], (list,))}
    wrong = [k for k, (value, types) in wanted.items() if type(value) not in types]
    if "accuracy" not in wrong and any(type(a) not in real for a in summary["accuracy"]):
        wrong.append("accuracy")
    if wrong:
        raise ConfigError(f"{path}: wrong type of {', '.join(wrong)}")
    if not summary["accuracy"]:
        raise ConfigError(f"{path}: accuracy is empty")
    return summary


def _check_agreement(pairs, keys):
    """ConfigError saying why the (path, summary) pairs differ in a config key of `keys`."""
    (path0, first), rest = pairs[0], pairs[1:]
    for path, summary in rest:
        diff = {k: (first["config"][k], summary["config"][k]) for k in keys
                if summary["config"][k] != first["config"][k]}
        if diff:
            raise ConfigError(f"{path} is not config-compatible with {path0}: {diff}")


def _compare_report(groups, thresholds):
    """compare's report of the (path, summary) pairs of each variant: per variant
    its seeds and the medians over them, and per -te variant with its base in
    `groups` the relative round reduction at each threshold (None if unreached)."""
    variants = {}
    for variant, group in sorted(groups.items()):
        curves = [s["accuracy"] for _, s in group]
        variants[variant] = {
            "seeds": [s["config"]["seed"] for _, s in group],
            "rounds_to_threshold": {str(t): _median_rounds(curves, t) for t in thresholds},
            "converged_accuracy": statistics.median(
                converged_accuracy(c, min(CONVERGED_WINDOW, len(c))) for c in curves),
        }
    reductions = {}
    for te_variant in groups:
        base = te_variant.removesuffix("-te")
        if base == te_variant or base not in groups:
            continue
        for t in thresholds:
            base_r, te_r = (variants[v]["rounds_to_threshold"][str(t)] for v in (base, te_variant))
            reductions[f"{te_variant}_vs_{base}@{t}"] = (
                None if base_r is None or te_r is None else (base_r - te_r) / base_r)
    return {"thresholds": thresholds, "variants": variants, "reductions": reductions}


def _print_report(report):
    """The table of `report`'s medians per variant, then one line per reduction."""
    thresholds = report["thresholds"]
    print(f"{'variant':<12} {'seeds':>5} " +
          " ".join(f"r@{t}".rjust(8) for t in thresholds) + "  conv_acc")
    for variant, entry in report["variants"].items():
        cells = " ".join(str(entry["rounds_to_threshold"][str(t)] or "-").rjust(8)
                         for t in thresholds)
        print(f"{variant:<12} {len(entry['seeds']):>5} {cells}  "
              f"{entry['converged_accuracy']:.4f}")
    for key, reduction in report["reductions"].items():
        print(f"{key}: not reached" if reduction is None
              else f"{key}: round reduction {100 * reduction:.1f}%")


def cmd_compare(args):
    try:
        thresholds = [check_threshold(t) for t in _parse_list(args.thresholds, "threshold", float)]
        summaries = [_load_summary(path) for path in args.summaries]
        if len(summaries) < 2:
            raise ConfigError("need at least two summaries")

        pairs = list(zip(args.summaries, summaries))
        groups = {}
        for path, summary in pairs:
            config = summary["config"]
            group = groups.setdefault(config["variant"], [])
            if twins := [p for p, s in group if s["config"]["seed"] == config["seed"]]:
                raise ConfigError(f"{path} repeats the variant and seed of {twins[0]}")
            group.append((path, summary))
        checks = [(pairs, FAMILY_KEYS)] + [(group, VARIANT_OPTIONS.get(variant, VARIANT_KEYS))
                                           for variant, group in groups.items()]
        for group, keys in checks:
            _check_agreement(group, keys)

        report = _compare_report(groups, thresholds)
        if args.out:
            _write_json(args.out, report)
        _print_report(report)  # after the write, so a failed compare prints nothing
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
