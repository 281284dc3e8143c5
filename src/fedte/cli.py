"""Command-line experiment runner.

`fedte run` executes one or more (variant, seed) federated runs and writes
metrics.csv, summary.json, manifest.json and optionally trajectory.csv per
run. `fedte compare` tabulates rounds-to-threshold across summaries and the
relative round reduction of the -TE variants against their base algorithms.

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

import numpy as np

from . import __version__
from .analysis import check_threshold, converged_accuracy, rounds_to_accuracy
from .data import load_cifar10, load_idx
from .errors import ConfigError, DivergenceError, IngestionError
from .nn import Network, baseline_cnn
from .orchestrator import VARIANT_KINDS, FedConfig, prepare, run_experiment

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
    "thresholds": "0.5,0.8,0.9,0.95",
    "window": 20,
}

# config keys that must agree for summaries to be comparable
FAMILY_KEYS = (
    "dataset", "gamma", "clients", "ratio", "epochs", "batch", "rounds",
    "lr", "lr_decay", "proxy_fraction", "limit_train", "limit_test", "window",
)
# config keys that must also agree among the summaries of one variant that
# reads them, whose median would otherwise pool different penalty weights,
# momenta or Fisher sizes
VARIANT_KEYS = ("alpha", "beta", "fisher_samples")
SUMMARY_KEYS = ("variant", "seed", "accuracy", "converged_accuracy")


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


def load_dataset(dataset, data_dir):
    """Returns (train, test) for mnist / fashion / cifar10; both non-empty, one shape."""
    if dataset in ("mnist", "fashion"):
        train = load_idx(
            _find_file(data_dir, "train-images-idx3-ubyte"),
            _find_file(data_dir, "train-labels-idx1-ubyte"),
        )
        test = load_idx(
            _find_file(data_dir, "t10k-images-idx3-ubyte"),
            _find_file(data_dir, "t10k-labels-idx1-ubyte"),
        )
    elif dataset == "cifar10":
        base = data_dir
        nested = os.path.join(data_dir, "cifar-10-batches-bin")
        if os.path.isdir(nested):
            base = nested
        train = load_cifar10(
            [_find_file(base, f"data_batch_{i}.bin") for i in range(1, 6)]
        )
        test = load_cifar10([_find_file(base, "test_batch.bin")])
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
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_malloc():
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    These are the values glibc's dynamic rule reaches once a 32 MiB mapped
    block is freed. A run that freed no such block would map and unmap its
    im2col copies and gradients again in every round (see README). A no-op
    where mallopt cannot be found (not glibc).
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_RUN_HELP = {
    "seed": "seed or comma-separated seed list",
    "limit_train": "truncate training set to N examples (0 = full)",
    "thresholds": "comma-separated accuracy thresholds",
    "window": "converged-accuracy window in rounds",
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


def _parse_seeds(raw):
    try:
        seeds = [int(s) for s in str(raw).split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"seeds must be integers, got {raw!r}") from None
    if not seeds:
        raise ConfigError("no seed given")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ConfigError(f"seed list {raw!r} repeats {repeated}")
    return seeds


def _parse_thresholds(raw):
    try:
        thresholds = [float(t) for t in str(raw).split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"thresholds must be numbers, got {raw!r}") from None
    return [check_threshold(t) for t in thresholds]


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def run_single(opts, cfg, thresholds, train, test):
    """One (variant, seed) run of `cfg`; returns the output directory."""
    stride = opts["traj_stride"] if opts["save_trajectory"] else 0
    net = Network(baseline_cnn(train.input_shape))
    state = prepare(cfg, train, net)  # rejects the config before any output

    run_dir = os.path.join(opts["out_dir"], f"{cfg.variant}_seed{cfg.seed}")
    os.makedirs(run_dir, exist_ok=True)
    metrics_path = os.path.join(run_dir, "metrics.csv")
    started = datetime.now(timezone.utc).isoformat()

    stored = []  # (round, global model) every `stride` rounds and at the last
    with open(metrics_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["round", "selected_clients", "test_accuracy",
                         "test_loss", "lr"])

        def on_round(state):
            rec = state.records[-1]
            writer.writerow([
                rec.round,
                ";".join(str(c) for c in rec.selected),
                repr(rec.test_accuracy),
                repr(rec.test_loss),
                repr(rec.lr),
            ])
            f.flush()
            if stride and ((rec.round - 1) % stride == 0 or rec.round == cfg.rounds):
                stored.append((rec.round, state.global_params.copy()))

        records = run_experiment(cfg, state, test, net, on_round=on_round)
    # the models, proxy copy and shard rows are garbage now; free them before the PCA
    del state

    accuracy = [r.test_accuracy for r in records]
    summary = {
        "variant": cfg.variant,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "seed": cfg.seed,
        "dataset": opts["dataset"],
        "rounds_to_threshold": {
            str(t): rounds_to_accuracy(accuracy, t) for t in thresholds
        },
        "converged_accuracy": converged_accuracy(
            accuracy, min(opts["window"], len(accuracy))
        ),
        "accuracy": accuracy,
        "loss": [r.test_loss for r in records],
        "config": {k: opts[k] for k in DEFAULTS},
    }
    _write_json(os.path.join(run_dir, "summary.json"), summary)

    outputs = {"metrics": metrics_path,
               "summary": os.path.join(run_dir, "summary.json")}
    if stride and len(stored) < 3:
        print("warning: fewer than 3 stored models, skipping trajectory",
              file=sys.stderr)
    elif stride:
        from .analysis import pca_trajectory

        traj = pca_trajectory([p for _, p in stored],
                              rounds=[rd for rd, _ in stored])
        traj_path = os.path.join(run_dir, "trajectory.csv")
        with open(traj_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["round", "x", "y"])
            for rd, x, y in traj.points:
                writer.writerow([rd, repr(x), repr(y)])
        outputs["trajectory"] = traj_path

    manifest = {
        "artifact_version": __version__,
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "config": dict(summary["config"], seed=cfg.seed),
        "outputs": outputs,
    }
    _write_json(os.path.join(run_dir, "manifest.json"), manifest)
    return run_dir


def cmd_run(args):
    _pin_malloc()  # before any data is allocated, so every block sees one setting
    try:
        opts = merge_options(args)
        thresholds = _parse_thresholds(opts["thresholds"])
        for key, low in (("window", 1), ("traj_stride", 1),
                         ("limit_train", 0), ("limit_test", 0)):
            if opts[key] < low:
                raise ConfigError(f"{key} must be >= {low}, got {opts[key]}")
        training = {f.name: opts[f.name] for f in fields(FedConfig)}
        cfgs = [FedConfig(**training | {"seed": s}) for s in _parse_seeds(opts["seed"])]
        train, test = load_dataset(opts["dataset"], opts["data_dir"])
    except (ConfigError, IngestionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if opts["limit_train"]:
        train = train.subset(np.arange(min(opts["limit_train"], len(train))))
    if opts["limit_test"]:
        test = test.subset(np.arange(min(opts["limit_test"], len(test))))

    for cfg in cfgs:
        try:
            run_dir = run_single(opts, cfg, thresholds, train, test)
        except DivergenceError as exc:
            print(f"error: {exc} (partial metrics preserved)", file=sys.stderr)
            return 1
        except (ConfigError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"run complete: {run_dir}")
    return 0


def _median_rounds(summaries, threshold):
    """Median rounds-to-threshold over seeds; None if any seed never reaches."""
    rounds = [rounds_to_accuracy(s["accuracy"], threshold) for s in summaries]
    if any(r is None for r in rounds):
        return None
    return statistics.median(rounds)


def _load_summary(path):
    """A summary.json holding every key `compare` reads; ConfigError if not."""
    try:
        with open(path) as f:
            summary = json.load(f)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    config = summary.get("config") if isinstance(summary, dict) else None
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: not a summary with a 'config' object")
    missing = [k for k in SUMMARY_KEYS if k not in summary]
    missing += [f"config.{k}" for k in FAMILY_KEYS + VARIANT_KEYS if k not in config]
    if missing:
        raise ConfigError(f"{path}: missing {', '.join(missing)}")
    return summary


def _disagreement(pairs, keys):
    """Why the (path, summary) pairs differ in a config key of `keys`, or None."""
    (path0, first), rest = pairs[0], pairs[1:]
    for path, summary in rest:
        diff = {k: (first["config"][k], summary["config"][k]) for k in keys
                if summary["config"][k] != first["config"][k]}
        if diff:
            return f"{path} is not config-compatible with {path0}: {diff}"
    return None


def _variant_keys(variant):
    """The keys of VARIANT_KEYS that runs of `variant` read; all if it is unknown."""
    if variant not in VARIANT_KINDS:
        return VARIANT_KEYS
    cfg = FedConfig(variant=variant)
    reads = {"alpha": variant != "fedavg", "beta": cfg.uses_ensemble,
             "fisher_samples": cfg.uses_fisher}
    return tuple(k for k in VARIANT_KEYS if reads[k])


def cmd_compare(args):
    try:
        thresholds = _parse_thresholds(args.thresholds)
        summaries = [_load_summary(path) for path in args.summaries]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(summaries) < 2:
        print("error: need at least two summaries", file=sys.stderr)
        return 2

    pairs = list(zip(args.summaries, summaries))
    groups = {}
    for path, summary in pairs:
        group = groups.setdefault(summary["variant"], [])
        if twins := [p for p, s in group if s["seed"] == summary["seed"]]:
            print(f"error: {path} repeats the variant and seed of {twins[0]}", file=sys.stderr)
            return 2
        group.append((path, summary))
    checks = [(pairs, FAMILY_KEYS)] + [(group, _variant_keys(variant))
                                       for variant, group in groups.items()]
    for group, keys in checks:
        problem = _disagreement(group, keys)
        if problem:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    by_variant = {v: [s for _, s in group] for v, group in groups.items()}

    report = {"thresholds": thresholds, "variants": {}, "reductions": {}}
    print(f"{'variant':<12} {'seeds':>5} " +
          " ".join(f"r@{t:g}".rjust(8) for t in thresholds) +
          "  conv_acc")
    for variant, group in sorted(by_variant.items()):
        entry = {
            "seeds": [s["seed"] for s in group],
            "rounds_to_threshold": {
                str(t): _median_rounds(group, t) for t in thresholds
            },
            "converged_accuracy": statistics.median(
                s["converged_accuracy"] for s in group
            ),
        }
        report["variants"][variant] = entry
        cells = " ".join(
            str(entry["rounds_to_threshold"][str(t)] or "-").rjust(8)
            for t in thresholds
        )
        print(f"{variant:<12} {len(group):>5} {cells}  "
              f"{entry['converged_accuracy']:.4f}")

    for te_variant in by_variant:
        if not te_variant.endswith("-te"):
            continue
        base = te_variant[:-3]
        if base not in by_variant:
            continue
        for t in thresholds:
            base_r = report["variants"][base]["rounds_to_threshold"][str(t)]
            te_r = report["variants"][te_variant]["rounds_to_threshold"][str(t)]
            key = f"{te_variant}_vs_{base}@{t:g}"
            if base_r is None or te_r is None:
                report["reductions"][key] = None
                print(f"{key}: not reached")
            else:
                reduction = (base_r - te_r) / base_r
                report["reductions"][key] = reduction
                print(f"{key}: round reduction {100 * reduction:.1f}%")

    if args.out:
        try:
            _write_json(args.out, report)
        except OSError as exc:
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
