import argparse
import ctypes
import glob
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

import fedte
from fedte.cli import DEFAULTS, build_parser, load_dataset, main, merge_options, parse_config_file
from fedte.data import load_idx
from fedte.orchestrator import VARIANT_KINDS, VARIANT_OPTIONS, FedConfig, _openblas

from conftest import cifar_bytes, gzip_damaged, save_idx, synth_dataset, write_idx_dataset


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE_FLAGS = [
    "--clients", "4", "--ratio", "0.5", "--epochs", "1", "--batch", "32",
    "--rounds", "2", "--proxy-fraction", "0.05", "--fisher-samples", "16",
]


def run_cli(data_dir, out_dir, *extra):
    return main(["run", "--dataset", "mnist", "--data-dir", str(data_dir),
                 "--out-dir", str(out_dir), *BASE_FLAGS, *extra])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    return write_idx_dataset(str(tmp_path_factory.mktemp("data")))


def test_run_writes_outputs(data_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedprox-te",
                   "--alpha", "1", "--beta", "0.2", "--seed", "1,2") == 0
    for seed in (1, 2):
        run_dir = out / f"fedprox-te_seed{seed}"
        metrics = (run_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "round,selected_clients,test_accuracy,test_loss,lr"
        assert len(metrics) == 3  # header + 2 rounds
        summary = json.loads((run_dir / "summary.json").read_text())
        assert len(summary["accuracy"]) == 2
        # one echo of the run's config, with its own seed, not the seed list
        assert summary["config"] == {**DEFAULTS, "dataset": "mnist", "data_dir": str(data_dir),
                                     "out_dir": str(out), "clients": 4, "ratio": 0.5,
                                     "epochs": 1, "batch": 32, "rounds": 2,
                                     "proxy_fraction": 0.05, "fisher_samples": 16,
                                     "variant": "fedprox-te", "alpha": 1.0, "beta": 0.2,
                                     "seed": seed}


def test_run_deterministic_metrics(data_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(data_dir, out, "--variant", "fedcl",
                       "--alpha", "0.1", "--seed", "2") == 0
    a = (out_a / "fedcl_seed2" / "metrics.csv").read_bytes()
    b = (out_b / "fedcl_seed2" / "metrics.csv").read_bytes()
    assert a == b


def test_missing_dataset_names_path(tmp_path, capsys):
    assert main(["run", "--dataset", "mnist",
                 "--data-dir", str(tmp_path / "nowhere"),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "train-images-idx3-ubyte" in err
    assert "nowhere" in err


def test_trajectory_output(data_dir, tmp_path, capsys):
    # 2 rounds store 2 models, below the PCA's 3: refused before any training
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "3",
                   "--save-trajectory", "--traj-stride", "1") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "trajectory" in err[0]
    assert not out.exists()
    out2 = tmp_path / "out2"
    assert main(["run", "--dataset", "mnist", "--data-dir", str(data_dir),
                 "--out-dir", str(out2), "--clients", "4", "--ratio", "0.5",
                 "--epochs", "1", "--batch", "32", "--rounds", "4",
                 "--proxy-fraction", "0.05", "--variant", "fedavg",
                 "--seed", "3", "--save-trajectory", "--traj-stride", "1"]) == 0
    lines = (out2 / "fedavg_seed3" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "round,x,y"
    assert len(lines) == 5


@pytest.mark.parametrize("rounds, stride, stored", [("6", "4", [1, 5, 6]),
                                                    ("5", "2", [1, 3, 5])])
def test_trajectory_stores_every_stride_th_round_and_the_last(data_dir, tmp_path,
                                                              rounds, stride, stored):
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "1", "--rounds", rounds,
                   "--save-trajectory", "--traj-stride", stride) == 0
    lines = (out / "fedavg_seed1" / "trajectory.csv").read_text().splitlines()[1:]
    assert [int(line.split(",")[0]) for line in lines] == stored


def test_config_file_and_override(data_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "variant = fedprox\nalpha = 0.5\nrounds = 2\nclients = 4\n"
        "ratio = 0.5\nepochs = 1\nbatch = 32\nproxy_fraction = 0.05\n"
        f"data_dir = {data_dir}\nout_dir = {tmp_path / 'out'}\nseed = 4\n"
    )
    assert main(["run", "--config", str(cfg), "--rounds", "3"]) == 0
    metrics = (tmp_path / "out" / "fedprox_seed4" / "metrics.csv").read_text()
    assert len(metrics.splitlines()) == 4  # flag overrides config rounds


def test_summary_config_reproduces_run(data_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedprox",
                   "--alpha", "1", "--seed", "5") == 0
    run_dir = out / "fedprox_seed5"
    summary = json.loads((run_dir / "summary.json").read_text())

    cfg_lines = []
    for key, value in summary["config"].items():
        if key in DEFAULTS:
            cfg_lines.append(f"{key} = {value}")
    cfg_lines.append(f"out_dir = {tmp_path / 'replay'}")
    cfg_path = tmp_path / "replay.cfg"
    cfg_path.write_text("\n".join(cfg_lines) + "\n")
    assert main(["run", "--config", str(cfg_path)]) == 0

    original = (run_dir / "metrics.csv").read_bytes()
    replay = (tmp_path / "replay" / "fedprox_seed5" / "metrics.csv").read_bytes()
    assert original == replay


def _write_summary(path, variant, curve, seed=1, **config_overrides):
    config = dict(DEFAULTS, variant=variant, seed=seed, **config_overrides)
    payload = {
        "artifact_version": fedte.__version__, "config": config,
        "started": "2021-08-19T00:00:00+00:00", "finished": "2021-08-19T01:00:00+00:00",
        "accuracy": list(curve), "loss": [0.0] * len(curve),
    }
    path.write_text(json.dumps(payload))
    return str(path)


# the run-only options that earlier fedte versions echoed in `config`
OLD_RUN_KEYS = {"thresholds": "0.5,0.8,0.9,0.95", "window": 20}
# the statistics they stored, which compare ignores: these are not the curves'
OLD_STATISTICS = {"rounds_to_threshold": {"0.95": 1}, "converged_accuracy": 0.25}


def _write_stats_summary(path, variant, curve, seed=1):
    """A summary as `fedte run` wrote it while it stored the curve's statistics."""
    config = dict(DEFAULTS, variant=variant, seed=seed, **OLD_RUN_KEYS)
    payload = {
        "artifact_version": fedte.__version__, "config": config,
        "started": "2021-08-19T00:00:00+00:00", "finished": "2021-08-19T01:00:00+00:00",
        **OLD_STATISTICS, "accuracy": list(curve), "loss": [0.0] * len(curve),
    }
    path.write_text(json.dumps(payload))
    return str(path)


def _write_old_summary(path, variant, curve, seed=1):
    """A summary as `fedte run` wrote it while the config had copies beside `config`."""
    config = dict(DEFAULTS, variant=variant, seed=seed, **OLD_RUN_KEYS)
    payload = {
        "variant": variant, "alpha": 1.0, "beta": 0.2, "seed": seed,
        "dataset": config["dataset"],
        **OLD_STATISTICS, "accuracy": list(curve), "loss": [0.0] * len(curve),
        "config": config,
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_compare_reads_summaries_of_the_old_format(tmp_path):
    base_curve = [0.5] * 99 + [0.96, 0.97]
    te_curve = [0.5] * 79 + [0.96, 0.97]
    reports = []
    for write in (_write_summary, _write_stats_summary, _write_old_summary):
        paths = [write(tmp_path / f"{v}{seed}.json", v, curve, seed=seed)
                 for v, curve in (("fedprox", base_curve), ("fedprox-te", te_curve))
                 for seed in (1, 2)]
        assert main(["compare", *paths, "--out", str(tmp_path / "report.json")]) == 0
        reports.append(json.loads((tmp_path / "report.json").read_text()))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["variants"]["fedprox"]["seeds"] == [1, 2]
    assert reports[0]["reductions"]["fedprox-te_vs_fedprox@0.95"] == pytest.approx(0.2)
    assert reports[0]["variants"]["fedprox"]["converged_accuracy"] == pytest.approx(
        (18 * 0.5 + 0.96 + 0.97) / 20)


def test_compare_converged_accuracy_is_the_median_of_each_curves_last_20_rounds(tmp_path):
    # each curve's last value differs from the mean compare takes
    curves = {1: [0.1] * 10 + [0.5] * 19 + [0.9],  # last 20: (19 * 0.5 + 0.9) / 20 = 0.52
              2: [0.2, 0.4, 0.9],                  # shorter than 20: all of it, 0.5
              3: [0.0] * 5 + [0.7] * 20 + [0.1]}   # last 20: (19 * 0.7 + 0.1) / 20 = 0.67
    paths = [_write_summary(tmp_path / f"s{seed}.json", "fedprox", curve, seed=seed)
             for seed, curve in curves.items()]
    report = tmp_path / "report.json"
    assert main(["compare", *paths, "--out", str(report)]) == 0
    converged = json.loads(report.read_text())["variants"]["fedprox"]["converged_accuracy"]
    assert converged == pytest.approx(0.52)


def test_compare_reports_reduction(tmp_path, capsys):
    base_curve = [0.5] * 99 + [0.96, 0.97]
    te_curve = [0.5] * 79 + [0.96] * 22
    a = _write_summary(tmp_path / "base.json", "fedprox", base_curve)
    b = _write_summary(tmp_path / "te.json", "fedprox-te", te_curve)
    report_path = tmp_path / "report.json"
    assert main(["compare", a, b, "--thresholds", "0.95",
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["variants"]["fedprox"]["rounds_to_threshold"]["0.95"] == 100
    assert report["variants"]["fedprox-te"]["rounds_to_threshold"]["0.95"] == 80
    assert report["reductions"]["fedprox-te_vs_fedprox@0.95"] == pytest.approx(0.2)


def test_compare_identical_zero_reduction(tmp_path):
    curve = [0.9, 0.96, 0.97]
    a = _write_summary(tmp_path / "a.json", "fedprox", curve)
    b = _write_summary(tmp_path / "b.json", "fedprox-te", curve)
    report_path = tmp_path / "r.json"
    assert main(["compare", a, b, "--thresholds", "0.95",
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["reductions"]["fedprox-te_vs_fedprox@0.95"] == 0


def test_compare_unreached_threshold_absent(tmp_path):
    a = _write_summary(tmp_path / "a.json", "fedprox", [0.9, 0.96])
    b = _write_summary(tmp_path / "b.json", "fedprox-te", [0.5, 0.6])
    report_path = tmp_path / "r.json"
    assert main(["compare", a, b, "--thresholds", "0.95",
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["reductions"]["fedprox-te_vs_fedprox@0.95"] is None


def test_compare_unwritable_report_is_an_error(tmp_path, capsys):
    a = _write_summary(tmp_path / "a.json", "fedprox", [0.9, 0.96])
    b = _write_summary(tmp_path / "b.json", "fedprox-te", [0.5, 0.96])
    (tmp_path / "file").write_text("")
    assert main(["compare", a, b, "--out", str(tmp_path / "file" / "r.json")]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: ") and "file" in err[0]


def test_compare_prints_the_report(tmp_path, capsys):
    # fedprox reaches 0.5 at rounds 10 and 12 and 0.95 at 90 and 95; fedprox-te
    # reaches 0.5 at rounds 8 and 9 and 0.95 in seed 2 only. Converged accuracy
    # is the median over seeds of each curve's last-20-round mean: (0.798 +
    # 0.711) / 2 for fedprox, (0.6 + 0.798) / 2 for fedprox-te
    curves = {("fedprox", 1): [0.1] * 9 + [0.6] * 80 + [0.96] * 11,
              ("fedprox", 2): [0.1] * 11 + [0.6] * 83 + [0.97] * 6,
              ("fedprox-te", 1): [0.1] * 7 + [0.6] * 93,
              ("fedprox-te", 2): [0.1] * 8 + [0.7] * 85 + [0.98] * 7}
    paths = [_write_summary(tmp_path / f"{v}{seed}.json", v, curve, seed=seed)
             for (v, seed), curve in curves.items()]
    assert main(["compare", *paths, "--thresholds", "0.5,0.95"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "variant      seeds    r@0.5   r@0.95  conv_acc",
        "fedprox          2     11.0     92.5  0.7545",
        "fedprox-te       2      8.5        -  0.6990",
        "fedprox-te_vs_fedprox@0.5: round reduction 22.7%",
        "fedprox-te_vs_fedprox@0.95: not reached",
    ]


def test_compare_spells_each_threshold_as_given(tmp_path, capsys):
    # two thresholds equal to six significant digits: each keeps its own column,
    # reduction line and report keys
    curves = {"fedprox": [0.1] * 3 + [0.12345675] * 2 + [0.9] * 5,
              "fedprox-te": [0.1] + [0.12345675] * 2 + [0.9] * 7}
    paths = [_write_summary(tmp_path / f"{v}.json", v, curve) for v, curve in curves.items()]
    out = tmp_path / "report.json"
    assert main(["compare", *paths, "--thresholds", "0.1234567,0.1234568",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[2:4] == ["r@0.1234567", "r@0.1234568"]
    assert lines[3:] == ["fedprox-te_vs_fedprox@0.1234567: round reduction 50.0%",
                         "fedprox-te_vs_fedprox@0.1234568: round reduction 33.3%"]
    report = json.loads(out.read_text())
    assert list(report["reductions"]) == ["fedprox-te_vs_fedprox@0.1234567",
                                          "fedprox-te_vs_fedprox@0.1234568"]
    assert report["variants"]["fedprox"]["rounds_to_threshold"] == {
        "0.1234567": 4, "0.1234568": 6}


def test_compare_refuses_a_repeated_run(tmp_path, capsys):
    # a seed counted twice would weigh one run double in every median
    a = _write_summary(tmp_path / "a.json", "fedavg", [0.9], seed=1)
    b = _write_summary(tmp_path / "b.json", "fedavg", [0.8], seed=1)
    c = _write_summary(tmp_path / "c.json", "fedprox", [0.9], seed=1)
    for first, second in ((a, a), (a, b)):
        assert main(["compare", c, first, second]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1 and err[0].startswith("error: ")
        assert first in err[0] and second in err[0]
    assert main(["compare", a, c]) == 0


@pytest.mark.parametrize("key", ["rounds"])
def test_compare_refuses_mismatched_configs(tmp_path, capsys, key):
    a = _write_summary(tmp_path / "a.json", "fedprox", [0.9])
    b = _write_summary(tmp_path / "b.json", "fedprox-te", [0.9], **{key: 999})
    assert main(["compare", a, b]) == 2
    assert "not config-compatible" in capsys.readouterr().err


@pytest.mark.parametrize("variant, key, values", [
    ("fedprox", "alpha", (1.0, 0.001, 1.0)),
    ("fedprox-te", "beta", (0.2, 0.6, 0.2)),
    ("fedcl", "fisher_samples", (1024, 16, 1024)),
])
def test_compare_refuses_one_variant_with_different_settings(tmp_path, capsys,
                                                             variant, key, values):
    # a median over seeds run with different penalty weights, momenta or
    # Fisher sizes describes no single setting
    paths = [_write_summary(tmp_path / f"s{i}.json", variant, [0.9], seed=i,
                            **{key: value})
             for i, value in enumerate(values)]
    assert main(["compare", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "not config-compatible" in captured.err
    assert key in captured.err and "s1.json" in captured.err


@pytest.mark.parametrize("variant, unread", [
    ("fedavg", {"alpha": 0.001, "beta": 0.6, "fisher_samples": 16}),
    ("fedprox", {"beta": 0.6, "fisher_samples": 16}),
    ("fedprox-te", {"fisher_samples": 16}),
    ("fedcl", {"beta": 0.6}),
])
def test_compare_allows_one_variant_to_differ_in_keys_it_does_not_read(
        tmp_path, variant, unread):
    a = _write_summary(tmp_path / "a.json", variant, [0.9], seed=1)
    b = _write_summary(tmp_path / "b.json", variant, [0.9], seed=2, **unread)
    assert main(["compare", a, b]) == 0


@pytest.mark.parametrize("variant", [*VARIANT_KINDS, "fedsgd"])
@pytest.mark.parametrize("key", [f.name for f in fields(FedConfig)
                                 if f.name not in ("variant", "seed")])
def test_compare_checks_every_training_option(tmp_path, capsys, variant, key):
    # a FedConfig field is checked by compare with no change to cli: among all
    # summaries, or, for an option some variant reads beyond FedAvg's, among the
    # summaries of each variant that reads it (every such option for an unknown
    # variant, such as one a later fedte adds)
    a = _write_summary(tmp_path / "a.json", variant, [0.9], seed=1)
    b = _write_summary(tmp_path / "b.json", variant, [0.9], seed=2,
                       **{key: DEFAULTS[key] + 1})
    variant_option = any(key in keys for keys in VARIANT_OPTIONS.values())
    unread = variant_option and key not in VARIANT_OPTIONS.get(variant, (key,))
    assert main(["compare", a, b]) == (0 if unread else 2)
    err = capsys.readouterr().err
    assert (err == "") if unread else ("not config-compatible" in err and key in err)


def test_compare_allows_different_settings_across_variants(tmp_path):
    a = _write_summary(tmp_path / "a.json", "fedprox", [0.9], alpha=0.01)
    b = _write_summary(tmp_path / "b.json", "fedprox-te", [0.9], alpha=1.0,
                       beta=0.6, fisher_samples=16)
    assert main(["compare", a, b]) == 0


def test_run_empty_seed_list_is_an_error(data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("config_text, flags, named", [
    (None, ["--config", "missing.cfg"], "missing.cfg"),
    ("roundz = 2\n", ["--config", "run.cfg"], "roundz"),
    ("rounds = abc\n", ["--config", "run.cfg"], "'abc'"),
    ("window = 20\n", ["--config", "run.cfg"], "unknown key 'window'"),
    (None, ["--save-trajectory", "--traj-stride", "0"], "traj_stride"),
    # rejected by FedConfig, the one check of each training option's range, or
    # by the data split, which runs before the run directory is made
    (None, ["--gamma", "0"], "concentration"),
    (None, ["--clients", "0"], "clients must be >= 1"),
    (None, ["--ratio", "0"], "selection ratio"),
    (None, ["--ratio", "1.5"], "selection ratio"),
    (None, ["--batch", "0"], "batch must be >= 1"),
    (None, ["--lr", "0"], "lr schedule"),
    (None, ["--clients", "5000"], "more clients"),
    (None, ["--proxy-fraction", "0"], "proxy fraction"),
    (None, ["--proxy-fraction", "0.01", "--limit-train", "200"], "proxy fraction"),
    (None, ["--variant", "fedcl", "--fisher-samples", "-3"], "fisher_samples"),
    (None, ["--variant", "fedcl", "--fisher-samples", "0"], "fisher_samples"),
    (None, ["--seed", "3,1,3"], "repeats [3]"),
    (None, ["--seed", "-1"], "seed must be >= 0"),
    (None, ["--seed", "1,-2"], "seed must be >= 0"),
    (None, ["--gamma", "nan"], "concentration"),
    (None, ["--gamma", "inf"], "concentration"),
    (None, ["--alpha", "nan"], "alpha"),
    (None, ["--variant", "fedprox", "--alpha", "-0.1"], "alpha must be finite and >= 0"),
    (None, ["--variant", "fedprox-te", "--beta", "1"], "beta must be in [0, 1)"),
    (None, ["--variant", "fedcl-te", "--beta", "-0.1"], "beta must be in [0, 1)"),
    (None, ["--lr", "inf"], "lr schedule"),
    (None, ["--save-trajectory"], "trajectory needs 3"),
    (None, ["--save-trajectory", "--rounds", "3", "--traj-stride", "2"],
     "trajectory needs 3"),
], ids=["missing-config", "unknown-key", "non-numeric-value", "window-key",
        "traj-stride-0", "gamma-0", "clients-0", "ratio-0", "ratio-above-1", "batch-0",
        "lr-0", "clients-above-examples", "proxy-fraction-0",
        "proxy-below-classes", "fisher-samples-negative", "fisher-samples-0",
        "seed-repeated", "seed-negative", "seed-list-negative", "gamma-nan",
        "gamma-inf", "alpha-nan", "alpha-negative", "beta-1", "beta-negative", "lr-inf",
        "trajectory-of-2-rounds", "trajectory-of-2-stored-models"])
def test_run_bad_option_fails_before_training(data_dir, tmp_path, monkeypatch,
                                              capsys, config_text, flags, named):
    monkeypatch.chdir(tmp_path)
    if config_text is not None:
        (tmp_path / "run.cfg").write_text(config_text)
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "1", *flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_compare_rejects_threshold_before_any_output(tmp_path, capsys):
    a = _write_summary(tmp_path / "a.json", "fedprox", [0.9])
    b = _write_summary(tmp_path / "b.json", "fedprox-te", [0.9])
    assert main(["compare", a, b, "--thresholds", "1.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("threshold", ["0", "1", "-0.5", "nan"])
def test_compare_refuses_a_threshold_outside_0_1(tmp_path, capsys, threshold):
    # the one check of a threshold's range: rounds_to_accuracy takes it as given
    a = _write_summary(tmp_path / "a.json", "fedprox", [0.9])
    b = _write_summary(tmp_path / "b.json", "fedprox-te", [0.9])
    report = tmp_path / "report.json"
    assert main(["compare", a, b, "--thresholds", f"0.5,{threshold}",
                 "--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: threshold must be in (0, 1), got {float(threshold)}\n"
    assert not report.exists()


def test_compare_empty_threshold_list_is_an_error(tmp_path, capsys):
    a = _write_summary(tmp_path / "a.json", "fedprox", [0.9])
    b = _write_summary(tmp_path / "b.json", "fedprox-te", [0.9])
    report = tmp_path / "report.json"
    assert main(["compare", a, b, "--thresholds", ",", "--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no threshold given\n"
    assert not report.exists()


@pytest.mark.parametrize("thresholds", ["0.95,0.95", "0.5,0.95,.95"])
def test_compare_repeated_threshold_is_an_error(tmp_path, capsys, thresholds):
    # a repeated threshold would print a column and a reduction twice, but its
    # rounds_to_threshold key once
    a = _write_summary(tmp_path / "a.json", "fedprox", [0.9])
    b = _write_summary(tmp_path / "b.json", "fedprox-te", [0.9])
    report = tmp_path / "report.json"
    assert main(["compare", a, b, "--thresholds", thresholds, "--out", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "repeats [0.95]" in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not report.exists()


def test_run_then_compare_round_trip(data_dir, tmp_path):
    out = tmp_path / "out"
    for variant, extra in (("fedprox", ()), ("fedprox-te", ("--save-trajectory",))):
        assert run_cli(data_dir, out, "--variant", variant, "--seed", "1,2",
                       "--rounds", "3", *extra) == 0
    for variant, outputs in (("fedprox", {"metrics.csv", "summary.json"}),
                             ("fedprox-te", {"metrics.csv", "summary.json", "trajectory.csv"})):
        for seed in (1, 2):
            run_dir = out / f"{variant}_seed{seed}"
            assert {p.name for p in run_dir.iterdir()} == outputs
            summary = json.loads((run_dir / "summary.json").read_text())
            assert set(summary) == {"artifact_version", "config", "started", "finished",
                                    "accuracy", "loss"}
            assert (summary["config"]["variant"], summary["config"]["seed"]) == (variant, seed)
    report = tmp_path / "report.json"
    assert main(["compare", *sorted(map(str, out.glob("*/summary.json"))),
                 "--thresholds", "0.1,0.5", "--out", str(report)]) == 0
    variants = json.loads(report.read_text())["variants"]
    assert sorted(variants) == ["fedprox", "fedprox-te"]
    assert [variants[v]["seeds"] for v in sorted(variants)] == [[1, 2], [1, 2]]


def test_compare_missing_summary_is_an_error(tmp_path, capsys):
    a = _write_summary(tmp_path / "a.json", "fedprox", [0.9])
    missing = str(tmp_path / "missing.json")
    assert main(["compare", a, missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "missing.json" in captured.err



# a summary key and a value compare cannot read: of the wrong JSON type, or empty
MISTYPED = {
    "variant-list": ("config.variant", ["fedprox"]),
    "variant-number": ("config.variant", 1),
    "seed-list": ("config.seed", [1]),
    "seed-bool": ("config.seed", True),
    "seed-float": ("config.seed", 1.0),
    "accuracy-strings": ("accuracy", ["abc"]),
    "accuracy-bools": ("accuracy", [0.9, True]),
    "accuracy-number": ("accuracy", 0.9),
    "accuracy-object": ("accuracy", {}),
    "accuracy-empty": ("accuracy", []),
}


@pytest.mark.parametrize("bad", ["{}", "list", "variant", "seed", "accuracy", "config",
                                 *MISTYPED])
def test_compare_malformed_summary_is_an_error(tmp_path, capsys, bad):
    good = _write_summary(tmp_path / "good.json", "fedprox", [0.9])
    payload = json.loads((tmp_path / "good.json").read_text())
    if bad == "{}":
        payload = {}
    elif bad == "list":
        payload = [payload]
    elif bad in MISTYPED:
        key, value = MISTYPED[bad]
        if key.startswith("config."):
            payload["config"][key.removeprefix("config.")] = value
        else:
            payload[key] = value
    elif bad in ("variant", "seed"):
        del payload["config"][bad]
    else:
        del payload[bad]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for paths in ([good, str(path)], [str(path), str(path)]):
        assert main(["compare", *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:")
        assert len(captured.err.splitlines()) == 1
        if bad in MISTYPED:
            assert MISTYPED[bad][0] in captured.err


@pytest.mark.parametrize("flag", ["--limit-train", "--limit-test"])
def test_run_negative_limit_fails_before_loading_data(data_dir, tmp_path, monkeypatch,
                                                      capsys, flag):
    def no_load(*args):
        raise AssertionError("dataset loaded")

    monkeypatch.setattr("fedte.cli.load_dataset", no_load)
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "1", flag, "-5") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert flag[2:].replace("-", "_") in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flags, named", [
    (["--gamma", "0"], "concentration"),
    (["--proxy-fraction", "1.5"], "proxy fraction"),
], ids=["gamma-0", "proxy-fraction-1.5"])
def test_run_bad_data_option_fails_before_loading_data(data_dir, tmp_path, monkeypatch,
                                                       capsys, flags, named):
    # FedConfig checks the options that split and partition the data, so no
    # data file is read for a config that `prepare` would reject
    def no_load(*args):
        raise AssertionError("dataset loaded")

    monkeypatch.setattr("fedte.cli.load_dataset", no_load)
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "1", *flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--lr", "-1"], ["--lr", "0"], ["--lr-decay", "0"],
                                   ["--lr-decay", "1.5"],
                                   ["--lr-decay", "1e-200", "--rounds", "4"]],
                         ids=["lr-negative", "lr-zero", "decay-zero", "decay-above-one",
                              "lr-underflows"])
def test_run_bad_lr_schedule_fails_before_any_run_dir(data_dir, tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "1", *flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "lr schedule" in captured.err
    assert not list(tmp_path.glob("out/*_seed*/metrics.csv"))


@pytest.mark.parametrize("raw", ["ture", "2", "", "enabled"])
def test_config_boolean_typo_is_an_error(data_dir, tmp_path, capsys, raw):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"rounds = 2\nsave_trajectory = {raw}\n")
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "1",
                   "--config", str(cfg)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}:2:") and "save_trajectory" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("raw, value", [("1", True), ("Yes", True), ("on", True),
                                        ("TRUE", True), ("0", False), ("false", False),
                                        ("No", False), ("off", False)])
def test_config_boolean_words(tmp_path, raw, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"save_trajectory = {raw}\n")
    assert parse_config_file(str(cfg)) == {"save_trajectory": value}


@pytest.mark.parametrize("case, named", [
    ("empty-train", "train set"),
    ("empty-test", "test set"),
    ("test-shape", "shape (1, 20, 20)"),
    ("label-12", "label 12"),
    ("one-example-class", "class 9 has one example"),
], ids=["empty-train", "empty-test", "test-shape", "label-12", "one-example-class"])
def test_run_bad_data_files_fail_before_any_output(tmp_path, capsys, case, named):
    data = tmp_path / "data"
    write_idx_dataset(str(data))  # 400 train and 100 test images, 16x16
    train_files = (str(data / "train-images-idx3-ubyte"),
                   str(data / "train-labels-idx1-ubyte"))
    test_files = (str(data / "t10k-images-idx3-ubyte"),
                  str(data / "t10k-labels-idx1-ubyte"))
    if case == "empty-train":
        save_idx(synth_dataset(0, 0, shape=(1, 16, 16)), *train_files)
    elif case == "empty-test":
        save_idx(synth_dataset(0, 0, shape=(1, 16, 16)), *test_files)
    elif case == "test-shape":
        save_idx(synth_dataset(100, 0, shape=(1, 20, 20)), *test_files)
    elif case == "label-12":
        train = load_idx(*train_files)
        train.labels[0] = 12
        save_idx(train, *train_files)
    else:  # no proxy can hold class 9 and leave training one of it
        train = load_idx(*train_files)
        nines = np.flatnonzero(train.labels == 9)
        train.labels[nines[1:]] = 8
        save_idx(train, *train_files)
    out = tmp_path / "out"
    # one client trains on every example, so a bad label is always reached
    assert run_cli(data, out, "--variant", "fedavg", "--seed", "1",
                   "--clients", "1", "--ratio", "1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not list(tmp_path.glob("out/*_seed*"))


@pytest.mark.parametrize("fraction", ["0.9", "0.99"])
def test_run_with_a_proxy_that_leaves_a_class_no_training_example_writes_nothing(
        tmp_path, capsys, fraction):
    # 5 training examples per class hold a proxy of at most 40 of 50 rows
    data = tmp_path / "data"
    write_idx_dataset(str(data))
    train_files = (str(data / "train-images-idx3-ubyte"), str(data / "train-labels-idx1-ubyte"))
    train = load_idx(*train_files).subset(np.arange(50))
    train.labels[:] = np.repeat(np.arange(10), 5)
    save_idx(train, *train_files)
    out = tmp_path / "out"
    assert run_cli(data, out, "--variant", "fedavg", "--seed", "1", "--clients", "1",
                   "--ratio", "1", "--proxy-fraction", fraction) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: proxy fraction {fraction} yields")
    assert len(captured.err.splitlines()) == 1
    assert not list(out.glob("*_seed*"))


def write_cifar_dir(data, n=20):
    """Five CIFAR-10 training batches and a test batch of `n` random records each."""
    data.mkdir()
    for seed, name in enumerate([f"data_batch_{i}" for i in range(1, 6)] + ["test_batch"]):
        (data / f"{name}.bin").write_bytes(cifar_bytes(n, seed))
    return data


@pytest.mark.parametrize("damage", ["truncated", "corrupt"])
@pytest.mark.parametrize("dataset", ["mnist", "cifar10"])
def test_run_damaged_gzip_file_fails_before_any_output(tmp_path, capsys, dataset, damage):
    data = tmp_path / "data"
    if dataset == "mnist":
        write_idx_dataset(str(data))
        damaged = gzip_damaged(str(data / "train-images-idx3-ubyte"), damage)
    else:
        write_cifar_dir(data)
        damaged = gzip_damaged(str(data / "data_batch_3.bin"), damage)
    out = tmp_path / "out"
    assert main(["run", "--dataset", dataset, "--data-dir", str(data), "--out-dir", str(out),
                 *BASE_FLAGS, "--variant", "fedavg", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {damaged}: ")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def _run_actions():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices["run"]._actions}


def test_every_config_key_is_a_run_flag_of_its_type():
    actions = _run_actions()
    assert set(actions) == set(DEFAULTS) | {"help", "config"}
    for key, default in DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        assert actions[key].option_strings == [flag]
        argv = ["run", flag] if isinstance(default, bool) else ["run", flag, str(default)]
        parsed = getattr(build_parser().parse_args(argv), key)
        assert parsed == (True if isinstance(default, bool) else default)
        assert type(parsed) is type(default)
        # a flag left out stays None, so merge_options keeps the config value
        assert getattr(build_parser().parse_args(["run"]), key) is None
    assert actions["variant"].choices == VARIANT_KINDS


def test_every_fed_config_field_is_a_run_flag_with_its_default():
    actions = _run_actions()
    for f in fields(FedConfig):
        assert type(f.default) is f.type, f.name
        if f.name == "seed":  # the flag is a comma-separated list of FedConfig seeds
            assert (DEFAULTS["seed"], actions["seed"].type) == (str(f.default), str)
        else:
            assert (DEFAULTS[f.name], actions[f.name].type) == (f.default, f.type)
    FedConfig()  # the defaults are a run that passes every check


def readme_commands():
    """The arguments of each `fedte run` / `fedte compare` in README's sh blocks."""
    with open(os.path.join(ROOT, "README.md")) as f:
        blocks = re.findall(r"^```sh\n(.*?)^```", f.read(), re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    return [words[1:] for words in map(shlex.split, lines)
            if words[:1] == ["fedte"] and words[1:2] in (["run"], ["compare"])]


def test_every_readme_command_parses():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"run", "compare"}
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's `fedte {shlex.join(argv)}` does not parse")


@pytest.mark.parametrize("name", sorted(os.path.basename(path) for path in
                                  glob.glob(os.path.join(ROOT, "configs", "*.cfg"))))
def test_every_shipped_config_file_parses(name):
    assert parse_config_file(os.path.join(ROOT, "configs", name))


def test_flag_beats_config_for_every_type(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("save_trajectory = off\nrounds = 5\nlr = 0.1\nvariant = fedprox\n")
    args = build_parser().parse_args([
        "run", "--config", str(cfg), "--save-trajectory", "--rounds", "2",
        "--lr", "0.01", "--variant", "fedcl",
    ])
    opts = merge_options(args)
    assert (opts["save_trajectory"], opts["rounds"], opts["lr"], opts["variant"]) == (
        True, 2, 0.01, "fedcl")
    assert merge_options(build_parser().parse_args(["run", "--config", str(cfg)]))[
        "rounds"] == 5


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8  # glibc's malloc.h


class FakeLibc:
    def __init__(self, calls):
        self.calls = calls

    def mallopt(self, param, value):
        self.calls.append(("mallopt", param, value))
        return 1


@pytest.fixture
def fresh_openblas():
    """For a test that fakes ctypes: run_experiment looks OpenBLAS up again
    during the test, and again after it."""
    _openblas.cache_clear()
    yield
    _openblas.cache_clear()


def mapped_openblas():
    """The existing OpenBLAS files this process maps, in the order the lookup
    loads them."""
    if not os.path.exists("/proc/self/maps"):
        return []
    with open("/proc/self/maps") as maps:
        paths = {line.split(None, 5)[5].rstrip("\n") for line in maps if "openblas" in line}
    return sorted(filter(os.path.exists, paths))


def test_run_pins_malloc_thresholds_before_loading_data(data_dir, tmp_path, monkeypatch,
                                                        fresh_openblas):
    calls = []

    def fake_cdll(name, *args, **kwargs):
        calls.append(("load", name))
        return FakeLibc(calls)

    def recorded_load(*args):
        calls.append(("load_dataset",))
        return load_dataset(*args)

    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    monkeypatch.setattr("fedte.cli.load_dataset", recorded_load)
    assert run_cli(data_dir, tmp_path / "out", "--variant", "fedavg") == 0
    assert calls == [("load", "libc.so.6"),
                     ("mallopt", M_MMAP_THRESHOLD, 32 << 20),
                     ("mallopt", M_TRIM_THRESHOLD, 64 << 20),
                     ("mallopt", M_ARENA_MAX, 1),
                     ("load_dataset",),
                     # run_experiment's OpenBLAS lookup, which finds no symbol in FakeLibc
                     *[("load", path) for path in mapped_openblas()]]


class NoMallopt:
    pass


def no_libc(*args, **kwargs):
    raise OSError("libc.so.6: cannot open shared object file")


@pytest.mark.parametrize("cdll", [lambda *a, **k: NoMallopt(), no_libc],
                         ids=["mallopt-absent", "library-fails-to-load"])
def test_run_without_mallopt_still_runs(data_dir, tmp_path, monkeypatch, cdll,
                                       fresh_openblas):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedavg") == 0
    assert (out / "fedavg_seed1" / "metrics.csv").exists()


def test_importing_fedte_calls_no_library():
    script = (
        "import ctypes\n"
        "calls = []\n"
        "ctypes.CDLL = lambda *args, **kwargs: calls.append(args)\n"
        "import fedte, fedte.cli\n"
        "assert calls == [], calls\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedte.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_pyproject_takes_its_version_from_the_package():
    # summary.json's artifact_version and the installed metadata share one source
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools' beta and deprecation notices
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        config = pyprojecttoml.read_configuration(os.path.join(ROOT, "pyproject.toml"))
    assert config["project"]["version"] == fedte.__version__


def test_run_into_an_existing_file_is_an_error(data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("")
    assert run_cli(data_dir, out, "--seed", "1") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
    assert out.read_text() == ""


def test_a_rerun_into_a_finished_run_is_refused_and_keeps_its_files(data_dir, tmp_path,
                                                                     capsys):
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "1", "--rounds", "4",
                   "--save-trajectory") == 0
    run_dir = out / "fedavg_seed1"
    first = {path.name: path.read_bytes() for path in run_dir.iterdir()}
    assert "trajectory.csv" in first
    capsys.readouterr()
    # without the refusal, a 2-round run left the 4-round trajectory.csv behind
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: run directory {run_dir} holds a finished run\n"
    assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == first


def test_a_seed_list_with_one_finished_run_writes_nothing(data_dir, tmp_path, monkeypatch,
                                                          capsys):
    def no_load(*args):
        raise AssertionError("dataset loaded")

    monkeypatch.setattr("fedte.cli.load_dataset", no_load)
    out = tmp_path / "out"
    (out / "fedavg_seed2").mkdir(parents=True)
    (out / "fedavg_seed2" / "summary.json").write_text("{}")
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "1,2") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: run directory {out / 'fedavg_seed2'} holds a finished run\n"
    assert [p.name for p in out.iterdir()] == ["fedavg_seed2"]


def test_a_run_rewrites_the_metrics_of_a_run_that_stopped_in_its_rounds(data_dir, tmp_path):
    # a diverged, interrupted or set-up-only run leaves metrics.csv alone, and
    # the benchmark's set-up-only invocations run into one such directory
    (tmp_path / "stopped" / "fedavg_seed1").mkdir(parents=True)
    (tmp_path / "stopped" / "fedavg_seed1" / "metrics.csv").write_text("round\n1\n2\n3\n")
    for out in ("stopped", "fresh"):
        assert run_cli(data_dir, tmp_path / out, "--variant", "fedavg", "--seed", "1") == 0
    stopped, fresh = (tmp_path / out / "fedavg_seed1" for out in ("stopped", "fresh"))
    assert sorted(p.name for p in stopped.iterdir()) == sorted(p.name for p in fresh.iterdir())
    assert (stopped / "metrics.csv").read_bytes() == (fresh / "metrics.csv").read_bytes()


def test_limited_run_equals_a_run_on_files_of_the_first_records(data_dir, tmp_path):
    # --limit-train and --limit-test read the first records of the files, so a
    # limited run is a run on files that hold only those records
    train, test = load_dataset("mnist", data_dir)
    cut = tmp_path / "cut"
    cut.mkdir()
    for prefix, ds, n in (("train", train, 250), ("t10k", test, 60)):
        save_idx(ds.subset(np.arange(n)), str(cut / f"{prefix}-images-idx3-ubyte"),
                 str(cut / f"{prefix}-labels-idx1-ubyte"))
    flags = ("--variant", "fedcl-te", "--alpha", "0.1", "--seed", "1")
    assert run_cli(data_dir, tmp_path / "limited", *flags, "--limit-train", "250",
                   "--limit-test", "60") == 0
    assert run_cli(cut, tmp_path / "whole", *flags) == 0
    limited, whole = (tmp_path / d / "fedcl-te_seed1" / "metrics.csv" for d in ("limited", "whole"))
    assert limited.read_bytes() == whole.read_bytes()


def test_cifar_limit_within_the_first_file_opens_no_other_batch_file(tmp_path, monkeypatch):
    data = write_cifar_dir(tmp_path / "data")
    full_train, full_test = load_dataset("cifar10", str(data))
    opened = []

    def recorded_open(path, *args):
        opened.append(os.path.basename(path))
        return open(path, *args)

    monkeypatch.setattr("fedte.data.open", recorded_open, raising=False)
    train, test = load_dataset("cifar10", str(data), 15, 5)
    assert sorted(set(opened)) == ["data_batch_1.bin", "test_batch.bin"]
    assert train.images.tobytes() == full_train.images[:15].tobytes()
    assert test.images.tobytes() == full_test.images[:5].tobytes()
    assert list(train.labels) == list(full_train.labels[:15])


def test_limited_cifar_run_still_needs_every_batch_file(tmp_path, capsys):
    data = write_cifar_dir(tmp_path / "data")
    (data / "data_batch_5.bin").unlink()
    out = tmp_path / "out"
    assert main(["run", "--dataset", "cifar10", "--data-dir", str(data), "--out-dir", str(out),
                 *BASE_FLAGS, "--variant", "fedavg", "--seed", "1", "--limit-train", "15"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: missing dataset file: {data / 'data_batch_5.bin'}\n"
    assert not out.exists()
