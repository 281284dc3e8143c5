import argparse
import ctypes
import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest

import fedte
from fedte.cli import DEFAULTS, build_parser, load_dataset, main, merge_options, parse_config_file
from fedte.data import load_idx
from fedte.orchestrator import VARIANT_KINDS, FedConfig, _openblas

from conftest import save_idx, synth_dataset, write_idx_dataset


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
                   "--alpha", "1", "--beta", "0.2", "--seed", "1") == 0
    run_dir = out / "fedprox-te_seed1"
    metrics = (run_dir / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "round,selected_clients,test_accuracy,test_loss,lr"
    assert len(metrics) == 3  # header + 2 rounds
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["variant"] == "fedprox-te"
    assert len(summary["accuracy"]) == 2
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["config"]["rounds"] == 2
    assert manifest["config"]["seed"] == 1


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


def test_trajectory_output(data_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedavg", "--seed", "3",
                   "--save-trajectory", "--traj-stride", "1") == 0
    # 2 rounds stored but a trajectory needs >= 3 points? stride=1, rounds=2
    # is below the PCA minimum, so bump rounds instead
    out2 = tmp_path / "out2"
    assert main(["run", "--dataset", "mnist", "--data-dir", str(data_dir),
                 "--out-dir", str(out2), "--clients", "4", "--ratio", "0.5",
                 "--epochs", "1", "--batch", "32", "--rounds", "4",
                 "--proxy-fraction", "0.05", "--variant", "fedavg",
                 "--seed", "3", "--save-trajectory", "--traj-stride", "1"]) == 0
    lines = (out2 / "fedavg_seed3" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "round,x,y"
    assert len(lines) == 5


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


def test_manifest_reproduces_run(data_dir, tmp_path):
    out = tmp_path / "out"
    assert run_cli(data_dir, out, "--variant", "fedprox",
                   "--alpha", "1", "--seed", "5") == 0
    run_dir = out / "fedprox_seed5"
    manifest = json.loads((run_dir / "manifest.json").read_text())

    cfg_lines = []
    for key, value in manifest["config"].items():
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
    config = dict(DEFAULTS)
    config["variant"] = variant
    config.update(config_overrides)
    payload = {
        "variant": variant, "alpha": 1.0, "beta": 0.2, "seed": seed,
        "dataset": config["dataset"],
        "rounds_to_threshold": {}, "converged_accuracy": float(curve[-1]),
        "accuracy": list(curve), "loss": [0.0] * len(curve),
        "config": config,
    }
    path.write_text(json.dumps(payload))
    return str(path)


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
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "file" in err[0]


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


@pytest.mark.parametrize("key", ["rounds", "window"])
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
    (None, ["--window", "0"], "window"),
    (None, ["--save-trajectory", "--traj-stride", "0"], "traj_stride"),
    # rejected by the data split, which runs before the run directory is made
    (None, ["--gamma", "0"], "concentration"),
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
    (None, ["--lr", "inf"], "lr schedule"),
], ids=["missing-config", "unknown-key", "non-numeric-value", "window-0",
        "traj-stride-0", "gamma-0", "clients-above-examples", "proxy-fraction-0",
        "proxy-below-classes", "fisher-samples-negative", "fisher-samples-0",
        "seed-repeated", "seed-negative", "seed-list-negative", "gamma-nan",
        "gamma-inf", "alpha-nan", "lr-inf"])
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


def test_compare_missing_summary_is_an_error(tmp_path, capsys):
    a = _write_summary(tmp_path / "a.json", "fedprox", [0.9])
    missing = str(tmp_path / "missing.json")
    assert main(["compare", a, missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "missing.json" in captured.err



@pytest.mark.parametrize("bad", ["{}", "list", "variant", "seed", "accuracy", "config"])
def test_compare_malformed_summary_is_an_error(tmp_path, capsys, bad):
    good = _write_summary(tmp_path / "good.json", "fedprox", [0.9])
    payload = json.loads((tmp_path / "good.json").read_text())
    if bad == "{}":
        payload = {}
    elif bad == "list":
        payload = [payload]
    else:
        del payload[bad]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for paths in ([good, str(path)], [str(path), str(path)]):
        assert main(["compare", *paths]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:")


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
], ids=["empty-train", "empty-test", "test-shape", "label-12"])
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
    else:
        train = load_idx(*train_files)
        train.labels[0] = 12
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


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's malloc.h


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


def test_run_into_an_existing_file_is_an_error(data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("")
    assert run_cli(data_dir, out, "--seed", "1") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out) in err[0]
    assert out.read_text() == ""
