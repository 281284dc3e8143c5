"""The mechanics of scripts/bitcheck.py, on a tiny matrix of this checkout against itself."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location("bitcheck",
                                              os.path.join(ROOT, "scripts", "bitcheck.py"))
bitcheck = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bitcheck)

# 3 rounds store the 3 models a trajectory needs; fedcl-te runs every phase
TINY = ("--seed", "1", "--rounds", "3", "--save-trajectory", "--clients", "3",
        "--ratio", "0.67", "--proxy-fraction", "0.1", "--fisher-samples", "20")


def test_bitcheck_passes_identical_runs_and_reports_a_tampered_file(tmp_path, capsys):
    data = str(tmp_path / "data")
    bitcheck.write_data(data, n_train=300, n_test=60)
    # one run pinned to a CPU, one on every CPU
    for label, pin in (("a", "1cpu"), ("b", "all")):
        bitcheck.run_tree(ROOT, data, str(tmp_path / label), variants=("fedcl-te",),
                          gammas=(1,), pins=(pin,), flags=TINY)
    columns = {"a": bitcheck.digests(str(tmp_path / "a" / "1cpu")),
               "b": bitcheck.digests(str(tmp_path / "b" / "all"))}
    files = ["gamma1/fedcl-te_seed1/metrics.csv", "gamma1/fedcl-te_seed1/trajectory.csv"]
    assert sorted(columns["a"]) == files
    assert bitcheck.report(columns) == 0
    assert "DIFFERS" not in capsys.readouterr().out

    run_dir = tmp_path / "b" / "all" / "gamma1" / "fedcl-te_seed1"
    metrics = run_dir / "metrics.csv"
    metrics.write_bytes(metrics.read_bytes().replace(b",", b";", 1))
    (run_dir / "trajectory.csv").unlink()
    columns["b"] = bitcheck.digests(str(tmp_path / "b" / "all"))
    assert bitcheck.report(columns) == 2
    rows = [line for line in capsys.readouterr().out.splitlines() if "DIFFERS" in line]
    assert [row.split()[0] for row in rows] == files
    assert "missing" in rows[1]


def test_bitcheck_failed_run_or_revision_is_an_error(tmp_path, capsys):
    with pytest.raises(bitcheck.RunError, match="exited 2"):
        bitcheck.run_tree(ROOT, str(tmp_path), str(tmp_path / "out"), variants=("fedavg",),
                          gammas=(1,), pins=("all",), flags=("--no-such-flag",))
    assert bitcheck.main(["no-such-revision"]) == 2
    assert capsys.readouterr().err.startswith("error: git rev-parse")
