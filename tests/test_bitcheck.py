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
TINY = bitcheck.Case("tiny", "mnist", ("fedcl-te",), (1,),
                     ("--seed", "1", "--rounds", "3", "--save-trajectory", "--clients", "3",
                      "--ratio", "0.67", "--proxy-fraction", "0.1", "--fisher-samples", "20"))


def test_bitcheck_passes_identical_runs_and_reports_a_tampered_file(tmp_path, capsys):
    data = str(tmp_path / "data")
    bitcheck.write_data(data, n_train=300, n_test=60)
    # one run pinned to a CPU, one on every CPU
    for label, pin in (("a", "1cpu"), ("b", "all")):
        bitcheck.run_tree(ROOT, {"mnist": data}, str(tmp_path / label), cases=(TINY,),
                          pins=(pin,))
    columns = {"a": bitcheck.digests(str(tmp_path / "a" / "1cpu")),
               "b": bitcheck.digests(str(tmp_path / "b" / "all"))}
    files = ["tiny/gamma1/fedcl-te_seed1/metrics.csv", "tiny/gamma1/fedcl-te_seed1/trajectory.csv"]
    assert sorted(columns["a"]) == files
    assert bitcheck.report(columns) == 0
    assert "DIFFERS" not in capsys.readouterr().out

    run_dir = tmp_path / "b" / "all" / "tiny" / "gamma1" / "fedcl-te_seed1"
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
        bitcheck.run_tree(ROOT, {"mnist": str(tmp_path)}, str(tmp_path / "out"),
                          cases=(TINY._replace(flags=("--no-such-flag",)),), pins=("all",))
    assert bitcheck.main(["no-such-revision"]) == 2
    assert capsys.readouterr().err.startswith("error: git rev-parse")


def test_cifar_writer_files_load_as_synths_images(tmp_path):
    # records of a label byte and 3x32x32 pixels, channel-major, as CIFAR-10's
    from fedte.cli import load_dataset

    bitcheck.write_cifar(str(tmp_path), n_train=50, n_test=20)
    assert sorted(os.listdir(tmp_path)) == [f"data_batch_{i}.bin" for i in range(1, 6)] + [
        "test_batch.bin"]
    train, test = load_dataset("cifar10", str(tmp_path))
    tr_x, tr_y, te_x, te_y = bitcheck.synth.generate(1, (3, 32, 32), 4, 50, 20)
    for ds, images, labels in ((train, tr_x, tr_y), (test, te_x, te_y)):
        assert ds.images.tobytes() == images.tobytes()
        assert list(ds.labels) == list(labels)
