#!/usr/bin/env python3
"""Check that a git revision and the checkout write byte-identical run outputs.

Usage: python scripts/bitcheck.py REV [--paper]

Checks REV out into a temporary `git worktree` (removed afterwards), writes
synthetic data files with perfbench/synth.py, and runs `fedte run` from both
trees over a matrix of cases. The default matrix (about 110 s on a 2-vCPU VM):
every variant at gamma 1 and 100 on 2000/700 MNIST-shape files, seeds 1 and 2,
4 rounds, with --save-trajectory and a 96-example Fisher on a 10% proxy; the
-TE variants on the same files limited to their first 1507/500 records; and
the -TE variants at gamma 1 on 1000/300 CIFAR-10-shape batch files, seeds 1
and 2, 3 rounds. Every proxy (200, 151 and 100 examples) is larger than the
Fisher sample, so each FedCL round draws its subsample and pools two chunks;
the 1507 records hold seven classes of 151 and three of 150, so the 151-row
proxy takes one example past the classes' floors in the split's apportionment.
`--paper` runs instead fedprox-te and fedcl-te for 2 rounds with the default
options on 60k/10k MNIST-shape files (about 105 s). Each tree
runs its matrix twice: pinned to one CPU by `taskset`, so that no phase runs
on a pool, and on every CPU the process may use. It prints the sha256 of
every metrics.csv and trajectory.csv of the four runs, and exits 1 if a file
differs among them or is missing from one, 2 if git or a run fails, and 0 if
every file is byte-identical.
"""

import argparse
import collections
import hashlib
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import synth  # noqa: E402  (perfbench/synth.py, the benchmark's data writer)

VARIANTS = ("fedavg", "fedprox", "fedcl", "fedprox-te", "fedcl-te")
TE_VARIANTS = ("fedprox-te", "fedcl-te")
PINS = ("1cpu", "all")
# 4 rounds store 4 models, enough for a trajectory; a proxy larger than the
# Fisher sample, which is drawn from it and runs as a 64- and a 32-example chunk
FLAGS = ("--seed", "1,2", "--rounds", "4", "--save-trajectory",
         "--proxy-fraction", "0.1", "--fisher-samples", "96")
OUTPUTS = ("metrics.csv", "trajectory.csv")

# one `fedte run` per variant and gamma, writing <case name>/gamma<g>/ of a run
Case = collections.namedtuple("Case", "name dataset variants gammas flags")
CASES = (
    Case("mnist", "mnist", VARIANTS, (1, 100), FLAGS),
    Case("mnist-limited", "mnist", TE_VARIANTS, (1,),
         FLAGS + ("--limit-train", "1507", "--limit-test", "500")),
    Case("cifar10", "cifar10", TE_VARIANTS, (1,),
         ("--seed", "1,2", "--rounds", "3", "--save-trajectory", "--proxy-fraction", "0.1",
          "--fisher-samples", "96")),
)
# the paper's shape and options (K=10, C=0.2, E=2, B=50, a 1% proxy, a
# 1024-example Fisher); 2 rounds store too few models for a trajectory
PAPER_CASES = (Case("paper", "mnist", TE_VARIANTS, (1,), ("--seed", "1", "--rounds", "2")),)


class RunError(RuntimeError):
    """git or a `fedte run` failed."""


def git(*args):
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise RunError(f"git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout.strip()


def write_data(directory, n_train=2000, n_test=700):
    """MNIST-shape IDX files, drawn as perfbench draws its MNIST workload's."""
    synth.write_dataset(directory, seed=1, shape=(1, 28, 28), cell=4,
                        n_train=n_train, n_test=n_test)


def write_cifar(directory, n_train=1000, n_test=300):
    """CIFAR-10 binary batch files of synth's 3x32x32 images: the training set
    split over data_batch_1..5.bin, the test set in test_batch.bin, each record
    a label byte and the pixels in channel, row, column order."""
    tr_x, tr_y, te_x, te_y = synth.generate(1, (3, 32, 32), 4, n_train, n_test)
    names = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]
    parts = list(zip(np.array_split(tr_x, 5), np.array_split(tr_y, 5))) + [(te_x, te_y)]
    os.makedirs(directory, exist_ok=True)
    for name, (images, labels) in zip(names, parts):
        with open(os.path.join(directory, name), "wb") as f:
            f.write(np.column_stack([labels, images.reshape(len(labels), -1)]).tobytes())


def run_tree(tree, data_dirs, out_dir, cases=CASES, pins=PINS):
    """`fedte run` from `tree`'s src over the cases, into out_dir/<pin>/<case>/gamma<g>/;
    `data_dirs` maps each case's dataset to the directory of its files."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for pin in pins:
        prefix = ["taskset", "-c", str(min(os.sched_getaffinity(0)))] if pin == "1cpu" else []
        for case in cases:
            for gamma in case.gammas:
                for variant in case.variants:
                    cmd = [*prefix, sys.executable, "-m", "fedte.cli", "run",
                           "--dataset", case.dataset, "--data-dir", data_dirs[case.dataset],
                           "--out-dir", os.path.join(out_dir, pin, case.name, f"gamma{gamma}"),
                           "--variant", variant, "--gamma", str(gamma), *case.flags]
                    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
                    if done.returncode != 0:
                        raise RunError(f"{' '.join(cmd)} exited {done.returncode} "
                                       f"in {tree}:\n{done.stderr.strip()}")


def digests(out_dir):
    """{path relative to out_dir: sha256} of every output file below out_dir."""
    found = {}
    for parent, _, names in os.walk(out_dir):
        for name in set(names) & set(OUTPUTS):
            path = os.path.join(parent, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(f.read()).hexdigest()
    return found


def report(columns):
    """Print each output file's digest in each column ({name: digests}); returns
    the number of files that differ among the columns or are missing from one."""
    paths = sorted(set().union(*columns.values()))
    if not paths:
        print("no output files")
        return 1
    width = max(map(len, paths))
    print(f"{'file':<{width}}  " + "  ".join(f"{name:<12}" for name in columns))
    differ = 0
    for path in paths:
        cells = [found.get(path) for found in columns.values()]
        same = None not in cells and len(set(cells)) == 1
        differ += not same
        print(f"{path:<{width}}  " + "  ".join(f"{(c or 'missing')[:12]:<12}" for c in cells)
              + ("" if same else "  DIFFERS"))
    print(f"{differ} of {len(paths)} files differ")
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare the checkout with")
    parser.add_argument("--paper", action="store_true",
                        help="2 rounds of fedprox-te and fedcl-te at the paper's shape "
                             "and options instead of the default matrix (about 105 s on "
                             "a 2-vCPU VM, against about 110 s)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as work:
        data = {"mnist": os.path.join(work, "mnist"), "cifar10": os.path.join(work, "cifar10")}
        try:
            commit = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
            worktree = os.path.join(work, "worktree")
            git("worktree", "add", "--detach", worktree, commit)
            try:
                if args.paper:
                    write_data(data["mnist"], n_train=60000, n_test=10000)
                else:
                    write_data(data["mnist"])
                    write_cifar(data["cifar10"])
                for label, tree in (("rev", worktree), ("tree", ROOT)):
                    run_tree(tree, data, os.path.join(work, "out", label),
                             PAPER_CASES if args.paper else CASES)
            finally:
                git("worktree", "remove", "--force", worktree)
        except RunError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        columns = {f"{label} {pin}": digests(os.path.join(work, "out", label, pin))
                   for label in ("rev", "tree") for pin in PINS}
    print(f"rev = {args.rev} ({commit[:12]}), tree = the checkout at {ROOT}")
    return 1 if report(columns) else 0


if __name__ == "__main__":
    sys.exit(main())
