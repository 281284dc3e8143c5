#!/usr/bin/env python3
"""Check that a git revision and the checkout write byte-identical run outputs.

Usage: python scripts/bitcheck.py REV

Checks REV out into a temporary `git worktree` (removed afterwards), writes
synthetic MNIST-shape IDX files with perfbench/synth.py, and runs `fedte run`
from both trees over every variant at gamma 1 and 100, seeds 1 and 2, with
--save-trajectory and a 100-example Fisher on a 5% proxy. Each tree runs
this matrix twice: pinned to one CPU by `taskset`, so that no phase runs on a
pool, and on every CPU the process may use. It prints the sha256 of every
metrics.csv and trajectory.csv of the four runs, and exits 1 if a file
differs among them or is missing from one, 2 if git or a run fails, and 0
if every file is byte-identical.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import synth  # noqa: E402  (perfbench/synth.py, the benchmark's data writer)

VARIANTS = ("fedavg", "fedprox", "fedcl", "fedprox-te", "fedcl-te")
GAMMAS = (1, 100)
PINS = ("1cpu", "all")
# 4 rounds store 4 models, enough for a trajectory
FLAGS = ("--seed", "1,2", "--rounds", "4", "--save-trajectory",
         "--proxy-fraction", "0.05", "--fisher-samples", "100")
OUTPUTS = ("metrics.csv", "trajectory.csv")


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


def run_tree(tree, data_dir, out_dir, variants=VARIANTS, gammas=GAMMAS, pins=PINS,
             flags=FLAGS):
    """`fedte run` from `tree`'s src over the matrix, into out_dir/<pin>/gamma<g>/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for pin in pins:
        prefix = ["taskset", "-c", str(min(os.sched_getaffinity(0)))] if pin == "1cpu" else []
        for gamma in gammas:
            for variant in variants:
                cmd = [*prefix, sys.executable, "-m", "fedte.cli", "run",
                       "--dataset", "mnist", "--data-dir", data_dir,
                       "--out-dir", os.path.join(out_dir, pin, f"gamma{gamma}"),
                       "--variant", variant, "--gamma", str(gamma), *flags]
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
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as work:
        try:
            commit = git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
            worktree = os.path.join(work, "worktree")
            git("worktree", "add", "--detach", worktree, commit)
            try:
                data = os.path.join(work, "data")
                write_data(data)
                for label, tree in (("rev", worktree), ("tree", ROOT)):
                    run_tree(tree, data, os.path.join(work, "out", label))
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
