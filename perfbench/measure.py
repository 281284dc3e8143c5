"""The measured process of one benchmark run.

Usage: python3 perfbench/measure.py <spec.json>  (written by run.py)

Runs `fedte.cli.main(["run", ...])` repeatedly in this one process until the
spec's seconds have passed. An untraced invocation is instrumented only at
round boundaries: a timestamp when `select_clients` is called and one when
the round's `on_round` callback is, plus an example count from
`local_train`'s return value. Before each full invocation a few set-up-only
invocations stop at the first round, so set-up time has more samples than
full runs give, taken across the whole run. With tracing on, untraced and
traced invocations alternate and the stage probes run at the end. Raw
timestamps, spans and probe results are written to the spec's files; run.py
turns them into metrics and checks the outputs.
"""

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

import numpy as np

import probes
import tracing
from workloads import EPOCHS, WORKLOADS


MIN_RUNS = 2  # full invocations per run: the determinism check compares two


class SetupDone(Exception):
    """Raised at the first round of a set-up-only invocation."""


class Clock:
    def __init__(self, recorder=None, setup_only=False):
        self.recorder = recorder
        self.setup_only = setup_only
        self.round_starts = []
        self.round_ends = []
        self.examples = 0

    def round_start(self):
        self.round_starts.append(perf_counter())
        if self.setup_only:
            raise SetupDone
        if self.recorder:
            self.recorder.open("orchestrator.round")

    def round_end(self):
        self.round_ends.append(perf_counter())
        if self.recorder:
            self.recorder.close()


def install_clock(fedte, clock, epochs):
    orch, cli = fedte.orchestrator, fedte.cli
    select, run_experiment, local_train = (
        orch.select_clients, cli.run_experiment, orch.local_train)

    def timed_select(*args, **kwargs):
        clock.round_start()
        return select(*args, **kwargs)

    def timed_run_experiment(*args, on_round=None, **kwargs):
        def hooked(record):
            clock.round_end()
            on_round(record)
        return run_experiment(*args, on_round=hooked, **kwargs)

    def counted_local_train(*args, **kwargs):
        params, n = local_train(*args, **kwargs)
        clock.examples += epochs * n
        return params, n

    saved = [(orch, "select_clients", select),
             (cli, "run_experiment", run_experiment),
             (orch, "local_train", local_train)]
    orch.select_clients = timed_select
    cli.run_experiment = timed_run_experiment
    orch.local_train = counted_local_train
    return saved


def invoke(fedte, argv, epochs, recorder=None, setup_only=False):
    """One `fedte run` invocation; returns its timestamps and outcome."""
    clock = Clock(recorder, setup_only)
    saved = tracing.install(fedte, recorder) if recorder else []
    saved += install_clock(fedte, clock, epochs)
    rc, error = None, None
    start = perf_counter()
    try:
        rc = fedte.cli.main(argv)
    except SetupDone:
        rc = 0
    except Exception:  # a crash in the program fails this run, not the benchmark
        error = traceback.format_exc()
    end = perf_counter()
    tracing.restore(saved)
    if recorder:
        recorder.close_all()
    return {"start": start, "end": end, "rc": rc, "error": error,
            "round_starts": clock.round_starts, "round_ends": clock.round_ends,
            "examples": clock.examples, "traced": recorder is not None}


def blas_info():
    """(threads in force, config) of numpy's bundled OpenBLAS, if found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads and config:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return threads(), config().decode()
    return None, "unknown"


def environment(root, src):
    threads, config = blas_info()
    head = os.path.join(root, ".git", "HEAD")
    commit = "unknown (not a git checkout)"
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    commit = f.read().strip()
    lines = 0
    for path in sorted(glob.glob(os.path.join(src, "fedte", "*.py"))):
        with open(path) as f:
            lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas": config,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": commit,
        "src_lines": lines,
    }


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    src = spec["src"]
    sys.path.insert(0, src)
    import fedte.cli

    if not os.path.abspath(fedte.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"fedte imported from {fedte.__file__}, not {src}")
    workload = WORKLOADS[spec["workload"]]
    if spec["quick"]:
        workload = workload.quick()

    def run_once(tag, recorder=None, setup_only=False):
        out_dir = os.path.join(spec["out_dir"], tag)
        run = invoke(fedte, workload.argv(spec["data_dir"], out_dir), EPOCHS,
                     recorder, setup_only)
        return dict(run, out_dir=out_dir)

    began = perf_counter()
    setups = []
    recorder = tracing.Recorder()
    runs = []
    while True:
        setups += [run_once(f"setup{len(setups)}", setup_only=True)
                   for _ in range(spec["setups_per_invocation"])]
        traced = spec["trace"] and len(runs) % 2 == 1
        recorder.run = len(runs)
        runs.append(run_once(f"run{len(runs)}", recorder if traced else None))
        if runs[-1]["rc"] != 0:
            break
        rounds = sum(len(r["round_ends"]) for r in runs if not r["traced"])
        # stop at the invocation boundary nearest to the time budget
        last = runs[-1]["end"] - runs[-1]["start"]
        if (perf_counter() - began + last / 2 >= spec["seconds"]
                and len(runs) >= MIN_RUNS
                and (spec["trace"] or rounds >= workload.min_rounds)):
            break
    probe_metrics = (probes.run(fedte.nn, spec["probe_repeats"])
                     if spec["trace"] else {})
    with open(spec["spans_path"], "w") as f:
        for span in recorder.spans:
            f.write(json.dumps(span) + "\n")
    result = {
        "setups": setups,
        "runs": runs,
        "probes": probe_metrics,
        "step_flops": probes.step_flops(fedte.nn, workload.shape),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(spec["root"], src),
    }
    with open(spec["result_path"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
