"""Benchmark of the fedte simulator, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --self-test

For one workload this process writes synthetic paper-shaped dataset files
made from the seed, then starts one measured process (measure.py) that runs
`fedte.cli.main(["run", ...])` on them repeatedly for S seconds with one BLAS
thread. It checks every invocation's outputs, prints each metric by name
with its unit, and prints as its last line
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
An operation is one federated round; `attempted` and `failed` count rounds.
It exits 1 if a check fails and 2 if nothing could be measured.

`--workload all` runs every workload untraced and traced; `--self-test`
does so on tiny inputs and checks metric names and the result schema,
without judging any timing. Scratch files live in `.perfbench/` at the
root of the checkout.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import monotonic

import synth
import tracing
from metrics import END_TO_END, PER_LAYER
from workloads import TAIL_BEYOND, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
TIME_LIMIT = 170  # seconds one workload run may take, data generation included
SETUPS_PER_INVOCATION = 3  # set-up-only invocations before each full one
PROBE_REPEATS = 7
# Two OpenBLAS threads on the two cores this was tuned on are barely faster
# than one and make every timing depend on what else the machine runs.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class MeasureError(RuntimeError):
    """The measured process failed or timed out; there is nothing to report."""


def measure(workload, seed, seconds, trace, quick):
    """Generates the data, runs measure.py; returns its result and spans."""
    deadline = monotonic() + TIME_LIMIT
    tag = f"{workload.name}-seed{seed}-trace{trace}" + ("-quick" if quick else "")
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    data_dir = os.path.join(work, "data")
    synth.write_dataset(data_dir, seed, workload.shape,
                        workload.cell, workload.n_train, workload.n_test)
    spec = {
        "root": ROOT, "src": SRC, "workload": workload.name, "quick": quick,
        "data_dir": data_dir, "out_dir": os.path.join(work, "out"),
        "seconds": seconds, "trace": trace,
        "setups_per_invocation": 1 if quick else SETUPS_PER_INVOCATION,
        "probe_repeats": 1 if quick else PROBE_REPEATS,
        "result_path": os.path.join(work, "result.json"),
        "spans_path": os.path.join(work, "spans.jsonl"),
    }
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    log_path = os.path.join(work, "measure.log")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "measure.py"), spec_path],
                cwd=ROOT, env=dict(os.environ, **BLAS_ENV), stdout=log,
                stderr=subprocess.STDOUT, timeout=max(deadline - monotonic(), 1),
            )
        except subprocess.TimeoutExpired:
            raise MeasureError(f"{workload.name}: measured process timed out; "
                               f"log in {log_path}") from None
    if proc.returncode != 0:
        with open(log_path) as f:
            tail = f.read()[-2000:]
        raise MeasureError(f"{workload.name}: measured process exited "
                           f"{proc.returncode}:\n{tail}")
    with open(spec["result_path"]) as f:
        result = json.load(f)
    with open(spec["spans_path"]) as f:
        spans = [json.loads(line) for line in f]
    result["outputs"] = {r["out_dir"]: read_outputs(r["out_dir"])
                         for r in result["runs"]}
    shutil.rmtree(data_dir)
    shutil.rmtree(spec["out_dir"])
    return result, spans


def read_outputs(out_dir):
    """metrics.csv of one invocation: its digest and rows, or None."""
    for entry in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        path = os.path.join(out_dir, entry, "metrics.csv")
        if os.path.isfile(path):
            with open(path, "rb") as f:
                raw = f.read()
            rows = [line.split(",") for line in raw.decode().splitlines()[1:]]
            return {"digest": hashlib.sha256(raw).hexdigest(), "rows": rows}
    return None


# -- correctness -------------------------------------------------------------

def run_problem(workload, run, outputs):
    """Why one full invocation failed its checks, or None."""
    if run["error"]:
        return "crashed: " + run["error"].strip().splitlines()[-1]
    if run["rc"] != 0:
        return f"fedte run exited {run['rc']} (DivergenceError or bad config)"
    if outputs is None:
        return "no metrics.csv written"
    rows = outputs["rows"]
    if [int(r[0]) for r in rows] != list(range(1, workload.rounds + 1)):
        return f"metrics.csv has rounds {[r[0] for r in rows]}"
    if len(run["round_ends"]) != workload.rounds:
        return f"{len(run['round_ends'])} on_round calls for {workload.rounds} rounds"
    if not all(math.isfinite(float(r[3])) for r in rows):
        return "non-finite test loss"
    accuracy = float(rows[-1][2])
    if not workload.accuracy_floor <= accuracy <= 1.0:
        return (f"final test accuracy {accuracy} outside "
                f"[{workload.accuracy_floor}, 1]")
    return None


def check(workload, result):
    """(problems, attempted rounds, failed rounds, invocations that passed).

    A failed invocation fails all its rounds, as does one whose metrics.csv
    differs from the one most invocations wrote.
    """
    problems = [f"set-up-only invocation failed: {s['error'] or s['rc']}"
                for s in result["setups"]
                if s["error"] or s["rc"] != 0 or not s["round_starts"]]
    runs = result["runs"]
    outputs = [result["outputs"][r["out_dir"]] for r in runs]
    run_problems = [run_problem(workload, r, o) for r, o in zip(runs, outputs)]
    digests = [o["digest"] for o, p in zip(outputs, run_problems) if p is None]
    if digests:
        reference = collections.Counter(digests).most_common(1)[0][0]
        run_problems = [
            p or (None if o["digest"] == reference
                  else "metrics.csv differs from the other invocations")
            for o, p in zip(outputs, run_problems)
        ]
    problems += [f"invocation {i}: {p}" for i, p in enumerate(run_problems) if p]
    failed = workload.rounds * sum(p is not None for p in run_problems)
    good = [r for r, p in zip(runs, run_problems) if p is None]
    return problems, workload.rounds * len(runs), failed, good


# -- metrics -----------------------------------------------------------------

def end_to_end(workload, result, good):
    untraced = [r for r in good if not r["traced"]]
    setups = [r["round_starts"][0] - r["start"]
              for r in result["setups"] + untraced if r["round_starts"]]
    rounds = sorted(e - s for r in untraced
                    for s, e in zip(r["round_starts"], r["round_ends"]))
    # nearest rank of the workload's fixed tail percentile: at least
    # TAIL_BEYOND samples lie above it once min_rounds samples are taken
    p = workload.tail_percentile
    k = max(len(rounds) - len(rounds) * TAIL_BEYOND // workload.min_rounds, 1)
    rows = result["outputs"][untraced[0]["out_dir"]]["rows"]
    m = {
        "setup_s": statistics.median(setups),
        "round_s_p50": statistics.median(rounds),
        "round_s_tail": rounds[k - 1],
        "run_s": statistics.median(r["end"] - r["start"] for r in untraced),
        "train_examples_per_s": sum(r["examples"] for r in untraced) / sum(rounds),
        "peak_rss_mb": result["peak_rss_mb"],
        "final_test_accuracy": float(rows[-1][2]),
        "final_test_loss": float(rows[-1][3]),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "round_s_p50": f"{len(rounds)} rounds",
        "round_s_tail": f"p{p:g} of {len(rounds)} rounds, {len(rounds) - k} beyond",
        "run_s": f"median of {len(untraced)} invocations",
    }
    return m, notes


def per_layer(result, spans, good):
    m, per_round = tracing.analyse(spans, result["step_flops"])
    m.update(result["probes"])
    run_s = {t: statistics.median([r["end"] - r["start"] for r in good
                                   if r["traced"] == t] or [math.nan])
             for t in (False, True)}
    m["trace_overhead_ratio"] = run_s[True] / run_s[False] - 1
    return m, per_round


def report(metrics, notes, spec):
    for name, (unit, *_) in spec.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}{extra}")


def run_workload(name, seed, seconds, trace, quick=False):
    """Measures one workload; prints its report; returns the result record."""
    workload = WORKLOADS[name]
    if quick:
        workload = workload.quick()
    result, spans = measure(workload, seed, seconds, trace, quick)
    problems, attempted, failed, good = check(workload, result)
    print(f"== {name} seed {seed} trace {trace}: "
          f"{len(result['runs'])} invocations of {workload.rounds} rounds, "
          f"{len(result['setups'])} set-up-only")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(f"  {'error_rate':<34} {failed / attempted:>14.6g} 1  "
          f"({failed} of {attempted} rounds failed)")
    for problem in problems:
        print("  check FAILED: " + problem)
    if not problems:
        print(f"  check: {len(good)} invocations wrote byte-identical "
              f"metrics.csv; every test loss finite; final accuracy >= "
              f"{workload.accuracy_floor}")
    metrics = {}
    kinds = {r["traced"] for r in good}
    if trace and kinds == {False, True}:
        metrics, per_round = per_layer(result, spans, good)
        report(metrics, {}, PER_LAYER)
        print("  self time per round by layer:")
        for layer, secs in per_round.items():
            share = metrics.get(f"{layer}.round_share",
                                metrics["round.residual_share"])
            print(f"    {layer:<14} {secs:10.4f} s  {share:6.1%}")
        share = metrics[f"phase.{workload.phase}_share"]
        print(f"  design: {workload.phase} takes {share:.1%} of round time "
              f"(built for >= 50%): {'yes' if share >= 0.5 else 'NO'}")
    elif not trace and False in kinds:
        metrics, notes = end_to_end(workload, result, good)
        report(metrics, notes, END_TO_END)
    spec = PER_LAYER if trace else END_TO_END
    return {
        "correct": not problems and len(metrics) == len(spec),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": spec[k][0]} for k, v in metrics.items()},
    }


# -- self-test ---------------------------------------------------------------

def schema_problems(record, trace):
    """Differences between one result record and the benchmark's contract."""
    problems = []
    if set(record) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(record)}")
    if record.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(record.get("attempted"), int) and record["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if record.get("failed") != 0:
        problems.append(f"failed = {record.get('failed')}")
    spec = PER_LAYER if trace else END_TO_END
    metrics = record.get("metrics", {})
    if set(metrics) != set(spec):
        problems.append(f"metric names differ: missing {sorted(set(spec) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(spec))}")
    for name, entry in metrics.items():
        if name in spec and entry.get("unit") != spec[name][0]:
            problems.append(f"{name}: unit {entry.get('unit')}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def manifest_problems():
    """Differences between BENCHMARK.json and this benchmark's definitions."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return ["BENCHMARK.json missing"]
    with open(path) as f:
        manifest = json.load(f)
    problems = []
    if [(w["name"], w["why"]) for w in manifest["workloads"]] != [
            (w.name, w.why) for w in WORKLOADS.values()]:
        problems.append("workloads differ from workloads.py")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]}
    if e2e != END_TO_END:
        problems.append("end_to_end differs from metrics.py")
    layers = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    if layers != PER_LAYER:
        problems.append("per_layer differs from metrics.py")
    return problems


def self_test():
    failures = [f"BENCHMARK.json: {p}" for p in manifest_problems()]
    for name in WORKLOADS:
        for trace in (0, 1):
            try:
                record = run_workload(name, 1, 0, trace, quick=True)
                problems = schema_problems(record, trace)
            except MeasureError as exc:
                problems = [str(exc)]
            failures += [f"{name} trace {trace}: {p}" for p in problems]
            print(f"self-test {name} trace {trace}: "
                  f"{'FAIL' if problems else 'ok'}")
    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="every workload on tiny inputs; checks names and schema")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fedte", "__init__.py")):
        print(f"error: no fedte sources in {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.workload != "all":
            record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        else:
            records = {(name, trace): run_workload(name, args.seed, args.seconds, trace)
                       for name in WORKLOADS for trace in (0, 1)}
            record = {
                "correct": all(r["correct"] for r in records.values()),
                "attempted": sum(r["attempted"] for r in records.values()),
                "failed": sum(r["failed"] for r in records.values()),
                "metrics": {f"{name}/{metric}": value
                            for (name, _), r in records.items()
                            for metric, value in r["metrics"].items()},
            }
    except MeasureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    # SIGTERM exits through Python, so subprocess.run kills and reaps the
    # measured process instead of leaving it running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
