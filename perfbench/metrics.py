"""Names, units and regression bounds of every metric the benchmark reports.

End-to-end metrics come from untraced runs (`--trace 0`), per-layer metrics
from traced runs (`--trace 1`). BENCHMARK.json lists the same names; the
self-test checks that the two agree.
"""

# name: (unit, better, bound). Wall times get the widest bound allowed: on
# the shared 2-vCPU machine this was tuned on, the same code ran up to 45%
# faster or slower from one quarter of an hour to the next, and the quartile
# spread of ten 30 s runs reached 26%.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "round_s_p50": ("s", "lower", 0.25),
    "round_s_tail": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "train_examples_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "final_test_accuracy": ("1", "higher", 0.15),
    "final_test_loss": ("nats", "lower", 0.15),
}

STAGES = ("conv1", "pool1", "conv2", "pool2", "dense1", "dense2")
GEMM_STAGES = ("conv1", "conv2", "dense1")
LAYERS = ("nn", "data", "penalties", "target", "orchestrator")
PHASES = ("fisher", "local_train", "aggregate", "target", "evaluate")


def _per_layer():
    spec = {
        "nn.loss_and_grad_ms": ("ms", "lower"),
        "nn.loss_and_grad_calls": ("count", "lower"),
        "nn.forward_ms": ("ms", "lower"),
        "nn.sgd_step_ms": ("ms", "lower"),
        "nn.step_gflops": ("GFLOP/s", "higher"),
    }
    for shape in ("mnist", "cifar"):
        for stage in STAGES:
            spec[f"nn.{shape}.{stage}.fwd_ms"] = ("ms", "lower")
            spec[f"nn.{shape}.{stage}.bwd_ms"] = ("ms", "lower")
        for stage in GEMM_STAGES:
            spec[f"nn.{shape}.{stage}.gflops"] = ("GFLOP/s", "higher")
    spec.update({
        "nn.mnist.step_b1_ms": ("ms", "lower"),
        "penalties.fisher_s": ("s", "lower"),
        "penalties.fisher_examples": ("count", "lower"),
        "penalties.fisher_example_ms": ("ms", "lower"),
        "penalties.penalty_ms": ("ms", "lower"),
        "orchestrator.local_train_s": ("s", "lower"),
        "orchestrator.local_steps": ("count", "lower"),
        "orchestrator.aggregate_ms": ("ms", "lower"),
        "orchestrator.evaluate_s": ("s", "lower"),
        "orchestrator.round_self_s": ("s", "lower"),
        "target.update_ms": ("ms", "lower"),
        "data.load_mb_per_s": ("MB/s", "higher"),
        "data.partition_s": ("s", "lower"),
        "data.batch_gather_ms": ("ms", "lower"),
        "data.batches": ("count", "lower"),
        "analysis.pca_s": ("s", "lower"),
        "cli.load_dataset_s": ("s", "lower"),
        "cli.outputs_s": ("s", "lower"),
    })
    for layer in LAYERS:
        spec[f"{layer}.round_share"] = ("1", "lower")
    spec["round.residual_share"] = ("1", "lower")
    for phase in PHASES:
        spec[f"phase.{phase}_share"] = ("1", "lower")
    spec["trace_overhead_ratio"] = ("1", "lower")
    return spec


# name: (unit, better)
PER_LAYER = _per_layer()
