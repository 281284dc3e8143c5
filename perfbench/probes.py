"""Per-stage timings of `baseline_cnn` for the MNIST and CIFAR input shapes.

Each stage (a layer of `baseline_cnn`) is timed as a one-stage network:
the stage followed by the 10-way dense head, minus a head-only network fed
the stage's output shape. `dense2` is the head itself and is timed alone,
so its backward includes the softmax cross-entropy. Backward time is
`loss_and_grad` minus `forward`. FLOPs are computed from the layer shapes
(multiply-adds of the conv and dense products, 2 per multiply-add; backward
counted as twice forward), not measured.
"""

import statistics
from time import perf_counter

import numpy as np

from metrics import GEMM_STAGES, STAGES

SHAPES = {"mnist": (1, 28, 28), "cifar": (3, 32, 32)}
BATCH = 50


def stage_shapes(nn, input_shape):
    """[(stage, layer, input shape, output shape)] through baseline_cnn."""
    out, shape = [], tuple(input_shape)
    for stage, layer in zip(STAGES, nn.baseline_cnn(input_shape).layers):
        if isinstance(layer, nn.Conv):
            k = layer.kernel
            nxt = (layer.out_channels, shape[1] - k + 1, shape[2] - k + 1)
        elif isinstance(layer, nn.Pool):
            nxt = (shape[0], shape[1] // 2, shape[2] // 2)
        else:
            nxt = (layer.units,)
        out.append((stage, layer, shape, nxt))
        shape = nxt
    return out


def forward_flops(nn, layer, in_shape, out_shape):
    """Computed forward FLOPs of one example through one layer."""
    if isinstance(layer, nn.Conv):
        return 2 * int(np.prod(out_shape)) * in_shape[0] * layer.kernel ** 2
    if isinstance(layer, nn.Dense):
        return 2 * layer.units * int(np.prod(in_shape))
    return 0


def step_flops(nn, input_shape):
    """Computed FLOPs of one example's forward plus backward pass."""
    return 3 * sum(forward_flops(nn, layer, i, o)
                   for _, layer, i, o in stage_shapes(nn, input_shape))


def _timers(nn, net, rng):
    params = net.init_params(0)
    shape = (BATCH,) + tuple(net.spec.input_shape)
    batch = nn.Batch(rng.random(shape, dtype=np.float32),
                     rng.integers(0, 10, BATCH))
    return (lambda: net.forward(params, batch.inputs),
            lambda: net.loss_and_grad(params, batch))


def run(nn, repeats):
    """Stage probe metrics (ms, GFLOP/s) for both shapes plus a B=1 step."""
    rng = np.random.default_rng(0)
    head = nn.Dense(10, relu=False)
    timers = {}  # (shape, stage, "stage"|"head") -> (forward, step)
    plan = {}
    for name, input_shape in SHAPES.items():
        for stage, layer, i_shape, o_shape in stage_shapes(nn, input_shape):
            plan[(name, stage)] = (layer, i_shape, o_shape)
            layers = (layer,) if stage == STAGES[-1] else (layer, head)
            timers[(name, stage, "stage")] = _timers(
                nn, nn.Network(nn.ModelSpec(i_shape, layers)), rng)
            if stage != STAGES[-1]:
                timers[(name, stage, "head")] = _timers(
                    nn, nn.Network(nn.ModelSpec(o_shape, (head,))), rng)

    samples = {(key, part): [] for key in timers for part in (0, 1)}
    for _ in range(repeats):  # interleaved, so drift hits every probe alike
        for key, fns in timers.items():
            for part, fn in enumerate(fns):
                t = perf_counter()
                fn()
                samples[(key, part)].append(perf_counter() - t)
    med = {k: statistics.median(v) for k, v in samples.items()}

    m = {}
    for (name, stage), (layer, i_shape, o_shape) in plan.items():
        fwd = med[((name, stage, "stage"), 0)]
        bwd = med[((name, stage, "stage"), 1)] - fwd
        if stage != STAGES[-1]:
            head_fwd = med[((name, stage, "head"), 0)]
            fwd -= head_fwd
            bwd -= med[((name, stage, "head"), 1)] - head_fwd
        m[f"nn.{name}.{stage}.fwd_ms"] = 1e3 * fwd
        m[f"nn.{name}.{stage}.bwd_ms"] = 1e3 * bwd
        if stage in GEMM_STAGES:
            flops = 3 * BATCH * forward_flops(nn, layer, i_shape, o_shape)
            m[f"nn.{name}.{stage}.gflops"] = flops / (fwd + bwd) / 1e9

    net = nn.Network(nn.baseline_cnn(SHAPES["mnist"]))
    params = net.init_params(0)
    one = nn.Batch(rng.random((1,) + SHAPES["mnist"], dtype=np.float32),
                   np.zeros(1, dtype=np.int64))
    times = []
    for _ in range(10 * repeats):
        t = perf_counter()
        _, grad = net.loss_and_grad(params, one)
        nn.sgd_step(params, grad, 0.005)
        times.append(perf_counter() - t)
    m["nn.mnist.step_b1_ms"] = 1e3 * statistics.median(times)
    return m
