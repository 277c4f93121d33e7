"""Planned CNN inference engine: per-layer and end-to-end gains.

The engine (:class:`repro.nn.inference.InferencePlan`) compiles each
network once per (batch capacity, dtype).  A float convolution runs one
sample at a time: its read-in adds the previous conv's bias and applies
the ReLU and max-pool between the two convs as it reads.  A float64
chain whose convs' BLAS summation orders the plan recognises runs as
one compiled call per batch that convolves straight from zero-padded
input planes; any other writes each sample's im2col rows for a
serial-shape GEMM.  This bench reports, per layer and end to end:

* batch-of-1 planned execution vs the seed layer-by-layer forward (the
  serial pipeline's win), and
* batch-of-16 planned execution per frame (the lockstep runtime's win —
  one call serving a whole workload step), and
* the float64 AMC prefix at batch 1 and 16, and each of its convs
  alone, in µs/frame and GMAC/s, with the summation order it runs in
  (the direct kernel's ``sequential`` or ``k-residue``, or ``gemm``
  where a conv keeps the read-in + BLAS path), and
* the int8 plan (full forward at batch 1 and 16, and the AMC prefix at
  batch 16, which is what a key frame costs), per fused step: an integer
  conv runs with the max-pool before it and the ReLU after it folded in,
  so the int8 table has one row per runner, not per layer.

Float64 results are asserted bitwise identical to the serial forward;
the float32 row shows the opt-in reduced-precision throughput; int8
results are asserted batch-invariant and prefix+suffix identical to the
whole run.
"""

import time

import numpy as np
import pytest

from conftest import register_table
from repro.nn.train import get_trained_network

NETWORK = "mini_fasterm"
BATCH = 16


def _time(fn, repeats=60):
    fn()  # warm
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


@pytest.fixture(scope="module")
def net():
    return get_trained_network(NETWORK)


@pytest.fixture(scope="module")
def frames():
    return np.random.default_rng(0).random((BATCH, 1, 64, 64))


def test_per_layer_inference(net, frames):
    """Layer-by-layer: seed forward vs compiled plan steps."""
    plan = net.inference_plan(max_batch=BATCH)
    x_seed = frames[:1]
    x_plan1 = frames[:1].copy()
    x_planB = frames.copy()
    rows = []
    for layer, step in zip(net.layers, plan._steps):
        t_seed = _time(lambda: layer.forward(x_seed, train=False))
        t_plan1 = _time(lambda: step.run(x_plan1, 1))
        t_planB = _time(lambda: step.run(x_planB, BATCH))
        rows.append([
            layer.name,
            type(layer).__name__,
            round(t_seed * 1e6, 1),
            round(t_plan1 * 1e6, 1),
            round(t_planB / BATCH * 1e6, 1),
            f"{t_seed / (t_planB / BATCH):.2f}x",
        ])
        x_seed = layer.forward(x_seed, train=False)
        x_plan1 = step.run(x_plan1, 1)
        x_planB = step.run(x_planB, BATCH)
        np.testing.assert_array_equal(np.asarray(x_plan1), x_seed)
    register_table(
        f"planned inference per layer ({NETWORK}; µs/frame, batch {BATCH})",
        ["layer", "type", "seed b=1", "plan b=1", f"plan b={BATCH}", "speedup"],
        rows,
    )


def test_float64_prefix_per_conv(net, frames):
    """The float64 AMC prefix (µs/frame at batch 1 and 16), and each of
    its convs alone at batch 16 -- the conv's read-in, its sums and the
    biased NCHW write -- in µs/frame and GMAC/s, with the order it runs
    in: ``sequential`` or ``k-residue`` on the direct kernel, ``gemm`` on
    the read-in + BLAS path."""
    plan = net.inference_plan(max_batch=BATCH)
    target = net.last_spatial_layer()
    stop = net.index_of(target) + 1
    act = plan.run_prefix(frames, target)
    for s in range(BATCH):
        np.testing.assert_array_equal(
            act[s], net.forward_prefix(frames[s : s + 1], target)[0]
        )
    rows, x = [], frames
    for layer, step, shape in zip(
        net.layers[:stop], plan._steps, net.layer_input_shapes
    ):
        y = np.ascontiguousarray(step.run(x, BATCH))
        if hasattr(step, "direct"):
            for s in range(BATCH):  # the per-sample training forward
                np.testing.assert_array_equal(
                    y[s : s + 1], layer.forward(x[s : s + 1])
                )
            t = _time(lambda: step.run(x, BATCH), repeats=100) / BATCH
            macs = layer.macs(shape)
            rows.append([
                layer.name, step.direct.order if step.direct else "gemm",
                round(t * 1e6, 1), round(macs / t / 1e9, 1),
            ])
        x = y
    for batch in (1, BATCH):
        x = frames[:batch]
        t = _time(lambda: plan.run_prefix(x, target), repeats=3000 // 16)
        rows.append([f"run_prefix to {target}, b={batch}", "",
                     round(t / batch * 1e6, 1),
                     round(net.prefix_macs(target) * batch / t / 1e9, 1)])
    register_table(
        f"float64 prefix per conv ({NETWORK}; µs/frame, batch {BATCH} "
        "unless named)",
        ["conv", "order", "µs/frame", "GMAC/s"],
        rows,
    )


def _runner_spans(net, plan, stop):
    """(layers covered, runner) per step runner of a quantized plan's
    ``[0, stop)`` schedule: a conv with a folded pool/ReLU covers up to
    three layers."""
    i = 0
    for run in plan._schedule(0, stop):
        folded = getattr(run, "keywords", {})
        span = 1 + (folded.get("pool") is not None) + bool(folded.get("relu"))
        yield "+".join(layer.name for layer in net.layers[i : i + span]), run
        i += span


def test_per_layer_int8_inference(net, frames):
    """The int8 plan per fused step (µs/frame at batch 1 and 16)."""
    plan = net.inference_plan(max_batch=BATCH, dtype="int8")
    x1 = frames[:1].astype(np.float32)
    xB = frames.astype(np.float32)
    rows = []
    for names, run in _runner_spans(net, plan, len(net.layers)):
        t1 = _time(lambda: run(x1, 1))
        tB = _time(lambda: run(xB, BATCH))
        rows.append([names, round(t1 * 1e6, 1), round(tB / BATCH * 1e6, 1)])
        x1 = run(x1, 1)
        xB = run(xB, BATCH)
        np.testing.assert_array_equal(np.asarray(xB)[:1], np.asarray(x1))
    register_table(
        f"int8 planned inference per fused step ({NETWORK}; µs/frame)",
        ["layers", "plan b=1", f"plan b={BATCH}"],
        rows,
    )


def test_end_to_end_inference(net, frames):
    """Whole forward pass + the AMC suffix, seed vs planned."""
    plan = net.inference_plan(max_batch=BATCH)
    plan32 = net.inference_plan(max_batch=BATCH, dtype="float32")
    target = net.last_spatial_layer()
    act1 = net.forward_prefix(frames[:1], target)
    actB = plan.run_prefix(frames, target)

    t_seed = _time(lambda: net.forward(frames[:1]))
    t_plan1 = _time(lambda: plan.run(frames[:1]))
    t_planB = _time(lambda: plan.run(frames)) / BATCH
    t_plan32 = _time(lambda: plan32.run(frames)) / BATCH
    t_suffix_seed = _time(lambda: net.forward_suffix(act1, target))
    t_suffix_batch = _time(lambda: plan.run_suffix(actB, target)) / BATCH
    plan8 = net.inference_plan(max_batch=BATCH, dtype="int8")
    f32 = frames.astype(np.float32)
    t_int8_1 = _time(lambda: plan8.run(f32[:1]))
    t_int8_B = _time(lambda: plan8.run(f32)) / BATCH
    t_int8_prefix = _time(lambda: plan8.run_prefix(f32, target)) / BATCH

    rows = [
        ["full forward, seed b=1", round(t_seed * 1e6, 1), "1.00x"],
        ["full forward, plan b=1", round(t_plan1 * 1e6, 1),
         f"{t_seed / t_plan1:.2f}x"],
        [f"full forward, plan b={BATCH}", round(t_planB * 1e6, 1),
         f"{t_seed / t_planB:.2f}x"],
        [f"full forward, plan b={BATCH} f32", round(t_plan32 * 1e6, 1),
         f"{t_seed / t_plan32:.2f}x"],
        ["AMC suffix, seed b=1", round(t_suffix_seed * 1e6, 1), "1.00x"],
        [f"AMC suffix, plan b={BATCH}", round(t_suffix_batch * 1e6, 1),
         f"{t_suffix_seed / t_suffix_batch:.2f}x"],
        ["full forward, int8 b=1", round(t_int8_1 * 1e6, 1),
         f"{t_seed / t_int8_1:.2f}x"],
        [f"full forward, int8 b={BATCH}", round(t_int8_B * 1e6, 1),
         f"{t_seed / t_int8_B:.2f}x"],
        [f"AMC prefix, int8 b={BATCH}", round(t_int8_prefix * 1e6, 1), ""],
    ]
    register_table(
        f"planned inference end to end ({NETWORK}; µs/frame)",
        ["path", "µs/frame", "speedup"],
        rows,
    )

    # Bit-identity of the planned paths is the hard requirement; the
    # throughput floor is deliberately conservative to stay robust on
    # noisy CI hosts.
    out = plan.run(frames)
    for s in range(BATCH):
        np.testing.assert_array_equal(out[s], net.forward(frames[s : s + 1])[0])
    out8 = plan8.run(f32)
    for s in range(BATCH):
        np.testing.assert_array_equal(out8[s], plan8.run(f32[s : s + 1])[0])
    np.testing.assert_array_equal(
        plan8.run_suffix(plan8.run_prefix(f32, target), target), out8
    )
    assert t_planB < t_seed, "batched planned inference slower than seed"
