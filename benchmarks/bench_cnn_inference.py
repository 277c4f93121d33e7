"""Planned CNN inference engine: per-layer and end-to-end gains.

The engine (:class:`repro.nn.inference.InferencePlan`) compiles each
network once per (batch capacity, dtype): im2col becomes one flat gather
into preallocated scratch, pooling loses its unfold/argmax, ReLU reuses
one mask buffer in the GEMM's natural layout, and matmuls stay at serial
shapes unless fusing across the batch is proven bit-identical on the
host.  This bench reports, per layer and end to end:

* batch-of-1 planned execution vs the seed layer-by-layer forward (the
  serial pipeline's win), and
* batch-of-16 planned execution per frame (the lockstep runtime's win —
  one call serving a whole workload step), and
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
