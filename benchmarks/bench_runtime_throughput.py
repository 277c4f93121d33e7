"""Runtime throughput: the planned lockstep runtime vs serial execution.

A 16-clip mixed-scenario synthetic workload (the shape of multi-stream
live-vision traffic, paper §I) runs through the runtime's execution
paths:

* ``loop serial``     — one clip at a time on the ``loop`` RFBME backend,
  the reference implementation the vectorized backends are checked
  against; the identity reference and speedup base of every row;
* ``planned serial``  — one clip at a time on the default (fastest
  available) RFBME backend;
* ``planned lockstep``— the headline: one RFBME batch, one batched CNN
  prefix for coincident key frames, one batched warp, one CNN suffix
  call per lockstep step, with the next step's RFBME on a second
  thread.

Every path must produce identical outputs, key-frame decisions, and op
counts — the speedup comes purely from host execution strategy.  The
headline assertion is planned lockstep >= 1.3x planned serial frames/sec
on hosts with the compiled kernels.  Results are also written to
``BENCH_runtime.json`` at the repo root so CI can track the perf
trajectory per PR; the file's ``history`` block holds frozen rows of
execution paths that no longer exist, carried over verbatim and never
gated.
"""

import time

import pytest

from _common import bench_json_path, write_bench_json
from conftest import register_table
from repro.core.rfbme import RFBMEEngine
from repro.core.sad_kernel import kernel_available
from repro.runtime import PipelineSpec, run_workload, synthetic_workload

NETWORK = "mini_fasterm"
NUM_CLIPS = 16
FRAMES_PER_CLIP = 16
JSON_PATH = bench_json_path("runtime")
#: planned lockstep over planned serial frames/sec, kernel hosts.
LOCKSTEP_BAR = 1.3

#: measured paths: label -> (spec kwargs, run kwargs).
PATHS = {
    "loop serial": (dict(rfbme_backend="loop"), dict(batch=False)),
    "planned serial": (dict(), dict(batch=False)),
    "planned lockstep": (dict(), dict(batch=True)),
}


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(NUM_CLIPS, num_frames=FRAMES_PER_CLIP, base_seed=0)


def _best_of(runs, spec, workload, **kwargs):
    """Best throughput over a few repetitions (first run warms caches)."""
    results = [run_workload(spec, workload, **kwargs) for _ in range(runs)]
    return max(results, key=lambda r: r.frames_per_second)


def test_runtime_throughput(workload):
    measured = {}
    resolved = {}
    for label, (spec_kwargs, run_kwargs) in PATHS.items():
        spec = PipelineSpec(network=NETWORK, **spec_kwargs)
        spec.warm()
        resolved[label] = spec.build_executor().rfbme_engine.backend
        measured[label] = _best_of(2, spec, workload, **run_kwargs)

    reference = measured["loop serial"]
    rows, trajectory = [], {}
    for label, result in measured.items():
        # Identical results are a hard requirement: outputs, key-frame
        # decisions, and RFBME op counts all match the loop oracle.
        assert result.matches(reference), f"{label} diverged from loop serial"
        speedup = result.frames_per_second / reference.frames_per_second
        rows.append([
            label,
            resolved[label],
            round(result.frames_per_second, 1),
            f"{speedup:.2f}x",
            "yes",
        ])
        trajectory[label] = {
            "frames_per_second": round(result.frames_per_second, 2),
            "speedup_vs_loop_serial": round(speedup, 3),
            "identical_to_loop_serial": True,
        }
    register_table(
        f"runtime throughput ({NUM_CLIPS} clips x {FRAMES_PER_CLIP} frames, "
        f"{NETWORK})",
        ["path", "rfbme", "frames/s", "speedup", "identical"],
        rows,
    )

    serial = measured["planned serial"].frames_per_second
    lockstep = measured["planned lockstep"].frames_per_second
    headline = lockstep / serial
    trajectory["planned lockstep"]["speedup_vs_planned_serial"] = round(
        headline, 3
    )
    write_bench_json(
        JSON_PATH,
        header={"benchmark": "runtime_throughput", "network": NETWORK},
        results={
            "workload": {
                "clips": NUM_CLIPS,
                "frames_per_clip": FRAMES_PER_CLIP,
            },
            "kernel_available": kernel_available(),
            "paths": trajectory,
            "headline_speedup_vs_planned_serial": round(headline, 3),
        },
        carry_keys=("history",),
    )

    if not kernel_available():
        pytest.skip(
            f"compiled SAD kernel unavailable; planned lockstep is "
            f"{headline:.2f}x planned serial with NumPy hot paths only"
        )
    assert headline >= LOCKSTEP_BAR, (
        f"expected planned lockstep >= {LOCKSTEP_BAR}x planned serial, "
        f"got {headline:.2f}x"
    )


def test_rfbme_looped_vs_vectorized(workload):
    """Microbenchmark of the RFBME hot path itself, per frame pair."""
    spec = PipelineSpec(network=NETWORK)
    executor = spec.build_executor()
    key, new = workload[0].frames[0], workload[0].frames[1]

    timings = {}
    for backend in ("loop", "batched", "kernel"):
        engine = RFBMEEngine(
            key.shape, executor.rf, executor.grid_shape,
            config=executor.config.rfbme, backend=backend,
        )
        if backend == "kernel" and engine.backend != "kernel":
            continue  # kernel unavailable on this host
        engine.estimate(key, new)  # warm scratch buffers
        start = time.perf_counter()
        repeats = 20
        for _ in range(repeats):
            engine.estimate(key, new)
        timings[backend] = (time.perf_counter() - start) / repeats

    register_table(
        "RFBME looped vs vectorized (64x64 frame, radius 12, stride 2)",
        ["backend", "ms/frame", "speedup"],
        [
            [backend, round(seconds * 1e3, 3),
             f"{timings['loop'] / seconds:.2f}x"]
            for backend, seconds in timings.items()
        ],
    )
    assert timings["batched"] < timings["loop"]
    if "kernel" in timings:
        assert timings["kernel"] < timings["batched"]
