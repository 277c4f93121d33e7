"""Churn-fuzz differential harness: pipelined serving vs ground truth.

Each seed derives a complete serving scenario — clip count, ragged
lengths (forcing mid-flight evictions), a scenario mix with hard scene
cuts spliced at step boundaries, lane capacity, and a bursty Poisson
arrival trace (forcing mid-flight admissions) — then runs it per clip
through the serial pipeline (ground truth) and serves it once; serving
hands a step's successor over only at stable membership, and every
fuzzed policy estimates, so each handover runs on the head thread.
Served frames, key-frame decisions, and per-clip RFBME op counts must
be bit-identical to serial.  A failing seed is a real bug in the
pipelined executor or the stability predicate, never fuzz noise:
everything is deterministic given the seed.

CI hooks:

* ``REPRO_FUZZ_SEEDS`` — space/comma-separated seed list overriding the
  default set, so CI can matrix one seed per job.
* ``REPRO_FUZZ_TRACE_DIR`` — when set, each scenario is dumped there as
  JSON *before* the assertions run, so the trace of a failing seed
  survives as an artifact.
"""

import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from fake_clock import FakeClock
from repro.core.sad_kernel import get_kernel
from repro.runtime import (
    ClipRequest,
    PipelineSpec,
    ServerConfig,
    ServingRuntime,
    run_workload,
    synthetic_workload,
)
from repro.video import generate_clip, scenario, scenario_names
from repro.video.generator import VideoClip

NETWORK = "mini_fasterm"
DEFAULT_SEEDS = (0, 1, 2, 3)
#: pipelined steps per seed: the steps whose membership is provably
#: stable.  Identical across RFBME backends and kernel lanes;
#: a change here means the set of pipelined steps moved.
PIPELINED_STEPS = dict(enumerate(
    (7, 0, 9, 16, 0, 2, 3, 9, 15, 1, 2, 7, 16, 4, 0, 3)
))
_POLICIES = ("match_error", "static", "motion")


def _fuzz_seeds():
    env = os.environ.get("REPRO_FUZZ_SEEDS", "").replace(",", " ").split()
    return tuple(int(token) for token in env) if env else DEFAULT_SEEDS


#: RFBME host lanes the differential runs in; the compiled lane skips
#: where the kernel is unavailable (e.g. under REPRO_FORCE_NUMPY=1).
LANES = [
    pytest.param(
        "kernel",
        marks=pytest.mark.skipif(
            get_kernel() is None, reason="compiled SAD kernel unavailable"
        ),
    ),
    pytest.param("batched"),
]


def _requests(clips, arrivals=None):
    arrivals = arrivals if arrivals is not None else itertools.repeat(0.0)
    return [
        ClipRequest(request_id=i, clip=clip, arrival_time=t)
        for i, (clip, t) in enumerate(zip(clips, arrivals))
    ]


def _spliced_clip(first, second, seed, num_frames):
    """A clip with a hard scene cut: two scenarios spliced mid-stream.

    The cut lands on a frame boundary — exactly where serving admits and
    evicts — so adaptive policies flip to a key frame right where a
    pipelined head may already be in flight."""
    cut = num_frames // 2
    head = generate_clip(scenario(first), seed=seed, num_frames=cut)
    tail = generate_clip(
        scenario(second), seed=seed + 1, num_frames=num_frames - cut
    )
    return VideoClip(
        frames=np.concatenate([head.frames, tail.frames]),
        annotations=list(head.annotations) + list(tail.annotations),
        scenario=f"{first}+cut:{second}",
    )


def _make_scenario(seed):
    """Derive one full serving scenario from a seed (pure function)."""
    rng = np.random.default_rng(seed)
    names = list(scenario_names())
    num_clips = int(rng.integers(6, 10))
    capacity = int(rng.integers(2, 5))
    policy = _POLICIES[int(rng.integers(len(_POLICIES)))]

    clips = []
    clip_meta = []
    for i in range(num_clips):
        num_frames = int(rng.integers(2, 9))
        name = names[int(rng.integers(len(names)))]
        clip_seed = int(rng.integers(0, 10_000))
        if num_frames >= 4 and rng.random() < 0.35:
            other = names[int(rng.integers(len(names)))]
            clip = _spliced_clip(name, other, clip_seed, num_frames)
        else:
            clip = generate_clip(
                scenario(name), seed=clip_seed, num_frames=num_frames
            )
        clips.append(clip)
        clip_meta.append(
            {"scenario": clip.scenario, "seed": clip_seed, "frames": num_frames}
        )

    # Bursty Poisson trace: exponential gaps sized against the FakeClock
    # tick, with occasional zero-gap bursts so several admissions hit
    # one step boundary at once.
    arrivals = []
    t = 0.0
    while len(arrivals) < num_clips:
        t += float(rng.exponential(0.004))
        burst = 1 + int(rng.integers(0, 3)) if rng.random() < 0.35 else 1
        for _ in range(min(burst, num_clips - len(arrivals))):
            arrivals.append(round(t, 6))

    return {
        "seed": seed,
        "capacity": capacity,
        "policy": policy,
        "clips": clip_meta,
        "arrivals": arrivals,
    }, clips


def _dump_trace(label, trace):
    trace_dir = os.environ.get("REPRO_FUZZ_TRACE_DIR")
    if not trace_dir:
        return
    path = Path(trace_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{label}.json").write_text(json.dumps(trace, indent=2))


def _spec(backend, policy):
    spec = PipelineSpec(network=NETWORK, policy=policy, rfbme_backend=backend)
    spec.warm()
    return spec


def _serve(spec, clips, arrivals, capacity):
    runtime = ServingRuntime(spec, ServerConfig(max_batch=capacity, clock=FakeClock()))
    return runtime.serve(_requests(clips, arrivals))


def _assert_identical(report, reference):
    """Bit-identity per clip: outputs, key decisions, and op counts."""
    got = report.workload_result()
    assert got.matches(reference)
    for served, want in zip(got.results, reference.results):
        np.testing.assert_array_equal(served.outputs(), want.outputs())
        np.testing.assert_array_equal(served.key_mask(), want.key_mask())
        assert _clip_ops(served) == _clip_ops(want)


def _clip_ops(result):
    return sum(
        record.estimation_ops.total
        for record in result.records
        if record.estimation_ops is not None
    )


@pytest.mark.parametrize("backend", LANES)
@pytest.mark.parametrize("seed", _fuzz_seeds())
def test_churn_fuzz_differential(seed, backend):
    """The serving contract, fuzzed: a seeded churn trace served is
    bit-identical to its serial run."""
    trace, clips = _make_scenario(seed)
    _dump_trace(f"fuzz_seed{seed}_{backend}", trace)

    spec = _spec(backend, trace["policy"])
    serial = run_workload(spec, clips, batch=False)
    report = _serve(spec, clips, trace["arrivals"], trace["capacity"])
    _assert_identical(report, serial)
    if seed in PIPELINED_STEPS:
        assert report.pipelined_steps == PIPELINED_STEPS[seed]


class TestForcedChurn:
    """Deterministic trace: a full lane pipelines, loses a resident,
    refills to full from the queue, and pipelines again."""

    @pytest.mark.parametrize("policy", ["match_error", "static"])
    def test_definite_steps_pipeline_across_refill(self, policy):
        # Capacity 2, everything queued at t=0.  Steps 1-3 run A and B
        # (A0/B0 and A1/B1 hand over definitely, B2 is B's last frame);
        # B departs, C refills the lane, and A3/C0 and A4/C1 hand over
        # again before A's last frame — 4 pipelined steps, 2 on each
        # side of the refill.  The static policy's interval counter is
        # the most state-sensitive thing a pipelined decide advances.
        a = synthetic_workload(1, num_frames=6, base_seed=31)
        b = synthetic_workload(1, num_frames=3, base_seed=47)
        c = synthetic_workload(1, num_frames=6, base_seed=53)
        clips = a + b + c
        spec = _spec(None, policy)
        serial = run_workload(spec, clips, batch=False)
        report = _serve(spec, clips, None, capacity=2)
        _assert_identical(report, serial)
        assert report.pipelined_steps > 0
        assert report.pipelined_steps == 4
