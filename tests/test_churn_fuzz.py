"""Churn-fuzz differential harness: speculative serving vs ground truth.

Each seed derives a complete serving scenario — clip count, ragged
lengths (forcing mid-flight evictions), a scenario mix with hard scene
cuts spliced at step boundaries, lane capacity, and a bursty Poisson
arrival trace (forcing mid-flight admissions) — then serves it three
ways: per-clip serial (ground truth), sequential serving
(``pipeline_depth=1``), and speculative pipelined serving
(``pipeline_depth=2``, ``speculate=True``).  Every path must produce
bit-identical frames, key-frame decisions, and per-clip RFBME op counts.
A failing seed is a real bug in the checkpoint/rollback machinery, never
fuzz noise: everything is deterministic given the seed.

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


class FakeClock:
    """Manually advanced clock (see test_serving): each reading moves
    time one tick, so admission interleaves with service deterministically."""

    def __init__(self, tick: float = 0.001):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


def _requests(clips, arrivals=None):
    arrivals = arrivals if arrivals is not None else itertools.repeat(0.0)
    return [
        ClipRequest(request_id=i, clip=clip, arrival_time=t)
        for i, (clip, t) in enumerate(zip(clips, arrivals))
    ]


def _spliced_clip(first, second, seed, num_frames):
    """A clip with a hard scene cut: two scenarios spliced mid-stream.

    The cut lands on a frame boundary — exactly where serving admits and
    evicts — so adaptive policies flip to a key frame right where the
    speculative head may already be in flight."""
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


def _spec(backend, policy, depth, speculate=True):
    spec = PipelineSpec(
        network=NETWORK,
        policy=policy,
        rfbme_backend=backend,
        pipeline_depth=depth,
        speculate=speculate,
    )
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
    """The tentpole contract, fuzzed: a seeded churn trace served
    speculatively is bit-identical to its sequential and serial runs."""
    trace, clips = _make_scenario(seed)
    _dump_trace(f"fuzz_seed{seed}_{backend}", trace)

    sequential = _spec(backend, trace["policy"], depth=1)
    serial = run_workload(sequential, clips, batch=False)

    seq_report = _serve(sequential, clips, trace["arrivals"], trace["capacity"])
    _assert_identical(seq_report, serial)
    assert seq_report.speculated == 0 and seq_report.rollbacks == 0

    speculative = _spec(backend, trace["policy"], depth=2, speculate=True)
    spec_report = _serve(
        speculative, clips, trace["arrivals"], trace["capacity"]
    )
    _assert_identical(spec_report, serial)
    # The machinery must actually engage: with churn traffic, every step
    # with a surviving resident launches a head (definite or speculative).
    assert spec_report.pipelined_steps + spec_report.speculated > 0
    assert 0.0 <= spec_report.rollback_rate <= 1.0


class TestForcedChurn:
    """Deterministic worst-case trace: speculation is forced to
    mispredict, so the rollback path itself is what's under test."""

    @pytest.fixture(scope="class")
    def churn_trace(self):
        # Capacity 3 but only 2 residents at t=0: never provably stable,
        # so every launch is speculative; the late wave of admissions
        # lands mid-flight and invalidates in-flight heads.
        early = synthetic_workload(2, num_frames=8, base_seed=31)
        late = synthetic_workload(3, num_frames=5, base_seed=47)
        clips = early + late
        arrivals = [0.0, 0.0, 0.006, 0.012, 0.018]
        return clips, arrivals

    def test_rollbacks_fire_and_identity_holds(self, churn_trace):
        clips, arrivals = churn_trace
        spec = _spec(None, "match_error", depth=2, speculate=True)
        serial = run_workload(spec, clips, batch=False)
        report = _serve(spec, clips, arrivals, capacity=3)
        _assert_identical(report, serial)
        assert report.speculated > 0
        assert report.rollbacks > 0
        assert report.rollback_rate > 0.0
        assert report.speculation_engagement > 0.0

    def test_rollback_events_are_named(self, churn_trace):
        clips, arrivals = churn_trace
        spec = _spec(None, "match_error", depth=2, speculate=True)
        runtime = ServingRuntime(spec, ServerConfig(max_batch=3, clock=FakeClock()))
        runtime.serve(_requests(clips, arrivals))
        events = runtime.lanes["default"].executor.stats.events
        assert events, "forced-churn trace produced no rollback events"
        assert {event.reason for event in events} <= {
            "membership-mismatch",
            "abandoned",
        }
        assert all(event.step > 0 for event in events)
        assert any(event.positions for event in events)

    def test_speculation_off_restores_stable_only_overlap(self, churn_trace):
        """--no-speculate is the PR 5 behaviour: identical bits, zero
        speculative launches, zero rollbacks."""
        clips, arrivals = churn_trace
        spec = _spec(None, "match_error", depth=2, speculate=False)
        serial = run_workload(spec, clips, batch=False)
        report = _serve(spec, clips, arrivals, capacity=3)
        _assert_identical(report, serial)
        assert report.speculated == 0
        assert report.rollbacks == 0

    def test_static_policy_counter_survives_rollback(self, churn_trace):
        """StaticPolicy's interval counter is pure policy state — a
        missed rollback would shift every later key decision, so this
        pins the checkpoint contract on the most state-sensitive policy."""
        clips, arrivals = churn_trace
        spec = _spec(None, "static", depth=2, speculate=True)
        serial = run_workload(spec, clips, batch=False)
        report = _serve(spec, clips, arrivals, capacity=3)
        _assert_identical(report, serial)
        assert report.rollbacks > 0
