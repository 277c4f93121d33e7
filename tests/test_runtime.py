"""Runtime-layer tests: spec building, workload construction, and the
lockstep BatchedPipeline — including the contract that every execution
path produces results identical to the serial loop."""

import sys

import numpy as np
import pytest

from lockstep_inline import run_lockstep_inline
from repro.core import EVA2Pipeline, MatchErrorPolicy, StaticPolicy
from repro.runtime import (
    BatchedPipeline,
    PipelineSpec,
    poisson_arrival_times,
    run_workload,
    slack_deadlines,
    synthetic_workload,
)

NETWORK = "mini_fasterm"


@pytest.fixture(scope="module")
def spec():
    spec = PipelineSpec(network=NETWORK)
    spec.warm()
    return spec


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(4, num_frames=6, base_seed=7)


@pytest.fixture(scope="module")
def serial_result(spec, workload):
    return run_workload(spec, workload, batch=False)


class TestPipelineSpec:
    def test_build_produces_pipeline(self, spec):
        pipeline = spec.build()
        assert isinstance(pipeline, EVA2Pipeline)
        assert isinstance(pipeline.policy, MatchErrorPolicy)

    def test_policy_selection(self):
        assert isinstance(
            PipelineSpec(policy="static", interval=3).build_policy(), StaticPolicy
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            PipelineSpec(policy="oracle")

    def test_bad_rfbme_backend_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PipelineSpec(rfbme_backend="batch")

    def test_bad_mode_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PipelineSpec(mode="teleport")

    def test_unknown_network_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PipelineSpec(network="mini_fastrm")

    @pytest.mark.parametrize("kwargs", [
        dict(policy="match_error", threshold=-1.0),
        dict(policy="match_error", threshold=float("nan")),
        dict(policy="motion", threshold=float("nan")),
        dict(policy="static", interval=0),
    ])
    def test_bad_policy_parameter_rejected_at_construction(self, kwargs):
        """Not at the first admission, which may be in a shard process."""
        with pytest.raises(ValueError):
            PipelineSpec(**kwargs)

    def test_paper_mode_defaults(self):
        assert PipelineSpec(network="mini_alexnet").amc_config().mode == "memoize"
        assert PipelineSpec(network="mini_fasterm").amc_config().mode == "warp"

    def test_picklable(self, spec):
        import pickle

        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSyntheticWorkload:
    def test_deterministic(self):
        a = synthetic_workload(3, num_frames=4, base_seed=5)
        b = synthetic_workload(3, num_frames=4, base_seed=5)
        for clip_a, clip_b in zip(a, b):
            np.testing.assert_array_equal(clip_a.frames, clip_b.frames)

    def test_mixes_scenarios(self):
        clips = synthetic_workload(6, num_frames=4)
        assert len({clip.scenario for clip in clips}) > 1

    def test_scenario_restriction(self):
        clips = synthetic_workload(3, num_frames=4, scenarios=["static"])
        assert {clip.scenario for clip in clips} == {"static"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            synthetic_workload(0)


class TestPoissonArrivals:
    def test_seed_stability(self):
        assert poisson_arrival_times(16, rate=100.0, seed=9) == \
            poisson_arrival_times(16, rate=100.0, seed=9)

    def test_seeds_diverge(self):
        assert poisson_arrival_times(16, rate=100.0, seed=1) != \
            poisson_arrival_times(16, rate=100.0, seed=2)

    def test_monotone_nondecreasing(self):
        arrivals = poisson_arrival_times(32, rate=250.0, seed=4)
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert all(t > 0 for t in arrivals)

    def test_zero_arrivals_is_empty(self):
        assert poisson_arrival_times(0, rate=10.0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="num_arrivals"):
            poisson_arrival_times(-1, rate=10.0)

    @pytest.mark.parametrize("rate", [0.0, -3.5])
    def test_nonpositive_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate"):
            poisson_arrival_times(4, rate=rate)


class TestSlackDeadlines:
    def test_plain_slack(self):
        assert slack_deadlines([0.0, 0.5, 1.25], slack=0.1) == \
            [0.1, 0.6, 1.35]

    def test_jitter_bounds_and_determinism(self):
        arrivals = poisson_arrival_times(24, rate=100.0, seed=3)
        a = slack_deadlines(arrivals, slack=0.2, jitter=0.05, seed=8)
        b = slack_deadlines(arrivals, slack=0.2, jitter=0.05, seed=8)
        assert a == b
        for arrival, deadline in zip(arrivals, a):
            assert arrival + 0.2 <= deadline < arrival + 0.25

    def test_empty_arrivals(self):
        assert slack_deadlines([], slack=1.0) == []

    def test_nonpositive_slack_rejected(self):
        with pytest.raises(ValueError, match="slack"):
            slack_deadlines([0.0], slack=0.0)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            slack_deadlines([0.0], slack=1.0, jitter=-0.1)


def _assert_identical(result, reference):
    assert result.matches(reference)
    for got, want in zip(result.results, reference.results):
        np.testing.assert_array_equal(got.outputs(), want.outputs())
        np.testing.assert_array_equal(got.key_mask(), want.key_mask())


class TestBatchedPipeline:
    def test_lockstep_matches_serial(self, spec, workload, serial_result):
        """Default lockstep (batched RFBME + batched CNN) is bit-identical
        to the serial loop: outputs, key decisions, op counts."""
        lockstep = BatchedPipeline(spec).run_workload(workload)
        _assert_identical(lockstep, serial_result)
        assert lockstep.path == "lockstep"

    def test_memoize_network_lockstep_matches_serial(self):
        """Cross-clip CNN batching with memoization (classification
        networks) is bit-identical too."""
        spec = PipelineSpec(network="mini_alexnet")
        spec.warm()
        clips = synthetic_workload(4, num_frames=6, base_seed=3)
        serial = run_workload(spec, clips, batch=False)
        lockstep = run_workload(spec, clips, batch=True)
        _assert_identical(lockstep, serial)

    def test_float32_same_decisions_bounded_outputs(self, spec, workload):
        """float32 mode: RFBME stays float64, so key decisions and op
        counts are identical; CNN outputs drift within float32 bounds."""
        f32 = PipelineSpec(network=NETWORK, dtype="float32")
        want = run_workload(spec, workload, batch=True)
        got = run_workload(f32, workload, batch=True)
        np.testing.assert_array_equal(got.key_mask(), want.key_mask())
        assert got.total_estimation_ops == want.total_estimation_ops
        np.testing.assert_allclose(
            got.outputs(), want.outputs(), rtol=2e-4, atol=2e-4
        )

    def test_float32_batched_matches_float32_serial(self, workload):
        """Within float32 mode, lockstep batching is still bit-identical
        to the float32 serial loop."""
        f32 = PipelineSpec(network=NETWORK, dtype="float32")
        serial = run_workload(f32, workload, batch=False)
        lockstep = run_workload(f32, workload, batch=True)
        _assert_identical(lockstep, serial)

    def test_ragged_clip_lengths(self, spec, serial_result):
        """Clips of different lengths run in lockstep without padding."""
        clips = synthetic_workload(2, num_frames=5, base_seed=1) + synthetic_workload(
            2, num_frames=3, base_seed=9
        )
        lockstep = BatchedPipeline(spec).run_workload(clips)
        serial = run_workload(spec, clips, batch=False)
        assert [len(r) for r in lockstep.results] == [5, 5, 3, 3]
        _assert_identical(lockstep, serial)

    def test_loop_backend_matches_default(self, workload, serial_result):
        """The seed loop implementation and the vectorized default agree
        end to end: outputs, key decisions, and op counts."""
        loop_spec = PipelineSpec(network=NETWORK, rfbme_backend="loop")
        loop_result = run_workload(loop_spec, workload, batch=False)
        _assert_identical(loop_result, serial_result)


class TestPipelinedLockstep:
    """Lockstep hands every step's successor over, and the executor runs
    step t+1's RFBME/decide beside step t's CNN stages on one shared
    engine whenever a row's policy estimates — bit-identical to serial."""

    @pytest.mark.parametrize("policy", ["always", "match_error", "static"])
    def test_keys_on_consecutive_steps(self, policy, started_threads):
        """rfbme(t+1) reads the key pixels stored at step t while
        cnn_prefix(t) is still storing that slot's activation: with a
        key on every step (static at interval 1, which still estimates
        every frame) or keys followed by predictions (match_error), every
        step but the first consumes a head run on the head thread, and
        the bits equal serial.  The always-key baseline estimates
        nothing, so it starts no head thread and pipelines no step."""
        spec = PipelineSpec(network=NETWORK, policy=policy, interval=1)
        clips = synthetic_workload(4, num_frames=8, base_seed=3)
        serial = run_workload(spec, clips, batch=False)
        masks = [result.key_mask() for result in serial.results]
        if policy != "match_error":
            assert all(mask.all() for mask in masks)
        else:
            assert any((mask[:-1] & ~mask[1:]).any() for mask in masks)
        piped = BatchedPipeline(spec).run_workload(clips)
        head = [name for name in started_threads
                if name.startswith("stage-head")]
        if policy == "always":
            assert piped.pipelined_steps == 0 and not head
        else:
            assert piped.pipelined_steps == piped.steps - 1 and head
        _assert_identical(piped, serial)

    def test_forced_thread_switches_keep_bits(self):
        """A 1 µs switch interval interleaves the head and driver
        threads almost every bytecode; key pixels and activations are
        still read only after their writer finished.  Static at
        interval 1 keys every frame and still estimates every frame."""
        spec = PipelineSpec(network=NETWORK, policy="static", interval=1)
        clips = synthetic_workload(3, num_frames=6, base_seed=3)
        serial = run_workload(spec, clips, batch=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            piped = BatchedPipeline(spec).run_workload(clips)
        finally:
            sys.setswitchinterval(interval)
        assert piped.pipelined_steps == piped.steps - 1
        _assert_identical(piped, serial)

    def test_pipelined_run_leaves_one_blas_thread(self, spec, workload):
        from repro.runtime import blas

        BatchedPipeline(spec).run_workload(workload)
        assert set(blas.openblas_threads().values()) <= {1}

    def test_pipelined_matches_serial(self, spec, workload, serial_result):
        piped = BatchedPipeline(spec).run_workload(workload)
        assert piped.pipelined_steps == piped.steps - 1
        _assert_identical(piped, serial_result)

    def test_pipelined_ragged_lengths(self, spec):
        """Clips departing the lockstep mid-stream shrink the in-flight
        batches; the pipeline keeps every remaining step overlapped."""
        clips = synthetic_workload(2, num_frames=7, base_seed=2) + \
            synthetic_workload(2, num_frames=3, base_seed=13)
        serial = run_workload(spec, clips, batch=False)
        piped = BatchedPipeline(spec).run_workload(clips)
        assert piped.pipelined_steps == piped.steps - 1
        _assert_identical(piped, serial)

    def test_pipelined_memoize_network(self):
        memo = PipelineSpec(network="mini_alexnet")
        memo.warm()
        clips = synthetic_workload(3, num_frames=5, base_seed=6)
        serial = run_workload(memo, clips, batch=False)
        piped = run_workload(memo, clips, batch=True)
        assert piped.pipelined_steps == piped.steps - 1
        _assert_identical(piped, serial)


class TestWorkloadResult:
    def test_throughput_stats(self, serial_result, workload):
        assert serial_result.num_clips == len(workload)
        assert serial_result.total_frames == sum(len(c) for c in workload)
        assert serial_result.frames_per_second > 0
        assert 0.0 < serial_result.key_fraction <= 1.0
        assert serial_result.total_estimation_ops > 0

    def test_outputs_shape(self, serial_result):
        outputs = serial_result.outputs()
        assert outputs.shape[0] == serial_result.total_frames
        assert serial_result.key_mask().shape == (serial_result.total_frames,)

    def test_summary_rows(self, serial_result):
        rows = dict((row[0], row[1]) for row in serial_result.summary_rows())
        assert rows["clips"] == serial_result.num_clips
        assert rows["frames"] == serial_result.total_frames

    def test_empty_workload_accessors(self):
        from repro.runtime import WorkloadResult

        empty = WorkloadResult(results=[], wall_seconds=0.0, path="serial")
        assert empty.total_frames == 0
        assert empty.outputs().shape[0] == 0
        assert empty.key_mask().shape == (0,)
        assert empty.matches(empty)

    def test_matches_detects_difference(self, spec, workload, serial_result):
        other = run_workload(
            PipelineSpec(network=NETWORK, policy="always"), workload, batch=False
        )
        assert not serial_result.matches(other)


class TestNonFiniteFrames:
    """A frame that turns NaN or inf after its clip was built fails with
    a named error in every shape.  RFBME's pair check names it for the
    policies that estimate; the always-key baseline estimates nothing,
    so storing a key frame checks it."""

    @pytest.mark.parametrize("dtype", ["float64", "int8"])
    @pytest.mark.parametrize("policy", ["always", "match_error"])
    @pytest.mark.parametrize("shape", ["serial", "depth1", "depth2"])
    @pytest.mark.parametrize("frame,bad", [(0, np.nan), (3, np.inf)])
    def test_mutated_clip_named(self, dtype, policy, shape, frame, bad):
        """``depth1`` is lockstep with every head inline; ``depth2`` is
        the default lockstep, which overlaps the next step's head
        whenever a row estimates."""
        spec = PipelineSpec(network=NETWORK, policy=policy, dtype=dtype)
        clips = synthetic_workload(3, num_frames=5, base_seed=13)
        clips[1].frames[frame, 10, 20] = bad
        with pytest.raises(ValueError, match="frame has non-finite pixels"):
            if shape == "depth1":
                run_lockstep_inline(spec, clips)
            else:
                run_workload(spec, clips, batch=shape == "depth2")

    @pytest.mark.parametrize("policy", ["always", "match_error"])
    @pytest.mark.parametrize("backend", ["unsharded", "serial", "process"])
    def test_mutated_request_named_by_every_serve_shape(self, policy,
                                                        backend):
        """A frame that turned NaN after its request was built fails the
        serve with the named error in every serve shape.  A process shard
        hands the error to the parent, which raises it: no crash, no
        respawn, no :class:`ShardCrashError`."""
        from repro.runtime import ClipRequest, ServerConfig, ServingRuntime

        spec = PipelineSpec(network=NETWORK, policy=policy)
        clips = synthetic_workload(4, num_frames=5, base_seed=13)
        requests = [
            ClipRequest(request_id=i, clip=clip)
            for i, clip in enumerate(clips)
        ]
        clips[1].frames[2, 10, 20] = np.nan
        config = ServerConfig(max_batch=2) if backend == "unsharded" else (
            ServerConfig(max_batch=2, serve_workers=2, shard_backend=backend)
        )
        with pytest.raises(ValueError, match="frame has non-finite pixels"):
            ServingRuntime(spec, config).serve(requests)
