"""Checkpoint/rollback contract tests (the Checkpointable protocol).

Speculative pipelining is only sound if ``checkpoint() → mutate* →
rollback()`` is an exact round trip on every resource the speculated
head writes.  These tests pin that contract three ways: property-style
round trips on the key-frame policies (randomized decide streams),
resource-level round trips on a real mid-stream lane batch, and a
mutation-style self-check that the churn harness *catches* a missed
rollback rather than silently passing.
"""

import numpy as np
import pytest

from repro.core import (
    AlwaysKeyPolicy,
    MatchErrorPolicy,
    MotionMagnitudePolicy,
    NeverKeyPolicy,
    StaticPolicy,
)
from repro.core.keyframe import KeyFramePolicy
from repro.core.stages import (
    CHECKPOINT_RESOURCES,
    CURSOR_STATE,
    ENGINE_SCRATCH,
    KEY_STATE,
    POLICY_STATE,
    StepBatch,
    checkpoint_resource,
    fingerprint_resource,
    restore_resource,
)
from repro.runtime import (
    Checkpointable,
    ClipRequest,
    PipelineContractError,
    PipelineSpec,
    ServerConfig,
    ServingRuntime,
    Stage,
    StageExecutor,
    StageGraph,
    frame_lifecycle_graph,
    run_workload,
    synthetic_workload,
)
from repro.runtime.serving import LaneWorker

NETWORK = "mini_fasterm"

POLICY_FACTORIES = {
    "static": lambda: StaticPolicy(3),
    "match_error": lambda: MatchErrorPolicy(2.0, max_gap=4),
    "motion": lambda: MotionMagnitudePolicy(1.5),
    "always": AlwaysKeyPolicy,
    "never": NeverKeyPolicy,
}


class _FakeField:
    def __init__(self, magnitude):
        self._magnitude = magnitude

    def total_magnitude(self):
        return self._magnitude


class _FakeEstimation:
    """Just the two metrics the adaptive policies read."""

    def __init__(self, error, magnitude):
        self.total_match_error = error
        self.field = _FakeField(magnitude)


def _decide_stream(rng, length):
    """A deterministic stream of (frame_index, estimation) pairs."""
    stream = [(0, None)]
    for i in range(1, length):
        stream.append(
            (i, _FakeEstimation(float(rng.uniform(0, 4)),
                                float(rng.uniform(0, 3))))
        )
    return stream


class TestPolicyRoundTrip:
    """checkpoint → decide* → rollback is exact on every policy."""

    @pytest.mark.parametrize("name", sorted(POLICY_FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rollback_restores_state_and_replays(self, name, seed):
        policy = POLICY_FACTORIES[name]()
        rng = np.random.default_rng(seed)
        stream = _decide_stream(rng, 12)
        cut = int(rng.integers(1, len(stream) - 1))

        for frame, estimation in stream[:cut]:
            policy.decide(frame, estimation)
        snapshot = policy.checkpoint()
        state_at_cut = dict(vars(policy))

        first_pass = [
            policy.decide(frame, estimation)
            for frame, estimation in stream[cut:]
        ]
        policy.rollback(snapshot)
        assert vars(policy) == state_at_cut

        # Replay determinism: the identical tail stream must reproduce
        # the identical decisions after rollback.
        replay = [
            policy.decide(frame, estimation)
            for frame, estimation in stream[cut:]
        ]
        assert replay == first_pass

    def test_snapshot_is_isolated_and_reusable(self):
        policy = StaticPolicy(4)
        policy.decide(0, None)
        policy.decide(1, _FakeEstimation(0.0, 0.0))
        snapshot = policy.checkpoint()
        want = dict(vars(policy))

        for _ in range(2):  # one snapshot, two rollbacks
            for i in range(2, 7):
                policy.decide(i, _FakeEstimation(0.0, 0.0))
            assert vars(policy) != want  # mutation really happened
            policy.rollback(snapshot)
            assert vars(policy) == want

    def test_nested_and_aliased_containers_round_trip(self):
        """Deep-copy semantics: nested arrays restore by value and
        intra-snapshot aliasing is preserved by the copy memo."""

        class HistoryPolicy(StaticPolicy):
            def __init__(self):
                super().__init__(2)
                self.history = np.zeros(4)
                # two attributes deliberately alias one array
                self.views = {"latest": self.history}

            def _decide(self, estimation):
                self.history[self._frames_since_key % 4] += 1.0
                return super()._decide(estimation)

        policy = HistoryPolicy()
        policy.decide(0, None)
        snapshot = policy.checkpoint()
        baseline = policy.history.copy()

        for i in range(1, 6):
            policy.decide(i, _FakeEstimation(0.0, 0.0))
        assert not np.array_equal(policy.history, baseline)

        policy.rollback(snapshot)
        np.testing.assert_array_equal(policy.history, baseline)
        assert policy.history is policy.views["latest"]  # aliasing kept
        # and the snapshot itself never saw the in-place mutations
        policy.decide(1, _FakeEstimation(0.0, 0.0))
        policy.rollback(snapshot)
        np.testing.assert_array_equal(policy.history, baseline)

    def test_policies_satisfy_checkpointable_protocol(self):
        for factory in POLICY_FACTORIES.values():
            assert isinstance(factory(), Checkpointable)
        assert isinstance(KeyFramePolicy, type)
        assert not isinstance(object(), Checkpointable)


@pytest.fixture(scope="module")
def spec():
    spec = PipelineSpec(network=NETWORK, policy="static", interval=2,
                        pipeline_depth=2, speculate=True)
    spec.warm()
    return spec


@pytest.fixture(scope="module")
def clips():
    return synthetic_workload(3, num_frames=6, base_seed=13)


def _mid_stream_worker(spec, clips):
    worker = LaneWorker("default", spec, capacity=len(clips))
    for i, clip in enumerate(clips):
        worker.admit(i, ClipRequest(request_id=i, clip=clip), now=0.0)
        worker.step()
    return worker


class TestResourceRoundTrip:
    """checkpoint_resource/restore_resource on a real lane batch."""

    def test_policy_and_cursor_state_round_trip(self, spec, clips):
        worker = _mid_stream_worker(spec, clips)
        batch = StepBatch(
            state=worker.state,
            positions=worker.state.occupied(),
            frames=[clips[i].frames[worker.state.slots[i].cursor]
                    for i in worker.state.occupied()],
        )
        snapshots = {
            resource: checkpoint_resource(batch, resource)
            for resource in CHECKPOINT_RESOURCES
        }
        before = {
            resource: fingerprint_resource(batch, resource)
            for resource in CHECKPOINT_RESOURCES
        }

        # Mutate both resources the way a speculated head would (and
        # more): advance cursors and run policy decisions.
        for k in range(len(batch)):
            batch.slot(k).cursor += k + 1
            batch.slot(k).policy.decide(1, _FakeEstimation(9.0, 9.0))
        for resource in CHECKPOINT_RESOURCES:
            assert fingerprint_resource(batch, resource) != before[resource]

        for resource in CHECKPOINT_RESOURCES:
            restore_resource(batch, resource, snapshots[resource])
        for resource in CHECKPOINT_RESOURCES:
            assert fingerprint_resource(batch, resource) == before[resource]

    def test_uncheckpointable_resources_raise(self, spec, clips):
        worker = _mid_stream_worker(spec, clips)
        batch = StepBatch(state=worker.state, positions=(), frames=[])
        for resource in (KEY_STATE, ENGINE_SCRATCH):
            with pytest.raises(ValueError):
                checkpoint_resource(batch, resource)
            with pytest.raises(ValueError):
                restore_resource(batch, resource, object())
        # None snapshots (resource not captured) restore as a no-op.
        restore_resource(batch, POLICY_STATE, None)
        restore_resource(batch, CURSOR_STATE, None)


def _unfenced_lifecycle_graph():
    """The lifecycle graph with its fence dropped: ``adopt_pixels`` then
    joins the pipelined head, which thereby writes key pixels — a
    persistent resource no checkpoint covers."""
    return StageGraph([
        Stage(stage.name, stage.fn, stage.inputs, stage.outputs,
              stage.reads, stage.writes, fence=False)
        for stage in frame_lifecycle_graph()
    ])


class TestExecutorSpeculationGuards:
    def test_unfenced_graph_is_speculation_unsafe(self):
        executor = StageExecutor(_unfenced_lifecycle_graph(), pipeline_depth=2)
        assert "adopt_pixels" in {stage.name for stage in executor.head}
        assert not executor.speculation_safe
        # the lifecycle graph's head (rfbme + decide) is safe
        assert StageExecutor(
            frame_lifecycle_graph(), pipeline_depth=2
        ).speculation_safe

    def test_speculating_on_unsafe_graph_raises(self, spec, clips):
        worker = LaneWorker("default", spec, capacity=1)
        worker.executor = StageExecutor(
            _unfenced_lifecycle_graph(), pipeline_depth=2
        )
        worker.admit(0, ClipRequest(request_id=0, clip=clips[0]), now=0.0)
        batch = worker._build_batch(worker.state.occupied())

        with pytest.raises(PipelineContractError, match="cannot speculate"):
            worker.executor.step(batch, next_batch=batch, speculative=True)

    def test_close_rolls_back_abandoned_speculation(self, spec, clips):
        """A speculative head in flight when the executor closes must be
        rolled back (reason 'abandoned'), leaving launch-time state."""
        # Sequential twin: its post-step-1 policy state is exactly what
        # the speculative worker checkpointed at launch (the speculated
        # step-2 decide runs on a worker thread, so the twin — not a
        # racy read of live state — is the deterministic reference).
        sequential = PipelineSpec(network=NETWORK, policy="static",
                                  interval=2, pipeline_depth=1)
        reference = LaneWorker("ref", sequential, capacity=len(clips) + 1)
        worker = LaneWorker("default", spec, capacity=len(clips) + 1)
        for lane in (reference, worker):
            for i, clip in enumerate(clips):
                lane.admit(i, ClipRequest(request_id=i, clip=clip), now=0.0)
            lane.step()  # under-capacity → worker launches speculatively
        assert worker.executor.stats.speculated == 1
        expected = [
            dict(vars(reference.state.slots[i].policy))
            for i in reference.state.occupied()
        ]

        worker.executor.close()
        stats = worker.executor.stats
        assert stats.rollbacks == 1
        assert [event.reason for event in stats.events] == ["abandoned"]
        after = [
            dict(vars(worker.state.slots[i].policy))
            for i in worker.state.occupied()
        ]
        assert after == expected


class TestMissedRollbackIsCaught:
    """Mutation-style self-check: disable the rollback restore and the
    differential harness must fail — proving the fuzz assertions have
    the power to catch a checkpoint/rollback regression."""

    def test_harness_catches_disabled_rollback(self, monkeypatch):
        from repro.runtime import stage_graph

        clips = (synthetic_workload(2, num_frames=8, base_seed=31)
                 + synthetic_workload(3, num_frames=5, base_seed=47))
        arrivals = [0.0, 0.0, 0.006, 0.012, 0.018]
        spec = PipelineSpec(network=NETWORK, policy="static", interval=3,
                            pipeline_depth=2, speculate=True)
        spec.warm()
        serial = run_workload(spec, clips, batch=False)

        def _serve():
            clock = _Clock()
            runtime = ServingRuntime(spec, ServerConfig(max_batch=3, clock=clock))
            requests = [
                ClipRequest(request_id=i, clip=clip, arrival_time=t)
                for i, (clip, t) in enumerate(zip(clips, arrivals))
            ]
            return runtime.serve(requests)

        # Sanity: with the real rollback the trace rolls back and matches.
        report = _serve()
        assert report.rollbacks > 0
        assert report.workload_result().matches(serial)

        # Mutant: restore_resource silently does nothing.
        monkeypatch.setattr(
            stage_graph, "restore_resource", lambda *args: None
        )
        mutant = _serve()
        assert mutant.rollbacks > 0  # rollbacks were *attempted*...
        # ...but the missed restore shifts the static policy's interval
        # counter, so the differential check must flag the divergence.
        assert not mutant.workload_result().matches(serial)


class _Clock:
    def __init__(self, tick=0.001):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now
