"""Stage seam tests.

The lockstep step used to be one monolithic function; it is now a
fixed sequence of pure stage functions over a picklable
:class:`~repro.core.stages.LaneState`, run by
:class:`~repro.runtime.StageExecutor`.  Two seams must hold for that
refactor to be safe:

* each stage, invoked standalone on a lane state, reproduces the
  corresponding slice of the monolithic step bit for bit (same
  estimations, decisions, activations, outputs, records, and the same
  post-step executor state);
* lane state round-trips through pickle with identity preserved — a
  shipped-to-a-worker lane continues exactly where the original would.
"""

import pickle

import numpy as np
import pytest

from repro.core.stages import (
    LaneState,
    StepBatch,
    stage_adopt_pixels,
    stage_cnn_prefix,
    stage_cnn_suffix,
    stage_decide,
    stage_record,
    stage_rfbme,
    stage_warp,
)
from repro.runtime import (
    ClipRequest,
    LaneWorker,
    PipelineSpec,
    StageExecutor,
    synthetic_workload,
)
from repro.runtime import stage_graph

NETWORK = "mini_fasterm"


@pytest.fixture(scope="module")
def spec():
    # A static interval makes the key/pred mix at any step a pure
    # function of the staggered cursors below — deterministically mixed.
    spec = PipelineSpec(network=NETWORK, policy="static", interval=2)
    spec.warm()
    return spec


@pytest.fixture(scope="module")
def clips():
    return synthetic_workload(4, num_frames=8, base_seed=9)


def _mid_stream_worker(spec, clips) -> LaneWorker:
    """A lane mid-flight: clips admitted on consecutive steps.

    After the warm-up the four slots sit at cursors 4, 3, 2, 1 — so with
    a static interval of 2 the next step mixes key and predicted
    decisions across slots, exercising every stage at once.  One slot
    stays spare: a full lane would hand its next head to the head
    thread, still deciding on lane state these tests inspect and clone.
    """
    worker = LaneWorker("default", spec, capacity=len(clips) + 1)
    for i, clip in enumerate(clips):
        worker.admit(i, ClipRequest(request_id=i, clip=clip), now=0.0)
        worker.step()
    return worker


def _clone(state: LaneState) -> LaneState:
    """Pickle round-trip — the clone mechanism sharded serving uses."""
    return pickle.loads(pickle.dumps(state))


def _next_batch(state: LaneState, clips) -> StepBatch:
    positions = state.occupied()
    return StepBatch(
        state=state,
        positions=positions,
        frames=[clips[i].frames[state.slots[i].cursor] for i in positions],
        plan=state.plan.resolve(len(positions)),
    )


def _assert_estimations_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        np.testing.assert_array_equal(a.field.data, b.field.data)
        assert a.total_match_error == b.total_match_error
        assert a.ops == b.ops


class TestStageSlices:
    """Each stage standalone == its slice of the monolithic step."""

    def test_stages_reproduce_monolithic_step(self, spec, clips):
        worker = _mid_stream_worker(spec, clips)
        cursors = [worker.state.slots[i].cursor
                   for i in worker.state.occupied()]
        assert cursors == [4, 3, 2, 1]  # staggered → mixed decisions

        mono_state = _clone(worker.state)
        stage_state = _clone(worker.state)

        # Monolithic reference: the whole step in one executor call.
        mono_batch = _next_batch(mono_state, clips)
        mono_step = StageExecutor().step(mono_batch)
        mono_est, mono_records = mono_step.estimations, mono_step.records

        # Stage-by-stage on an independent clone.
        batch = _next_batch(stage_state, clips)
        estimations = stage_rfbme(batch)
        _assert_estimations_equal(estimations, mono_est)

        decisions = stage_decide(batch, estimations)
        assert decisions == [r.is_key for r in mono_records]
        assert True in decisions and False in decisions  # genuinely mixed

        keys = stage_adopt_pixels(batch, decisions)
        assert keys == [k for k, is_key in enumerate(decisions) if is_key]
        key_acts = stage_cnn_prefix(batch, decisions)
        pred_acts = stage_warp(batch, decisions, estimations)
        assert key_acts is not None and pred_acts is not None
        outputs = stage_cnn_suffix(batch, decisions, key_acts, pred_acts)
        records = stage_record(batch, decisions, estimations, outputs)

        for got, want in zip(records, mono_records):
            assert got.index == want.index
            assert got.is_key == want.is_key
            np.testing.assert_array_equal(got.output, want.output)
            assert got.estimation_ops == want.estimation_ops
            assert got.match_error == want.match_error

        # Post-step executor state matches too: key slots adopted the
        # same pixels/activations in both shapes.
        for k in range(len(batch)):
            if not decisions[k]:
                continue
            np.testing.assert_array_equal(
                batch.slot(k).executor.stored_pixels(),
                mono_batch.slot(k).executor.stored_pixels(),
            )
            np.testing.assert_array_equal(
                batch.slot(k).executor.key_activation,
                mono_batch.slot(k).executor.key_activation,
            )

    def test_prefix_and_warp_are_optional_stages(self, spec, clips):
        """All-key and all-pred steps skip the other branch cleanly."""
        worker = _mid_stream_worker(spec, clips)
        state = _clone(worker.state)
        batch = _next_batch(state, clips)
        estimations = stage_rfbme(batch)
        assert stage_cnn_prefix(batch, [False] * len(batch)) is None
        assert stage_warp(batch, [True] * len(batch), estimations) is None


class TestLaneStatePickle:
    def test_round_trip_preserves_identity(self, spec, clips):
        """Continuing a pickled lane equals continuing the original."""
        worker = _mid_stream_worker(spec, clips)
        original = worker.state
        restored = _clone(original)

        executor = StageExecutor()
        for _ in range(3):
            batches = [_next_batch(s, clips) for s in (original, restored)]
            steps = [executor.step(b) for b in batches]
            for got, want in zip(steps[1].records, steps[0].records):
                assert got.is_key == want.is_key
                np.testing.assert_array_equal(got.output, want.output)
                assert got.estimation_ops == want.estimation_ops
            for state in (original, restored):
                for i in state.occupied():
                    state.slots[i].cursor += 1

    def test_round_trip_drops_heavy_state_and_shares_network(self, spec, clips):
        worker = _mid_stream_worker(spec, clips)
        restored = _clone(worker.state)
        # Engines and compiled plans are rebuilt lazily, never pickled.
        assert all(
            slot.executor._engine is None for slot in restored.slots
        )
        networks = {id(slot.executor.network) for slot in restored.slots}
        assert len(networks) == 1  # one shared network, not N copies
        assert id(restored.plan.network) in networks
        assert restored.plan.network._plans == {}
        # The restored plan handle resolves and serves.
        assert restored.plan.resolve(2).max_batch >= 2

    def test_cursors_and_stored_keys_survive(self, spec, clips):
        worker = _mid_stream_worker(spec, clips)
        restored = _clone(worker.state)
        for i in worker.state.occupied():
            got, want = restored.slots[i], worker.state.slots[i]
            assert got.cursor == want.cursor
            np.testing.assert_array_equal(
                got.executor.stored_pixels(), want.executor.stored_pixels()
            )


class TestStageGraphValidation:
    def test_declaration_order_is_execution_order(self, spec, clips,
                                                  monkeypatch):
        """A step runs the stage functions in the lifecycle's one fixed
        order, each exactly once."""
        worker = _mid_stream_worker(spec, clips)
        batch = _next_batch(_clone(worker.state), clips)
        order = []
        for fn in (stage_rfbme, stage_decide, stage_adopt_pixels,
                   stage_cnn_prefix, stage_warp, stage_cnn_suffix,
                   stage_record):
            monkeypatch.setattr(
                stage_graph, fn.__name__,
                lambda *args, fn=fn: order.append(fn.__name__) or fn(*args),
            )
        StageExecutor().step(batch)
        assert order == [
            "stage_rfbme", "stage_decide", "stage_adopt_pixels",
            "stage_cnn_prefix", "stage_warp", "stage_cnn_suffix",
            "stage_record",
        ]
