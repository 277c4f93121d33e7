"""The fixed lifecycle step and its pipelined executor.

:class:`~repro.runtime.stage_graph.StageExecutor` runs the stage
functions of :mod:`repro.core.stages` in one fixed order — head
``rfbme``/``decide``, mid ``adopt_pixels``, tail ``cnn_prefix``/``warp``/
``cnn_suffix``/``record`` — and runs a handed-over next step's head on
a worker thread during this step's tail when one of its rows
estimates.  These tests check the stages' declared write sets
(:func:`write_set.run_checked`), the proof that the head may overlap
the tail, and the executor's contract on real step batches.
"""

import itertools
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.stages import (
    CURSOR_STATE,
    ENGINE_SCRATCH,
    KEY_PIXELS,
    KEY_STATE,
    PLAN_SCRATCH,
    POLICY_STATE,
    LaneSlot,
    LaneState,
    PlanHandle,
    StepBatch,
    _effects,
    stage_adopt_pixels,
    stage_cnn_prefix,
    stage_cnn_suffix,
    stage_decide,
    stage_record,
    stage_rfbme,
    stage_warp,
)
from repro.runtime import (
    BatchedPipeline,
    ClipRequest,
    LaneWorker,
    PipelineContractError,
    PipelineSpec,
    StageExecutor,
    synthetic_workload,
)
from repro.runtime import stage_graph
from write_set import WriteSetViolationError, fingerprint_resource, run_checked

NETWORK = "mini_fasterm"

#: the lifecycle's stage functions, in the executor's fixed order.
LIFECYCLE = (stage_rfbme, stage_decide, stage_adopt_pixels, stage_cnn_prefix,
             stage_warp, stage_cnn_suffix, stage_record)


@pytest.fixture(scope="module")
def spec():
    # A static interval of 2 mixes key and predicted frames, so every
    # stage works.
    spec = PipelineSpec(network=NETWORK, policy="static", interval=2)
    spec.warm()
    return spec


@pytest.fixture(scope="module")
def clips():
    return synthetic_workload(3, num_frames=6, base_seed=4)


def _occupied_batch(spec, clips):
    """A mid-stream batch: clips admitted on consecutive steps.

    One slot stays spare: a full lane would hand its next head to the
    head thread, still deciding on lane state these tests fingerprint.
    """
    worker = LaneWorker("default", spec, capacity=len(clips) + 1)
    for i, clip in enumerate(clips):
        worker.admit(i, ClipRequest(request_id=i, clip=clip), now=0.0)
        worker.step()
    return worker._build_batch(
        [i for i, r in enumerate(worker.residents) if r is not None]
    )


def _lockstep_batches(spec, clips):
    """A fresh lane and its static lockstep step stream, as
    :class:`~repro.runtime.BatchedPipeline` builds them."""
    network = spec.shared_network()
    state = LaneState(
        slots=[LaneSlot(executor=spec.build_executor(network),
                        policy=spec.build_policy()) for _ in clips],
        plan=PlanHandle(network, spec.dtype),
    )
    plan = state.plan.resolve(len(clips))
    positions = list(range(len(clips)))
    return [
        StepBatch(state=state, positions=positions,
                  frames=[clip.frames[t] for clip in clips], plan=plan,
                  cursors=[t] * len(clips))
        for t in range(min(len(clip) for clip in clips))
    ]


def _run_stream(executor, batches, hand_over=True):
    """Step ``batches`` in order, handing each successor over unless
    ``hand_over`` is False (every head then runs inline)."""
    try:
        return [
            executor.step(batch, next_batch=(
                batches[t + 1] if hand_over and t + 1 < len(batches)
                else None
            )).records
            for t, batch in enumerate(batches)
        ]
    finally:
        executor.close()


def _log_stages(monkeypatch, calls):
    """Wrap every stage function the executor calls; each call appends
    ``(name, thread name, start tick, end tick, batch)`` to ``calls``."""
    tick = itertools.count()

    def logged(fn):
        def run(batch, *args):
            start = next(tick)
            result = fn(batch, *args)
            calls.append((fn.__name__, threading.current_thread().name,
                          start, next(tick), batch))
            return result

        return run

    for fn in LIFECYCLE:
        monkeypatch.setattr(stage_graph, fn.__name__, logged(fn))


def _lifecycle(batch, call=run_checked, prefix=stage_cnn_prefix):
    """One step's stages in the fixed order, each through ``call``."""
    estimations = call(stage_rfbme, batch)
    decisions = call(stage_decide, batch, estimations)
    call(stage_adopt_pixels, batch, decisions)
    key_acts = call(prefix, batch, decisions)
    pred_acts = call(stage_warp, batch, decisions, estimations)
    outputs = call(stage_cnn_suffix, batch, decisions, key_acts, pred_acts)
    return call(stage_record, batch, decisions, estimations, outputs)


def _conflicts(a, b) -> bool:
    """The dependence test over declared resources: one stage writes
    something the other reads or writes.  Read-read sharing is free."""
    return bool(a.writes & (b.reads | b.writes) or b.writes & a.reads)


class TestWriteSetEnforcement:
    def test_undeclared_policy_mutation_raises(self, spec, clips):
        batch = _occupied_batch(spec, clips)

        @_effects()
        def rogue(batch):
            batch.slot(0).policy._frames_since_key += 1  # undeclared write
            return "done"

        with pytest.raises(WriteSetViolationError, match="policy_state"):
            run_checked(rogue, batch)

    def test_undeclared_key_state_mutation_raises(self, spec, clips):
        batch = _occupied_batch(spec, clips)

        @_effects()
        def rogue(batch):
            batch.slot(0).executor.reset()  # drops stored key state
            return "done"

        with pytest.raises(WriteSetViolationError, match="key_state"):
            run_checked(rogue, batch)

    def test_declared_mutation_passes(self, spec, clips):
        """A stage whose write set covers its mutation is accepted."""
        batch = _occupied_batch(spec, clips)

        @_effects(writes={POLICY_STATE})
        def declared(batch):
            batch.slot(0).policy._frames_since_key += 1
            return "done"

        assert run_checked(declared, batch) == "done"

    def test_lifecycle_graph_honours_its_declarations(self, spec, clips):
        """The real frame lifecycle runs clean under full enforcement —
        every mutation it performs is one it declared."""
        batch = _occupied_batch(spec, clips)
        assert len(_lifecycle(batch)) == len(batch)

    def test_each_half_of_key_state_has_one_writer(self, spec, clips):
        """adopt_pixels changes key pixels and never the activation;
        cnn_prefix changes the activation and never key pixels."""
        batch = _occupied_batch(spec, clips)
        changed = {}
        seen = {}

        def call(fn, batch, *args):
            before = {resource: fingerprint_resource(batch, resource)
                      for resource in (KEY_PIXELS, KEY_STATE)}
            result = fn(batch, *args)
            seen[fn.__name__] = result
            changed[fn.__name__] = {
                resource
                for resource in (KEY_PIXELS, KEY_STATE)
                if fingerprint_resource(batch, resource) != before[resource]
            }
            return result

        _lifecycle(batch, call=call)
        decisions = seen["stage_decide"]
        assert True in decisions and False in decisions
        assert changed["stage_adopt_pixels"] == {KEY_PIXELS}
        assert changed["stage_cnn_prefix"] == {KEY_STATE}
        assert all(not resources for name, resources in changed.items()
                   if name not in ("stage_adopt_pixels", "stage_cnn_prefix"))

    def test_prefix_storing_pixels_is_caught(self, spec, clips):
        """Enforcement has the power to catch a prefix that writes key
        pixels — the write the overlap of rfbme(t+1) with cnn_prefix(t)
        relies on never happening."""
        batch = _occupied_batch(spec, clips)

        @_effects(reads=stage_cnn_prefix.reads, writes=stage_cnn_prefix.writes)
        def prefix_and_pixels(batch, decisions):
            for k, is_key in enumerate(decisions):
                if is_key:
                    batch.slot(k).executor.adopt_key_pixels(
                        np.zeros_like(batch.frames[k])
                    )
            return stage_cnn_prefix(batch, decisions)

        with pytest.raises(WriteSetViolationError, match="key_pixels"):
            _lifecycle(batch, prefix=prefix_and_pixels)


class TestOverlapSplit:
    def test_planned_lifecycle_split(self, monkeypatch, spec, clips):
        """The paper's overlap, proved on a running pipelined workload:
        exactly rfbme and decide run on the head thread, no head stage
        conflicts with a tail stage, and adopt_pixels — which writes
        the key pixels rfbme reads — finishes before the next head
        starts."""
        calls = []
        _log_stages(monkeypatch, calls)
        result = BatchedPipeline(spec).run_workload(clips)
        assert result.pipelined_steps == result.steps - 1 > 0

        def on_head(thread):
            return thread.startswith("stage-head")

        head = {name for name, thread, *_ in calls if on_head(thread)}
        assert head == {"stage_rfbme", "stage_decide"}

        by_batch = {}
        for call in sorted(calls, key=lambda call: call[2]):
            by_batch.setdefault(id(call[4]), []).append(call)
        steps = list(by_batch.values())  # in step order
        assert len(steps) == result.steps
        driver = ["stage_adopt_pixels", "stage_cnn_prefix", "stage_warp",
                  "stage_cnn_suffix", "stage_record"]
        for previous, step in zip(steps, steps[1:]):
            assert [name for name, thread, *_ in step
                    if not on_head(thread)] == driver
            adopted = next(end for name, _, _, end, _ in previous
                           if name == "stage_adopt_pixels")
            rfbme = next(start for name, _, start, _, _ in step
                         if name == "stage_rfbme")
            assert rfbme > adopted  # the launch waited for adopt_pixels

        stages = {fn.__name__: fn for fn in LIFECYCLE}
        tail = set(driver[1:])
        for h in head:
            for t in tail:
                assert not _conflicts(stages[h], stages[t]), (h, t)
        assert _conflicts(stage_adopt_pixels, stage_rfbme)

    def test_fence_keeps_stage_out_of_head(self, monkeypatch, spec, clips):
        """adopt_pixels fits in the head by its resource sets alone — it
        conflicts with no head or tail stage — yet it runs on the driver
        thread: it writes the key pixels the next head's rfbme reads."""
        tail = (stage_cnn_prefix, stage_warp, stage_cnn_suffix, stage_record)
        for stage in (stage_decide, *tail):
            assert not _conflicts(stage_adopt_pixels, stage), stage.__name__
        assert _conflicts(stage_adopt_pixels, stage_rfbme)

        calls = []
        _log_stages(monkeypatch, calls)
        result = BatchedPipeline(spec).run_workload(clips)
        assert result.pipelined_steps > 0
        driver = threading.current_thread().name
        adopt = [thread for name, thread, *_ in calls
                 if name == "stage_adopt_pixels"]
        assert len(adopt) == result.steps
        assert set(adopt) == {driver}

    def test_effects_default_from_stage_functions(self):
        """Each stage function carries its declared read/write sets."""
        assert stage_rfbme.reads == {KEY_PIXELS}
        assert stage_rfbme.writes == {ENGINE_SCRATCH}
        assert stage_decide.reads == {POLICY_STATE, CURSOR_STATE}
        assert stage_decide.writes == {POLICY_STATE}
        assert stage_adopt_pixels.writes == {KEY_PIXELS}
        assert stage_cnn_prefix.writes == {KEY_STATE, PLAN_SCRATCH}
        assert stage_warp.reads == {KEY_STATE}
        assert stage_warp.writes == frozenset()
        assert stage_cnn_suffix.writes == {PLAN_SCRATCH}
        assert stage_record.writes == frozenset()


class TestStageExecutor:
    def test_next_batch_without_estimating_row_runs_inline(
        self, monkeypatch, spec, clips
    ):
        """A handed-over batch whose policies estimate nothing (the
        always-key baseline) is not launched: its head only decides."""
        calls = []
        _log_stages(monkeypatch, calls)
        batch = _occupied_batch(spec, clips)
        calls.clear()
        executor = StageExecutor()
        always = replace(spec, policy="always")
        batches = _lockstep_batches(always, clips)
        step = executor.step(batch, next_batch=batches[0])  # not launched
        assert len(step.records) == len(batch)
        assert [name for name, *_ in calls] == [fn.__name__ for fn in LIFECYCLE]
        main = threading.current_thread().name
        assert {thread for _, thread, *_ in calls} == {main}
        assert executor._inflight is None and executor._worker is None
        assert (executor.stats.steps, executor.stats.pipelined_steps) == (1, 0)

    def test_pipelined_stream_matches_sequential(self, monkeypatch, spec,
                                                 clips):
        batches = _lockstep_batches(spec, clips)
        sequential = _run_stream(StageExecutor(), batches, hand_over=False)
        calls = []
        _log_stages(monkeypatch, calls)
        executor = StageExecutor()
        batches = _lockstep_batches(spec, clips)
        pipelined = _run_stream(executor, batches)
        for got_step, want_step in zip(pipelined, sequential, strict=True):
            for got, want in zip(got_step, want_step, strict=True):
                assert (got.index, got.is_key) == (want.index, want.is_key)
                np.testing.assert_array_equal(got.output, want.output)
                assert got.estimation_ops == want.estimation_ops
        assert any(r.is_key for step in sequential for r in step)
        assert any(not r.is_key for step in sequential for r in step)
        n = len(batches)
        assert (executor.stats.steps, executor.stats.pipelined_steps) == (
            n, n - 1
        )
        # Per-stage program order is preserved across in-flight steps.
        for fn in LIFECYCLE:
            seen = [batch for name, _, _, _, batch in
                    sorted(calls, key=lambda call: call[2])
                    if name == fn.__name__]
            assert [id(b) for b in seen] == [id(b) for b in batches]

    def test_next_batch_must_be_definite(self, monkeypatch, spec, clips):
        stream = _lockstep_batches(spec, clips)
        other = _occupied_batch(spec, clips)  # another lane, mid-stream
        before = {resource: fingerprint_resource(other, resource)
                  for resource in (POLICY_STATE, KEY_PIXELS)}
        assert all(token is not None for token in before[KEY_PIXELS])
        calls = []
        _log_stages(monkeypatch, calls)
        executor = StageExecutor()
        try:
            executor.step(stream[0], next_batch=stream[1])
            with pytest.raises(PipelineContractError):
                executor.step(other)
        finally:
            executor.close()
        # Nothing ran against the mismatched batch, its lane state is
        # untouched, and the refused step did not count as pipelined.
        assert all(batch is not other for *_, batch in calls)
        assert {resource: fingerprint_resource(other, resource)
                for resource in before} == before
        assert (executor.stats.steps, executor.stats.pipelined_steps) == (2, 0)

    def test_close_allows_reuse(self, spec, clips):
        batches = _lockstep_batches(spec, clips)
        executor = StageExecutor()
        executor.step(batches[0], next_batch=batches[1])
        assert executor._inflight is not None
        executor.close()  # abandons the in-flight head
        assert executor._inflight is None and executor._worker is None
        fresh = _lockstep_batches(spec, clips)
        want = StageExecutor().step(fresh[0]).records
        got = executor.step(_lockstep_batches(spec, clips)[0]).records
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a.output, b.output)
        executor.close()
