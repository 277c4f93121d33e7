"""Stage-graph scheduling and the pipelined executor.

PR 5 promoted :class:`~repro.runtime.stage_graph.StageGraph` from a
validated wiring diagram into a dependency-driven executor: stages are
topologically scheduled from their declared inputs/outputs, validation
failures raise *named* errors, declared read/write sets prove which
stages of consecutive steps may overlap, and
:class:`~repro.runtime.stage_graph.StageExecutor` software-pipelines the
conflict-free head of step ``t+1`` into step ``t``'s tail — bit-identical
to sequential execution by construction.
"""

import numpy as np
import pytest

from repro.core.stages import (
    ENGINE_SCRATCH,
    KEY_PIXELS,
    KEY_STATE,
    PLAN_SCRATCH,
    POLICY_STATE,
    fingerprint_resource,
    stage_cnn_prefix,
)
from repro.runtime import (
    ClipRequest,
    DuplicateOutputError,
    LaneWorker,
    PipelineContractError,
    PipelineSpec,
    Stage,
    StageCycleError,
    StageExecutor,
    StageGraph,
    StageGraphError,
    UndeclaredInputError,
    WriteSetViolationError,
    frame_lifecycle_graph,
    synthetic_workload,
)

NETWORK = "mini_fasterm"


@pytest.fixture(scope="module")
def spec():
    # Depth 1: a pipelined worker would leave its next head in flight,
    # still deciding on lane state these tests fingerprint.
    spec = PipelineSpec(network=NETWORK, policy="static", interval=2,
                        pipeline_depth=1)
    spec.warm()
    return spec


@pytest.fixture(scope="module")
def clips():
    return synthetic_workload(3, num_frames=6, base_seed=4)


def _stage(name, fn, inputs, outputs, reads=(), writes=()):
    return Stage(name, fn, tuple(inputs), tuple(outputs),
                 frozenset(reads), frozenset(writes))


class TestValidationErrors:
    """Each declaration failure mode raises its own named error."""

    def test_cycle_detected(self):
        a = _stage("a", lambda batch, y: 1, ("batch", "y"), ("x",))
        b = _stage("b", lambda batch, x: 2, ("batch", "x"), ("y",))
        with pytest.raises(StageCycleError, match="cycle"):
            StageGraph([a, b])

    def test_self_cycle_detected(self):
        loop = _stage("loop", lambda batch, x: x, ("batch", "x"), ("x",))
        with pytest.raises(StageCycleError):
            StageGraph([loop])

    def test_undeclared_input(self):
        with pytest.raises(UndeclaredInputError, match="consumes"):
            StageGraph(
                [_stage("a", lambda batch, x: x, ("batch", "missing"), ("y",))]
            )

    def test_duplicate_output_producer(self):
        a = _stage("a", lambda batch: 1, ("batch",), ("x",))
        b = _stage("b", lambda batch: 2, ("batch",), ("x",))
        with pytest.raises(DuplicateOutputError, match="redefine"):
            StageGraph([a, b])

    def test_seed_name_cannot_be_produced(self):
        with pytest.raises(DuplicateOutputError):
            StageGraph([_stage("a", lambda batch: 1, ("batch",), ("batch",))])

    def test_all_named_errors_are_value_errors(self):
        for error in (StageCycleError, UndeclaredInputError,
                      DuplicateOutputError, WriteSetViolationError):
            assert issubclass(error, StageGraphError)
            assert issubclass(error, ValueError)


class TestTopologicalSchedule:
    def test_out_of_order_declaration_is_scheduled(self):
        """Declaration order no longer constrains execution order."""
        consume = _stage("consume", lambda batch, x: x + 1, ("batch", "x"),
                         ("y",))
        produce = _stage("produce", lambda batch: 41, ("batch",), ("x",))
        graph = StageGraph([consume, produce])
        assert [stage.name for stage in graph] == ["produce", "consume"]
        assert graph.run(batch=None)["y"] == 42

    def test_declaration_order_breaks_ties(self):
        stages = [
            _stage(name, lambda batch: 1, ("batch",), (f"out_{name}",))
            for name in ("c", "a", "b")
        ]
        graph = StageGraph(stages)
        assert [stage.name for stage in graph] == ["c", "a", "b"]


class TestWriteSetEnforcement:
    def _occupied_batch(self, spec, clips):
        worker = LaneWorker("default", spec, capacity=len(clips))
        for i, clip in enumerate(clips):
            worker.admit(i, ClipRequest(request_id=i, clip=clip), now=0.0)
            worker.step()
        return worker._build_batch(
            [i for i, r in enumerate(worker.residents) if r is not None]
        )

    def test_undeclared_policy_mutation_raises(self, spec, clips):
        batch = self._occupied_batch(spec, clips)

        def rogue(batch):
            batch.slot(0).policy._frames_since_key += 1  # undeclared write
            return "done"

        graph = StageGraph([_stage("rogue", rogue, ("batch",), ("x",))])
        with pytest.raises(WriteSetViolationError, match="policy_state"):
            graph.run(batch, enforce_writes=True)

    def test_undeclared_key_state_mutation_raises(self, spec, clips):
        batch = self._occupied_batch(spec, clips)

        def rogue(batch):
            batch.slot(0).executor.reset()  # drops stored key state
            return "done"

        graph = StageGraph([_stage("rogue", rogue, ("batch",), ("x",))])
        with pytest.raises(WriteSetViolationError, match="key_state"):
            graph.run(batch, enforce_writes=True)

    def test_declared_mutation_passes(self, spec, clips):
        """A stage whose write set covers its mutation is accepted."""
        batch = self._occupied_batch(spec, clips)

        def declared(batch):
            batch.slot(0).policy._frames_since_key += 1
            return "done"

        graph = StageGraph(
            [_stage("declared", declared, ("batch",), ("x",),
                    writes={POLICY_STATE})]
        )
        assert graph.run(batch, enforce_writes=True)["x"] == "done"

    def test_lifecycle_graph_honours_its_declarations(self, spec, clips):
        """The real frame lifecycle runs clean under full enforcement —
        every mutation it performs is one it declared."""
        batch = self._occupied_batch(spec, clips)
        env = frame_lifecycle_graph().run(
            batch, enforce_writes=True
        )
        assert len(env["records"]) == len(batch)

    def test_each_half_of_key_state_has_one_writer(self, spec, clips):
        """adopt_pixels changes key pixels and never the activation;
        cnn_prefix changes the activation and never key pixels."""
        batch = self._occupied_batch(spec, clips)
        env = {"batch": batch}
        changed = {}
        for stage in frame_lifecycle_graph():
            before = {resource: fingerprint_resource(batch, resource)
                      for resource in (KEY_PIXELS, KEY_STATE)}
            result = stage.fn(*[env[name] for name in stage.inputs])
            env[stage.outputs[0]] = result
            changed[stage.name] = {
                resource
                for resource in (KEY_PIXELS, KEY_STATE)
                if fingerprint_resource(batch, resource) != before[resource]
            }
        assert True in env["decisions"] and False in env["decisions"]
        assert changed["adopt_pixels"] == {KEY_PIXELS}
        assert changed["cnn_prefix"] == {KEY_STATE}
        assert all(not resources for name, resources in changed.items()
                   if name not in ("adopt_pixels", "cnn_prefix"))

    def test_prefix_storing_pixels_is_caught(self, spec, clips):
        """Enforcement has the power to catch a prefix that writes key
        pixels — the write the overlap of rfbme(t+1) with cnn_prefix(t)
        relies on never happening."""
        batch = self._occupied_batch(spec, clips)

        def prefix_and_pixels(batch, decisions):
            for k, is_key in enumerate(decisions):
                if is_key:
                    batch.slot(k).executor.adopt_key_pixels(
                        np.zeros_like(batch.frames[k])
                    )
            return stage_cnn_prefix(batch, decisions)

        graph = StageGraph([
            Stage(stage.name, prefix_and_pixels, stage.inputs,
                  stage.outputs, stage.reads, stage.writes)
            if stage.name == "cnn_prefix" else stage
            for stage in frame_lifecycle_graph()
        ])
        with pytest.raises(WriteSetViolationError, match="key_pixels"):
            graph.run(batch, enforce_writes=True)


class TestOverlapSplit:
    def test_planned_lifecycle_split(self):
        """The paper's overlap: RFBME/decide against the whole CNN —
        prefix, warp, suffix, record — fenced only by adopt_pixels (the
        stored key pixels feed the next RFBME)."""
        head, mid, tail = frame_lifecycle_graph().overlap_split()
        assert [stage.name for stage in head] == ["rfbme", "decide"]
        assert [stage.name for stage in mid] == ["adopt_pixels"]
        assert [stage.name for stage in tail] == ["cnn_prefix", "warp",
                                                  "cnn_suffix", "record"]

    def test_fence_keeps_stage_out_of_head(self):
        """adopt_pixels fits in the head by its resource sets alone; its
        fence is what keeps it on the driver thread."""
        graph = frame_lifecycle_graph()
        unfenced = StageGraph([
            Stage(stage.name, stage.fn, stage.inputs, stage.outputs,
                  stage.reads, stage.writes, fence=False)
            for stage in graph
        ])
        head, mid, tail = unfenced.overlap_split()
        assert [stage.name for stage in head] == ["rfbme", "decide",
                                                  "adopt_pixels"]
        assert mid == ()

    def test_conflicting_graph_does_not_pipeline(self):
        """Every stage touching one resource leaves no overlap window."""
        a = _stage("a", lambda batch: 1, ("batch",), ("x",),
                   writes={KEY_STATE})
        b = _stage("b", lambda batch, x: x, ("batch", "x"), ("y",),
                   reads={KEY_STATE}, writes={KEY_STATE})
        graph = StageGraph([a, b])
        head, mid, tail = graph.overlap_split()
        assert head == () and tail == ()
        assert not StageExecutor(graph, pipeline_depth=2).pipelined

    def test_effects_default_from_stage_functions(self):
        """Stages inherit the read/write sets their functions declare."""
        graph = frame_lifecycle_graph()
        by_name = {stage.name: stage for stage in graph}
        assert by_name["rfbme"].reads == {KEY_PIXELS}
        assert by_name["rfbme"].writes == {ENGINE_SCRATCH}
        assert by_name["decide"].writes == {POLICY_STATE}
        assert by_name["adopt_pixels"].writes == {KEY_PIXELS}
        assert by_name["adopt_pixels"].fence
        assert by_name["cnn_prefix"].writes == {KEY_STATE, PLAN_SCRATCH}
        assert by_name["warp"].reads == {KEY_STATE}
        assert by_name["cnn_suffix"].writes == {PLAN_SCRATCH}
        assert by_name["record"].writes == frozenset()


class TestStageExecutor:
    def _toy_graph(self, log):
        """a → b → c over integer 'batches'; a may overlap b/c."""

        def stage_a(batch):
            log.append(("a", batch))
            return batch * 10

        def stage_b(batch, x):
            log.append(("b", batch))
            return x + 1

        def stage_c(batch, y):
            log.append(("c", batch))
            return y * 2

        return StageGraph(
            [
                _stage("a", stage_a, ("batch",), ("x",)),
                _stage("b", stage_b, ("batch", "x"), ("y",)),
                _stage("c", stage_c, ("batch", "y"), ("z",)),
            ]
        )

    def test_depth_one_is_sequential(self):
        log = []
        executor = StageExecutor(self._toy_graph(log), pipeline_depth=1)
        assert not executor.pipelined
        env = executor.step(3)
        assert env["z"] == 62
        assert log == [("a", 3), ("b", 3), ("c", 3)]

    def test_pipelined_stream_matches_sequential(self):
        batches = list(range(1, 7))
        sequential = [
            StageExecutor(self._toy_graph([]), 1).step(batch)["z"]
            for batch in batches
        ]
        log = []
        executor = StageExecutor(self._toy_graph(log), pipeline_depth=2)
        assert executor.pipelined
        pipelined = []
        try:
            for t, batch in enumerate(batches):
                next_batch = batches[t + 1] if t + 1 < len(batches) else None
                pipelined.append(
                    executor.step(batch, next_batch=next_batch)["z"]
                )
        finally:
            executor.close()
        assert pipelined == sequential
        assert (executor.stats.steps, executor.stats.pipelined_steps) == (6, 5)
        assert executor.stats.engagement == pytest.approx(5 / 6)
        # Per-stage program order is preserved across in-flight contexts.
        for name in "abc":
            seen = [batch for stage, batch in log if stage == name]
            assert seen == batches

    def test_next_batch_must_be_definite(self):
        log = []
        executor = StageExecutor(self._toy_graph(log), pipeline_depth=2)
        try:
            executor.step(1, next_batch=2)
            with pytest.raises(PipelineContractError):
                executor.step(99)
        finally:
            executor.close()
        # Nothing ran against the mismatched batch, and the refused step
        # did not count as pipelined.
        assert all(batch != 99 for _, batch in log)
        assert (executor.stats.steps, executor.stats.pipelined_steps) == (2, 0)

    def test_close_allows_reuse(self):
        executor = StageExecutor(self._toy_graph([]), pipeline_depth=2)
        executor.step(1, next_batch=2)
        executor.close()  # abandons the in-flight head
        assert executor.step(5)["z"] == 102
        executor.close()

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError, match="pipeline_depth"):
            StageExecutor(self._toy_graph([]), pipeline_depth=0)

    def test_seed_skips_stages_in_executor(self):
        log = []
        executor = StageExecutor(self._toy_graph(log), pipeline_depth=1)
        env = executor.step(3, seed={"x": 100})
        assert env["z"] == 202
        assert ("a", 3) not in log

    def test_seed_merges_into_pipelined_step(self):
        """Seeds for non-head values are honoured even when the step's
        head was computed in flight; seeds for head outputs arrive too
        late and are refused rather than silently dropped."""
        executor = StageExecutor(self._toy_graph([]), pipeline_depth=2)
        try:
            executor.step(1, next_batch=2)
            env = executor.step(2, seed={"y": 500})  # 'b' is skipped
            assert env["z"] == 1000
        finally:
            executor.close()

        executor = StageExecutor(self._toy_graph([]), pipeline_depth=2)
        try:
            executor.step(1, next_batch=2)
            with pytest.raises(PipelineContractError, match="already"):
                executor.step(2, seed={"x": 7})  # head output 'x'
        finally:
            executor.close()
