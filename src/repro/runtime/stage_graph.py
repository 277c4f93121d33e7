"""Declared stage graphs over the frame lifecycle — and their executor.

:class:`StageGraph` turns the lockstep step from an inlined call
sequence into a *schedulable object*: named :class:`Stage`\\ s with typed
dataflow inputs/outputs **and** declared :class:`~repro.core.stages`
resource read/write sets, topologically scheduled from their
declarations (declaration order only breaks ties), validated at
construction, and executed over a shared value environment.  The stage
bodies are the pure functions of :mod:`repro.core.stages`; this module
declares how they wire together and *when* they run.

One graph, :func:`frame_lifecycle_graph`, covers the lifecycle:
``rfbme → decide → adopt_pixels → cnn_prefix → warp → cnn_suffix →
record``.  Key frames store their pixels, the key-frame branch runs the
batched CNN prefix, the predicted branch warps stored activations, and
one suffix call covers both (the whole-batch lifecycle).

Validation raises *named* errors so callers can tell failure modes
apart: :class:`UndeclaredInputError` (an input no stage produces),
:class:`DuplicateOutputError` (two producers for one value),
:class:`StageCycleError` (no topological order exists), and — at run
time, opt-in — :class:`WriteSetViolationError` (a stage mutated lane
state it never declared).

**Pipelining.**  :class:`StageExecutor` runs a graph step after step.
At ``pipeline_depth=1`` that is plain sequential execution.  At depth 2
it keeps *two in-flight step contexts*: the graph's declared resource
sets prove which prefix of step ``t+1`` conflicts with which suffix of
step ``t`` (:meth:`StageGraph.overlap_split`), and the executor
software-pipelines the conflict-free head — ``rfbme``/``decide`` on the
lifecycle graph — into step ``t``'s tail window
(``cnn_prefix``/``warp``/``cnn_suffix``/``record``), on a worker
thread.  Only ``rfbme`` touches the lane's RFBME engine and at most one
head is in flight, and each context carries its own cursor snapshot, so
the overlapped steps touch disjoint state and every output stays
**bit-identical** to sequential execution.

Every handoff is *definite*: the ``next_batch`` a step pipelines IS the
batch of the following step.  ``decide`` mutates policy state, so the
head's effects are permanent, and a following step that submits any
other batch raises :class:`PipelineContractError` before running
anything against it.  The lockstep driver's step stream is static, and
a serving worker hands a batch over only at provably stable membership
(full lane, no departure due).  :class:`PipelineStats` counts steps and
engaged overlaps per executor.

Seeding: :meth:`StageGraph.run` accepts precomputed values; a stage
whose outputs are all seeded is skipped.  That is how a caller that
already ran RFBME seeds its ``estimations`` and reuses the rest of the
graph.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import stages as _stages
from ..core.stages import CHECKED_RESOURCES, StepBatch, fingerprint_resource
from .blas import limit_openblas_threads

__all__ = [
    "Stage",
    "StageGraph",
    "StageExecutor",
    "frame_lifecycle_graph",
    "StageGraphError",
    "StageCycleError",
    "UndeclaredInputError",
    "DuplicateOutputError",
    "WriteSetViolationError",
    "PipelineContractError",
    "PipelineStats",
]

#: the seed value every graph starts from (the step's working set).
_SEED = "batch"


class StageGraphError(ValueError):
    """Base class for stage-graph declaration and execution errors."""


class UndeclaredInputError(StageGraphError):
    """A stage consumes a value that no stage produces (and no seed supplies)."""


class DuplicateOutputError(StageGraphError):
    """Two stages declare the same output value."""


class StageCycleError(StageGraphError):
    """The declared dataflow has no topological order."""


class WriteSetViolationError(StageGraphError):
    """A stage mutated a lane-state resource outside its declared write set."""


class PipelineContractError(RuntimeError):
    """A pipelined next-batch handoff broke the executor's contract.

    The batch submitted to the step after a pipelined one must be the
    exact ``next_batch`` object that was handed over: the head's effects
    (``decide`` mutates policy state) are permanent, so the executor
    stops before running anything against a mismatched batch.  Also
    raised when a seed supplies a value the in-flight head already
    computed.
    """


@dataclass
class PipelineStats:
    """What one :class:`StageExecutor` did with its overlap window.

    ``steps`` counts every :meth:`StageExecutor.step` call;
    ``pipelined_steps`` the steps that consumed an in-flight head — the
    engaged overlaps.
    """

    steps: int = 0
    pipelined_steps: int = 0

    def merge(self, other: "PipelineStats") -> None:
        self.steps += other.steps
        self.pipelined_steps += other.pipelined_steps

    @property
    def engagement(self) -> float:
        """Fraction of steps that ran with their head precomputed."""
        return self.pipelined_steps / self.steps if self.steps else 0.0


@dataclass(frozen=True)
class Stage:
    """One declared stage: a pure function with named inputs/outputs.

    ``reads``/``writes``/``fence`` are the stage's declared
    :class:`~repro.core.stages` resource sets and head fence — defaulted
    from the attributes its function was declared with (see
    ``core.stages._effects``), empty/False otherwise.  Dataflow names
    order stages within a step; the resource sets prove which stages of
    *consecutive* steps may overlap.
    """

    name: str
    fn: Callable
    #: environment names passed positionally to ``fn``.
    inputs: Tuple[str, ...]
    #: environment names bound to ``fn``'s return value (one name binds
    #: the value itself; several unpack it).
    outputs: Tuple[str, ...]
    #: lane-state resources read / written (conflict analysis).
    reads: frozenset = field(default=None)
    writes: frozenset = field(default=None)
    #: keep the stage out of the pipelined head even where the resource
    #: sets would allow it (see :meth:`StageGraph.overlap_split`).
    fence: bool = field(default=None)

    def __post_init__(self):
        if not self.outputs:
            raise StageGraphError(f"stage {self.name!r} declares no outputs")
        if self.fence is None:
            object.__setattr__(
                self, "fence", bool(getattr(self.fn, "fence", False))
            )
        if self.reads is None:
            object.__setattr__(
                self, "reads", frozenset(getattr(self.fn, "reads", ()))
            )
        if self.writes is None:
            object.__setattr__(
                self, "writes", frozenset(getattr(self.fn, "writes", ()))
            )

    def conflicts_with(self, other: "Stage") -> bool:
        """Whether this stage and ``other`` may NOT be reordered/overlapped.

        The classic dependence test over declared resources: a conflict
        exists iff one stage writes something the other reads or writes.
        Read-read sharing is free.
        """
        return bool(
            self.writes & (other.reads | other.writes)
            or other.writes & self.reads
        )


class StageGraph:
    """A validated, topologically scheduled set of stages.

    Stages may be declared in any order; construction builds the
    dataflow schedule from their inputs/outputs (Kahn's algorithm,
    declaration order breaking ties, so an already-ordered declaration
    executes exactly as written).  Validation names its failure modes:
    every input must be the ``batch`` seed or some stage's output
    (:class:`UndeclaredInputError`), no two stages may produce the same
    value (:class:`DuplicateOutputError`), and the dependency relation
    must be acyclic (:class:`StageCycleError`) — the properties that
    make the graph safe to reschedule.
    """

    def __init__(self, graph_stages: Sequence[Stage]):
        declared = tuple(graph_stages)
        producers: Dict[str, Stage] = {}
        for stage in declared:
            for name in stage.outputs:
                if name == _SEED or name in producers:
                    raise DuplicateOutputError(
                        f"stage {stage.name!r} would redefine {[name]}"
                    )
                producers[name] = stage
        for stage in declared:
            missing = [
                name
                for name in stage.inputs
                if name != _SEED and name not in producers
            ]
            if missing:
                raise UndeclaredInputError(
                    f"stage {stage.name!r} consumes {missing} which no "
                    f"stage produces (producible: "
                    f"{sorted(producers) + [_SEED]})"
                )
        # Kahn's algorithm, stable on declaration order.
        schedule: List[Stage] = []
        available = {_SEED}
        remaining = list(declared)
        while remaining:
            ready = next(
                (
                    stage
                    for stage in remaining
                    if all(name in available for name in stage.inputs)
                ),
                None,
            )
            if ready is None:
                cycle = [stage.name for stage in remaining]
                raise StageCycleError(
                    f"stages {cycle} form a dependency cycle: none of "
                    f"their input sets is satisfiable"
                )
            remaining.remove(ready)
            available.update(ready.outputs)
            schedule.append(ready)
        self.stages: Tuple[Stage, ...] = tuple(schedule)
        self.produces = frozenset(available - {_SEED})
        self._overlap_split: Optional[Tuple[Tuple[Stage, ...], ...]] = None

    def __iter__(self):
        return iter(self.stages)

    # ------------------------------------------------------------------ #
    def _run_stages(
        self,
        stages: Sequence[Stage],
        env: Dict[str, object],
        enforce_writes: bool = False,
    ) -> None:
        """Execute ``stages`` over ``env``, skipping fully seeded ones."""
        for stage in stages:
            if all(name in env for name in stage.outputs):
                continue
            if enforce_writes:
                batch = env.get(_SEED)
                guarded = [
                    resource
                    for resource in CHECKED_RESOURCES
                    if resource not in stage.writes
                ]
                before = {
                    resource: fingerprint_resource(batch, resource)
                    for resource in guarded
                }
            result = stage.fn(*[env[name] for name in stage.inputs])
            if enforce_writes:
                for resource in guarded:
                    if fingerprint_resource(batch, resource) != before[resource]:
                        raise WriteSetViolationError(
                            f"stage {stage.name!r} mutated resource "
                            f"{resource!r} outside its declared write set "
                            f"{sorted(stage.writes)}"
                        )
            if len(stage.outputs) == 1:
                env[stage.outputs[0]] = result
            else:
                env.update(zip(stage.outputs, result))

    def run(
        self,
        batch: StepBatch,
        seed: Optional[Mapping[str, object]] = None,
        enforce_writes: bool = False,
    ) -> Dict[str, object]:
        """Execute the graph for one step; returns the full environment.

        ``seed`` supplies precomputed values; stages whose outputs are
        all present (seeded) are skipped, which keeps re-running work the
        caller already did impossible by construction.
        ``enforce_writes`` fingerprints the checked lane-state resources
        around every stage and raises :class:`WriteSetViolationError` on
        an undeclared mutation — a debugging/testing mode, off on hot
        paths.
        """
        env: Dict[str, object] = {_SEED: batch}
        if seed:
            env.update(seed)
        self._run_stages(self.stages, env, enforce_writes=enforce_writes)
        return env

    # ------------------------------------------------------------------ #
    def overlap_split(self) -> Tuple[Tuple[Stage, ...], ...]:
        """``(head, mid, tail)``: the graph's software-pipeline shape.

        ``head`` is a prefix of the schedule, ``tail`` a suffix, chosen
        so that no head stage conflicts (declared resources) with any
        tail stage — which is exactly the proof that step ``t+1``'s head
        may run while step ``t``'s tail is still in flight.  ``mid`` is
        whatever sits between: it must finish in step ``t`` before the
        next head starts (on the lifecycle graph that is ``adopt_pixels``,
        whose stored key pixels the next ``rfbme`` reads).  Among valid
        splits the largest tail wins (it is the overlap window), then
        the largest head; an empty head or tail means the graph cannot
        pipeline.  The head never reaches a ``fence`` stage: the lifecycle
        graph fences ``adopt_pixels``, which would fit in the head by
        its resource sets alone, so that it runs on the driver thread
        rather than on the head thread.  Memoised on the instance
        (geometry never changes).
        """
        if self._overlap_split is not None:
            return self._overlap_split
        schedule = self.stages
        n = len(schedule)
        head_limit = next(
            (i for i, stage in enumerate(schedule) if stage.fence), n - 1
        )
        best = (0, 0, 0)  # (tail_len, head_len, tail_start)
        for head_len in range(1, head_limit + 1):
            head = schedule[:head_len]
            tail_start = n
            for index in range(n - 1, head_len - 1, -1):
                if any(h.conflicts_with(schedule[index]) for h in head):
                    break
                tail_start = index
            tail_len = n - tail_start
            if (tail_len, head_len) > best[:2]:
                best = (tail_len, head_len, tail_start)
        tail_len, head_len, tail_start = best
        if tail_len == 0:
            self._overlap_split = ((), tuple(schedule), ())
        else:
            self._overlap_split = (
                tuple(schedule[:head_len]),
                tuple(schedule[head_len:tail_start]),
                tuple(schedule[tail_start:]),
            )
        return self._overlap_split


class StageExecutor:
    """Dependency-driven step executor over one :class:`StageGraph`.

    ``pipeline_depth=1`` (default) runs each step's full schedule
    sequentially.  ``pipeline_depth>=2`` keeps two in-flight step
    contexts: when :meth:`step` is handed the *definite* next batch, the
    graph's conflict-free head of step ``t+1`` is launched on a worker
    thread while step ``t``'s tail runs on the caller's thread — RFBME
    (a GIL-releasing compiled call on the hot backends) genuinely
    overlaps the CNN stages.  Everything the two contexts touch is
    disjoint by the declared read/write sets, and the RFBME engine is
    used by the head alone, one head at a time, so results are
    bit-identical to sequential execution.

    The first time any executor starts its head thread, the process's
    OpenBLAS pools drop to one thread each
    (:func:`~repro.runtime.blas.limit_openblas_threads`): OpenBLAS's
    helper thread spin-waits between GEMMs and would take the core the
    head thread needs.

    One executor serves one lane/driver at a time; it is not itself
    thread-safe (the worker thread is an implementation detail).
    """

    def __init__(self, graph: StageGraph, pipeline_depth: int = 1):
        if pipeline_depth < 1:
            raise ValueError(
                f"pipeline_depth must be >= 1, got {pipeline_depth}"
            )
        self.graph = graph
        self.pipeline_depth = int(pipeline_depth)
        if self.pipeline_depth > 1:
            head, mid, tail = graph.overlap_split()
        else:
            head, mid, tail = (), graph.stages, ()
        self.head = head
        self.mid = mid
        self.tail = tail
        # The coalescing barrier: a serve round may pause between a
        # step's key decisions and its CNN stages so a shared
        # PrefixService can fuse coincident key frames across lanes
        # (see begin_step/finish_step).  Everything before the barrier
        # runs in phase 1, everything from it onward in phase 2.  A
        # pipelined executor puts it at the end of mid, where the next
        # head launches (on the lifecycle graph cnn_prefix opens the
        # tail); a sequential one right before ``cnn_prefix``, if any.
        barrier = len(self.mid) if self.pipelined else next(
            (i for i, stage in enumerate(self.mid)
             if stage.name == "cnn_prefix"),
            len(self.mid),
        )
        self._mid_pre = tuple(self.mid[:barrier])
        self._mid_post = tuple(self.mid[barrier:])
        #: (batch, future) of the in-flight head.
        self._inflight: Optional[Tuple[StepBatch, object]] = None
        self._worker: Optional[ThreadPoolExecutor] = None
        #: per-executor pipelining counters.
        self.stats = PipelineStats()

    @property
    def pipelined(self) -> bool:
        """Whether this executor can overlap consecutive steps at all."""
        return bool(self.head) and bool(self.tail)

    def reset_stats(self) -> None:
        """Start a fresh :class:`PipelineStats` window (per serve)."""
        self.stats = PipelineStats()

    # ------------------------------------------------------------------ #
    def _run_head(self, env: Dict[str, object]) -> Dict[str, object]:
        self.graph._run_stages(self.head, env)
        return env

    def _launch_head(self, next_batch: StepBatch) -> None:
        env: Dict[str, object] = {_SEED: next_batch}
        if self._worker is None:
            limit_openblas_threads()
            self._worker = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="stage-head"
            )
        future = self._worker.submit(self._run_head, env)
        self._inflight = (next_batch, future)

    def _join(
        self, batch: StepBatch, seed: Optional[Mapping[str, object]]
    ) -> Dict[str, object]:
        """The step's environment with head stages complete."""
        if self._inflight is None:
            env: Dict[str, object] = {_SEED: batch}
            if seed:
                env.update(seed)
            self.graph._run_stages(self.head, env)
            return env
        expected, future = self._inflight
        self._inflight = None
        env = future.result()  # a head failure surfaces first
        if expected is not batch:
            raise PipelineContractError(
                "the batch submitted to step() is not the next_batch "
                "the previous step pipelined; a handoff must be honoured "
                "(the head's effects are permanent)"
            )
        self.stats.pipelined_steps += 1
        if seed:
            # Head outputs were already computed in flight — a seed for
            # them arrives too late to honour, and silently preferring
            # either value would hide the conflict.
            head_outputs = {
                name for stage in self.head for name in stage.outputs
            }
            clashes = sorted(set(seed) & head_outputs)
            if clashes:
                raise PipelineContractError(
                    f"seed supplies {clashes}, which the pipelined head "
                    f"already computed; seed head-stage outputs only on "
                    f"steps that were not pipelined into"
                )
            env.update(seed)
        return env

    def step(
        self,
        batch: StepBatch,
        next_batch: Optional[StepBatch] = None,
        seed: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        """Execute one full step; optionally pipeline into the next.

        ``next_batch`` — when given and the graph pipelines — launches
        the next step's head stages as soon as this step's ``mid`` has
        run, overlapped with this step's tail.  The handoff is
        definite: it MUST be the exact batch of the following
        :meth:`step` call, because the head's effects (policy state
        advanced by ``decide``) are applied permanently.  Pass
        ``next_batch=None`` when the next step is not certain.
        """
        env = self.begin_step(batch, seed, next_batch)
        return self.finish_step(env)

    def begin_step(
        self,
        batch: StepBatch,
        seed: Optional[Mapping[str, object]] = None,
        next_batch: Optional[StepBatch] = None,
    ) -> Dict[str, object]:
        """Phase 1 of a two-phase step: everything up to the coalescing
        barrier.

        Joins (or runs inline) the head stages and the pre-barrier slice
        of ``mid``, so on the lifecycle graph the returned env already
        holds this step's final ``decisions``.  ``next_batch`` is
        :meth:`step`'s handoff: a pipelined executor launches the next
        head here, right after ``mid``.  A serve round may
        ``begin_step`` every lane, hand their key-frame requests to a
        shared :class:`~repro.runtime.prefix_service.PrefixService`,
        flush it once — overlapped with the lanes' next heads — and only
        then :meth:`finish_step` each lane.  :meth:`step` is exactly
        ``begin_step`` + ``finish_step``, so the two-phase round is
        bit-identical to sequential stepping.
        """
        self.stats.steps += 1
        env = self._join(batch, seed)
        self.graph._run_stages(self._mid_pre, env)
        if next_batch is not None and self.pipelined:
            self._launch_head(next_batch)
        return env

    def finish_step(self, env: Dict[str, object]) -> Dict[str, object]:
        """Phase 2 of a two-phase step: the barrier onward.

        Runs what is left of ``mid`` and the tail — the CNN stages are
        in one or the other (``cnn_prefix`` consults the batch's prefix
        service, if any, for rows staged by the round's flush).
        """
        self.graph._run_stages(self._mid_post, env)
        self.graph._run_stages(self.tail, env)
        return env

    def close(self) -> None:
        """Join any in-flight head and release the worker thread.

        The executor remains usable afterwards (the worker is rebuilt on
        the next pipelined launch); callers that pipelined to a batch
        they will never submit must close to avoid leaking the thread.
        """
        if self._inflight is not None:
            _, future = self._inflight
            self._inflight = None
            try:
                future.result()
            except Exception:
                pass  # the step that owned this head was abandoned
        if self._worker is not None:
            self._worker.shutdown(wait=True)
            self._worker = None


@functools.lru_cache(maxsize=None)
def frame_lifecycle_graph() -> StageGraph:
    """The EVA2 frame lifecycle as a stage graph.

    Whole-batch CNN execution: one prefix call for coincident key
    frames, one warp batch, one suffix call.  The graph is a stateless
    declaration, so it is built once and shared by every caller
    (lockstep and serving run the same object).
    """
    return StageGraph([
        Stage("rfbme", _stages.stage_rfbme, ("batch",), ("estimations",)),
        Stage("decide", _stages.stage_decide, ("batch", "estimations"),
              ("decisions",)),
        Stage("adopt_pixels", _stages.stage_adopt_pixels,
              ("batch", "decisions"), ("key_positions",)),
        Stage("cnn_prefix", _stages.stage_cnn_prefix,
              ("batch", "decisions"), ("key_acts",)),
        Stage("warp", _stages.stage_warp,
              ("batch", "decisions", "estimations"), ("pred_acts",)),
        Stage("cnn_suffix", _stages.stage_cnn_suffix,
              ("batch", "decisions", "key_acts", "pred_acts"), ("outputs",)),
        Stage("record", _stages.stage_record,
              ("batch", "decisions", "estimations", "outputs"), ("records",)),
    ])
