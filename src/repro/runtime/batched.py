"""Lockstep multi-clip execution and workload-level results.

:class:`BatchedPipeline` advances every clip of a workload one frame at a
time, in lockstep, collapsing per-clip work into whole-batch calls at
every stage of the frame lifecycle:

* **RFBME** — the motion estimations of all ready clips run as one
  :meth:`~repro.core.rfbme.RFBMEEngine.estimate_batch` call (one compiled
  producer pass over the stacked pairs, one vectorized consumer).
* **Key frames** — clips whose policy chose precise execution run the
  CNN prefix as one batched
  :class:`~repro.nn.inference.InferencePlan` call instead of B
  batch-of-1 forwards.
* **Predicted frames** — stored activations are stacked and warped by
  one :func:`~repro.core.warp.warp_activation_batch` call (cached
  coordinate grids, four gathers for the whole batch).
* **Suffix** — the per-frame CNN tail runs once over the concatenated
  key and predicted activations.

Each step runs the lifecycle's stage functions in their fixed order
through a :class:`~repro.runtime.stage_graph.StageExecutor` over a
:class:`~repro.core.stages.LaneState` — the same step the serving
workers run.  Key-frame decisions stay per clip, and every batched
stage is bitwise equal to its per-clip form (the inference plan keeps
BLAS calls at serial shapes unless fusing is proven bit-identical on
the host), so a lockstep run reproduces the serial
:meth:`~repro.core.EVA2Pipeline.run_clips` results exactly: same
outputs, same key-frame decisions, same op counts.  Executor
construction, policy setup, and all workspace allocation happen once per
workload instead of per clip (or per frame).

:class:`WorkloadResult` aggregates the per-clip
:class:`~repro.core.pipeline.PipelineResult` records with the throughput
statistics (frames/sec, key fraction, total adder ops) that the CLI and
the runtime benchmarks report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.pipeline import FrameRecord, PipelineResult
from ..core.stages import LaneSlot, LaneState, PlanHandle, StepBatch
from ..hardware.fixed_point import QuantSavings
from ..nn.inference import quantized_savings, resolve_plan_dtype
from ..video.generator import VideoClip
from .prefix_service import PrefixService
from .spec import PipelineSpec
from .stage_graph import StageExecutor

__all__ = [
    "WorkloadResult",
    "BatchedPipeline",
    "run_workload",
]


@dataclass
class WorkloadResult:
    """All per-clip results of one workload plus throughput accounting."""

    results: List[PipelineResult]
    #: wall-clock seconds spent executing (excludes clip generation).
    wall_seconds: float
    #: which execution path produced this ("serial", "lockstep", ...).
    path: str
    #: lifecycle steps executed (0 for paths without a step executor).
    steps: int = 0
    #: steps whose head was precomputed by the pipelined executor.
    pipelined_steps: int = 0
    #: prefix executions that fused requests from more than one lane.
    prefix_fused_batches: int = 0
    #: content-addressed prefix cache hits (0 when the cache is off).
    prefix_cache_hits: int = 0
    #: prefix cache misses (counted only when a cache is configured).
    prefix_cache_misses: int = 0
    #: entries evicted from the prefix cache by the LRU bound.
    prefix_cache_evictions: int = 0
    #: prefix MACs skipped by cache hits (hardware-model accounting).
    prefix_saved_macs: int = 0
    #: plan family the CNN ran under ("float64", "float32", "int8", "q16").
    dtype: str = "float64"
    #: estimated MAC-energy / traffic savings for quantized dtypes.
    quant_savings: Optional[QuantSavings] = None

    @property
    def num_clips(self) -> int:
        return len(self.results)

    @property
    def total_frames(self) -> int:
        return sum(len(result) for result in self.results)

    @property
    def frames_per_second(self) -> float:
        return self.total_frames / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def num_key_frames(self) -> int:
        return sum(result.num_key_frames for result in self.results)

    @property
    def key_fraction(self) -> float:
        """Fraction of all frames executed precisely (the paper's 'keys')."""
        return self.num_key_frames / max(self.total_frames, 1)

    @property
    def total_estimation_ops(self) -> int:
        """Total RFBME adder ops across the workload (energy-model input)."""
        return sum(
            record.estimation_ops.total
            for result in self.results
            for record in result.records
            if record.estimation_ops is not None
        )

    def outputs(self) -> np.ndarray:
        """(total_frames, num_outputs) network outputs, clip-major order."""
        if not self.results:
            return np.empty((0, 0))
        return np.concatenate([result.outputs() for result in self.results])

    def key_mask(self) -> np.ndarray:
        """(total_frames,) key-frame decisions, clip-major order."""
        if not self.results:
            return np.empty(0, dtype=bool)
        return np.concatenate([result.key_mask() for result in self.results])

    def matches(self, other: "WorkloadResult") -> bool:
        """Whether two runs produced identical outputs, decisions, and ops.

        The equivalence check the runtime benchmark enforces between the
        serial and batched/vectorized paths.
        """
        return (
            self.total_frames == other.total_frames
            and np.array_equal(self.key_mask(), other.key_mask())
            and np.array_equal(self.outputs(), other.outputs())
            and self.total_estimation_ops == other.total_estimation_ops
        )

    def summary_rows(self) -> List[List[object]]:
        """Rows for the CLI / bench summary table."""
        return [
            ["path", self.path],
            ["clips", self.num_clips],
            ["frames", self.total_frames],
            ["wall s", round(self.wall_seconds, 3)],
            ["frames/s", round(self.frames_per_second, 1)],
            ["key fraction", round(self.key_fraction, 3)],
            ["RFBME adds", self.total_estimation_ops],
        ] + (
            [["pipelined steps", f"{self.pipelined_steps}/{self.steps}"]]
            if self.pipelined_steps
            else []
        ) + (
            [["prefix batches fused", self.prefix_fused_batches]]
            if self.prefix_fused_batches
            else []
        ) + (
            [
                [
                    "prefix cache hits/misses",
                    f"{self.prefix_cache_hits}/{self.prefix_cache_misses}",
                ]
            ]
            if self.prefix_cache_hits or self.prefix_cache_misses
            else []
        ) + (
            [["prefix MMACs saved", round(self.prefix_saved_macs / 1e6, 1)]]
            if self.prefix_saved_macs
            else []
        ) + (
            [["dtype", self.dtype]] if self.dtype != "float64" else []
        ) + (
            [
                [
                    "est. MAC energy ratio",
                    round(self.quant_savings.mac_energy_ratio, 2),
                ],
                [
                    "est. traffic ratio",
                    round(self.quant_savings.traffic_ratio, 2),
                ],
            ]
            if self.quant_savings is not None
            else []
        )


class BatchedPipeline:
    """Run a multi-clip workload in lockstep with batched hot paths.

    Lockstep batches are static, so every step hands its successor to
    the :class:`~repro.runtime.stage_graph.StageExecutor`, which runs
    step ``t+1``'s RFBME/decisions on a second thread while step ``t``
    runs its CNN prefix, warp, suffix and record — whenever the policy
    estimates.  The always-key baseline has nothing to overlap, so its
    heads run inline.  Results are bit-identical either way.

    ``prefix_cache_mb`` > 0 attaches a content-addressed
    :class:`~repro.runtime.prefix_service.PrefixService` cache to every
    step: key frames whose pixels were already run through this
    network's prefix reuse the stored activation (bit-identical by
    construction).  Lockstep already batches coincident key frames
    within a step, so the service runs with coalescing off — the cache
    is the knob that pays here.
    """

    def __init__(self, spec: PipelineSpec, prefix_cache_mb: float = 0.0):
        self.spec = spec
        if prefix_cache_mb < 0:
            raise ValueError(
                f"prefix_cache_mb must be >= 0, got {prefix_cache_mb}"
            )
        self.prefix_cache_mb = float(prefix_cache_mb)

    def run_workload(self, clips: Sequence[VideoClip]) -> WorkloadResult:
        """Process every clip; bit-identical to the serial path."""
        start = time.perf_counter()
        network = self.spec.shared_network()  # executors never mutate it
        # One slot per clip.  Slot 0's executor lends its RFBME engine to
        # the whole lane (identical geometry, shared scratch workspace).
        state = LaneState(
            slots=[
                LaneSlot(
                    executor=self.spec.build_executor(network),
                    policy=self.spec.build_policy(),
                )
                for _ in clips
            ],
            plan=PlanHandle(network, self.spec.dtype),
        )
        for slot in state.slots:
            slot.executor.reset()
            slot.policy.reset()
        executor = StageExecutor()
        plan = state.plan.resolve(len(clips)) if clips else None
        # Lockstep already fuses coincident key frames within a step, so
        # the service is pure cache here (coalesce off).
        service = (
            PrefixService(coalesce=False, cache_mb=self.prefix_cache_mb)
            if self.prefix_cache_mb > 0 and plan is not None
            else None
        )

        # The whole step stream is known statically (clip lengths fix the
        # positions, frame index == cursor), so batches are built up
        # front and every step can pipeline into the next.
        max_frames = max((len(clip) for clip in clips), default=0)
        batches: List[StepBatch] = []
        for index in range(max_frames):
            positions = [i for i in range(len(clips)) if index < len(clips[i])]
            batches.append(
                StepBatch(
                    state=state,
                    positions=positions,
                    frames=[clips[i].frames[index] for i in positions],
                    plan=plan,
                    cursors=[index] * len(positions),
                    prefix_service=service,
                )
            )

        records: List[List[FrameRecord]] = [[] for _ in clips]
        try:
            for t, batch in enumerate(batches):
                next_batch = batches[t + 1] if t + 1 < len(batches) else None
                # The step stream is static, so every handoff is
                # definite.
                step = executor.step(batch, next_batch=next_batch)
                for k, i in enumerate(batch.positions):
                    records[i].append(step.records[k])
                    state.slots[i].cursor += 1
        finally:
            executor.close()
        results = [PipelineResult(records=r) for r in records]
        wall = time.perf_counter() - start
        return WorkloadResult(
            results=results,
            wall_seconds=wall,
            path="lockstep",
            steps=executor.stats.steps,
            pipelined_steps=executor.stats.pipelined_steps,
            prefix_fused_batches=service.stats.fused_batches if service else 0,
            prefix_cache_hits=service.stats.hits if service else 0,
            prefix_cache_misses=service.stats.misses if service else 0,
            prefix_cache_evictions=service.stats.evictions if service else 0,
            prefix_saved_macs=service.stats.saved_macs if service else 0,
            dtype=resolve_plan_dtype(self.spec.dtype),
            quant_savings=quantized_savings(network, self.spec.dtype),
        )


def run_workload(
    spec: PipelineSpec,
    clips: Sequence[VideoClip],
    batch: bool = True,
    prefix_cache_mb: float = 0.0,
) -> WorkloadResult:
    """Execute a workload on the path implied by the arguments.

    ``batch`` picks lockstep (default) or plain serial execution.
    ``prefix_cache_mb`` forwards to :class:`BatchedPipeline` (> 0
    enables the content-addressed prefix cache on the lockstep path;
    the serial path ignores it).  Both paths return identical per-clip
    results.
    """
    if batch:
        return BatchedPipeline(
            spec, prefix_cache_mb=prefix_cache_mb
        ).run_workload(clips)
    start = time.perf_counter()
    results = spec.build().run_clips(clips)
    wall = time.perf_counter() - start
    return WorkloadResult(
        results=results,
        wall_seconds=wall,
        path="serial",
        dtype=resolve_plan_dtype(spec.dtype),
        quant_savings=quantized_savings(spec.shared_network(), spec.dtype),
    )
