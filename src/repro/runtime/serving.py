"""Streaming serving — a routing front end over one scheduling core.

The serving layer is split along the line a deployment would draw:

* :class:`Router` — the front end.  Owns the lane registry (one
  :class:`~repro.runtime.spec.PipelineSpec` per lane), buckets incoming
  requests into shape-compatible lanes (by frame shape, or lane name
  when shapes are ambiguous), and rejects unrouteable traffic with a
  :class:`LaneRoutingError` that names every registered lane.  Pure
  bookkeeping — it never touches an executor.
* :class:`LaneWorker` — the back end.  One *shard* of one lane: warm
  executor slots and the lane's compiled inference plan, running the
  frame lifecycle one step at a time through a
  :class:`~repro.runtime.stage_graph.StageExecutor`.
  The worker hands a step's successor over whenever it is certain:
  at provably stable membership (full occupancy, no departure due) it
  passes the next step's batch to the executor, which runs that head
  beside this step's CNN stages if one of its rows estimates; anywhere
  else the next step runs its head inline.  Bit-identical either way;
  :class:`ServingReport` surfaces the pipelined fraction of steps.  A
  worker's execution state is the picklable
  :class:`~repro.core.stages.LaneState` recipe away from a spec, so a
  shard process builds **its own** network and plan (plan-per-worker
  ownership: live plans never cross a process boundary; see
  :meth:`~repro.nn.network.Network.__getstate__`).
* The *serve core* — one discrete-event scheduler for every serve shape.
  Its unit is a **timeline**: a virtual clock that owns one or more lane
  workers.  At each event the earliest timeline sheds expired requests,
  admits due ones earliest-deadline-first from its lanes' backlogs,
  steps its active workers — as one fused begin/flush/finish round when
  several are active and the prefix service coalesces — and finalizes
  departures.  A timeline is charged the real time of everything done
  for it at a boundary; idle stretches with no arrival due are skipped,
  never slept.
* :class:`ServingRuntime` — the facade.  ``serve_workers=1`` runs the
  core with **one timeline that owns every lane's warm worker**, so all
  lanes share one clock.  ``serve_workers=N`` (or an autoscale policy)
  runs one timeline per shard, and every shard of a lane pulls from the
  lane's shared backlog: whichever shard reaches a free slot first in
  virtual time admits the next due request.  The ``process`` shard
  backend realizes the same shape on real processes under a
  :class:`~repro.runtime.supervision.ShardSupervisor`, which admits
  from the door through the same per-lane backlogs and skips the same
  idle gaps; each shard process admits, steps and finalizes through
  the same boundary function.

The correctness contract is what makes every shape safe: every served
clip's outputs, key-frame decisions, and op counts are bit-identical to
running that clip alone through the serial pipeline, regardless of which
batch-mates (or which shard) shared its steps.

Time is virtual per timeline, and ``wall_seconds`` counts charged
(busy) time only.  A sharded report aggregates under the
concurrent-deployment model — shards run side by side, so the aggregate
busy/idle time is the *slowest shard's* and throughput divides total
frames by it; with the process backend on enough cores that is also the
elapsed time you observe.

Failure domains (see :mod:`repro.runtime.supervision` and
ARCHITECTURE.md): requests may carry a ``deadline`` — queued past it
they are *shed* with an explicit
:class:`~repro.runtime.supervision.ShedRecord`, and admission among
waiting requests is earliest-deadline-first on every path.  Sharded
serving is *supervised*: process shards run under the
:class:`~repro.runtime.supervision.ShardSupervisor` (heartbeats, acks,
failover, bounded respawn), inline shards simulate the same supervisor
against their virtual clocks, and both honour a deterministic
:class:`~repro.runtime.supervision.FaultPlan` for chaos testing.
Failed-over work re-executes bit-identically — the serving contract
makes recovery exactly replayable.

Traffic enters through the *front door*
(:mod:`repro.runtime.frontdoor`): ``serve()`` accepts any
:class:`~repro.runtime.frontdoor.RequestSource` (a list is one adapter),
ingestion is bounded by queue-depth watermarks, an
:class:`~repro.runtime.frontdoor.AutoscalePolicy` can grow and shrink a
lane's shard pool from observed queue depth and deadline slack, and
configuration lives in one validated
:class:`~repro.runtime.frontdoor.ServerConfig`.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.pipeline import FrameRecord, PipelineResult
from ..core.stages import LaneSlot, LaneState, PlanHandle, StepBatch
from ..hardware.fixed_point import QuantSavings
from ..nn.inference import quantized_savings, resolve_plan_dtype
from ..video.generator import VideoClip, nonfinite_frame
from .batched import WorkloadResult
from .frontdoor import (
    Autoscaler,
    FrontDoor,
    ScaleEvent,
    ServerConfig,
    as_request_source,
)
from .prefix_service import PrefixService, PrefixStats
from .spec import PipelineSpec
from .stage_graph import PipelineStats, Step, StageExecutor
from .supervision import (
    FailoverEvent,
    FaultEvent,
    ShardCrashError,
    ShardSupervisor,
    ShedRecord,
    SupervisorConfig,
    _Backlog,
    _PendingEntry,
)

__all__ = [
    "ClipRequest",
    "RequestRecord",
    "ServingReport",
    "ServingRuntime",
    "ServerConfig",
    "Router",
    "LaneWorker",
    "LaneRoutingError",
    "DuplicateRequestError",
    "ShardInfo",
    "deal_shard_budget",
]

#: latency percentiles the report surfaces (tails matter under load).
PERCENTILES = (50, 95, 99)


def deal_shard_budget(
    lane_names: Sequence[str],
    lane_counts: Mapping[str, int],
    budget: int,
) -> Dict[str, int]:
    """Deal a worker budget round-robin across lanes, capped per lane.

    Shards assigned here are concurrent queue consumers, so the total
    never exceeds ``budget``, and a lane never receives more shards
    than it has requests (``lane_counts``) — an extra shard could not
    admit anything, and its executors/plan compile aren't free.  Used
    by sharded serving to size each lane's fleet.
    """
    shards = {name: 0 for name in lane_names}
    while budget > 0:
        assigned = False
        for name in lane_names:
            if budget > 0 and shards[name] < lane_counts[name]:
                shards[name] += 1
                budget -= 1
                assigned = True
        if not assigned:
            break
    return shards


class LaneRoutingError(KeyError, ValueError):
    """A request could not be routed to any registered lane.

    Subclasses both :class:`KeyError` (unknown lane names are lookup
    failures) and :class:`ValueError` (shape mismatches are value
    failures), so existing callers catching either keep working; the
    message always names every registered lane and its frame shape.
    """

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0] if self.args else ""


class DuplicateRequestError(ValueError):
    """Two submitted requests share one ``request_id``.

    Records are keyed by request id downstream (verification, shed
    bookkeeping, failover re-dispatch), so aliased ids would silently
    merge two requests' accounting; the serve refuses up front and the
    message names both offending submission positions.
    """


@dataclass(frozen=True)
class ClipRequest:
    """One clip submitted to the serving runtime."""

    request_id: object
    clip: VideoClip
    #: when the request becomes visible to the server, in seconds on the
    #: runtime's (virtual) clock.
    arrival_time: float = 0.0
    #: explicit lane name; None routes by frame shape.
    lane: Optional[str] = None
    #: absolute time (same clock as ``arrival_time``) by which the
    #: first output must exist.  None = no deadline.  A request still
    #: queued when its deadline passes is *shed* — dropped with an
    #: explicit :class:`~repro.runtime.supervision.ShedRecord` outcome
    #: rather than served late; admission among waiting requests is
    #: earliest-deadline-first.
    deadline: Optional[float] = None

    def __post_init__(self):
        if len(self.clip) < 1:
            raise ValueError(f"request {self.request_id!r} has an empty clip")
        # The clip checked its frames when it was built; they are
        # mutable arrays, so the request checks them again.
        bad = nonfinite_frame(self.clip.frames)
        if bad is not None:
            raise ValueError(
                f"request {self.request_id!r}: frame {bad} has non-finite "
                "pixels (NaN or inf)"
            )
        if self.arrival_time < 0:
            raise ValueError(
                f"arrival_time must be >= 0, got {self.arrival_time}"
            )
        if self.deadline is not None and self.deadline <= self.arrival_time:
            raise ValueError(
                f"request {self.request_id!r} deadline ({self.deadline}) "
                f"must be after its arrival ({self.arrival_time})"
            )


@dataclass
class RequestRecord:
    """Full accounting for one served request."""

    request_id: object
    lane: str
    arrival_time: float
    #: when the clip joined the running batch (a step boundary).
    admit_time: float
    #: when its first frame's output existed.
    first_output_time: float
    #: when its last frame's output existed and the slot was released.
    finish_time: float
    result: PipelineResult
    #: which shard of the lane served it (0 when unsharded).
    shard: int = 0
    #: how the request reached completion: "served" (first dispatch
    #: succeeded), "failover" (re-dispatched after its shard died), or
    #: "retried" (re-dispatched after an acknowledgement was lost).
    #: Results are bit-identical in every case — the label is purely
    #: provenance.
    outcome: str = "served"
    #: dispatch attempts (1 = no recovery was needed).
    attempts: int = 1
    #: the request's deadline, copied for accounting (None = none).
    deadline: Optional[float] = None

    @property
    def num_frames(self) -> int:
        return len(self.result)

    @property
    def met_deadline(self) -> Optional[bool]:
        """Whether the first output beat the deadline (None = no deadline).

        Admitted requests always run to completion, so a recovered
        (failover/retried) request can finish past its deadline — that
        shows up here, never as a silent drop.
        """
        if self.deadline is None:
            return None
        return self.first_output_time <= self.deadline

    @property
    def enqueue_latency(self) -> float:
        """Seconds spent queued before joining the batch."""
        return self.admit_time - self.arrival_time

    @property
    def time_to_first_frame(self) -> float:
        """Seconds from arrival to the first served output."""
        return self.first_output_time - self.arrival_time

    @property
    def service_seconds(self) -> float:
        return self.finish_time - self.admit_time

    @property
    def frames_per_second(self) -> float:
        """This clip's service rate while resident in the batch."""
        return (
            self.num_frames / self.service_seconds
            if self.service_seconds > 0
            else 0.0
        )


@dataclass
class ShardInfo:
    """What one lane shard did during a sharded serve."""

    lane: str
    shard: int
    requests: int
    frames: int
    #: busy seconds of this shard's timeline (its own clock).
    wall_seconds: float
    idle_seconds: float
    steps: int
    #: the shard executor's pipelining counters.
    pipeline: PipelineStats = field(default_factory=PipelineStats)
    #: the shard's own prefix-service counters (empty when the shards
    #: shared one service; the report then carries the shared counters).
    prefix: PrefixStats = field(default_factory=PrefixStats)

    @property
    def pipelined_steps(self) -> int:
        return self.pipeline.pipelined_steps

    @property
    def frames_per_second(self) -> float:
        return self.frames / self.wall_seconds if self.wall_seconds else 0.0


@dataclass
class ServingReport:
    """What one serving run did, per request and in aggregate."""

    #: per-request accounting, in submission order.
    records: List[RequestRecord]
    #: busy wall-clock seconds (idle gaps with no arrival due are skipped,
    #: not counted).  For a sharded run this is the slowest shard's busy
    #: time — shards run concurrently, so it is the aggregate's divisor.
    wall_seconds: float
    #: virtual seconds skipped while idle (slowest shard's, when sharded).
    idle_seconds: float
    #: lockstep steps executed across all lanes and shards.
    steps: int
    #: per-lane slot capacity the runtime was configured with.
    max_batch: int
    #: worker processes the run was sharded over (1 = in-process).
    serve_workers: int = 1
    #: per-shard accounting (empty for in-process runs).
    shards: List[ShardInfo] = field(default_factory=list)
    #: steps that consumed a pipelined (precomputed) head, across all
    #: lanes and shards.  0 when no lane ran full with an estimating
    #: policy.
    pipelined_steps: int = 0
    #: requests dropped because their deadline passed while queued —
    #: explicit rejections, never silent.  ``records`` holds completed
    #: requests only; every submission is exactly one of the two.
    shed: List[ShedRecord] = field(default_factory=list)
    #: re-dispatches after a lost acknowledgement (the work may have
    #: run; only the ack vanished).
    retries: int = 0
    #: requests re-dispatched because their shard crashed or stalled.
    failovers: int = 0
    #: replacement shards spawned after failures.
    respawns: int = 0
    #: every detected shard failure, in detection order.
    failover_events: List[FailoverEvent] = field(default_factory=list)
    #: every autoscaling decision that changed a lane's shard count,
    #: in decision order (empty without an autoscale policy).
    scale_events: List[ScaleEvent] = field(default_factory=list)
    #: ingestion pauses: excursions past the front door's ``max_pending``
    #: watermark (0 = unbounded or never reached).
    backpressure_pauses: int = 0
    #: fused ``run_prefix`` batches: coincident key frames from more
    #: than one lane/shard executed as one plan call (0 with the prefix
    #: service off or nothing coinciding).
    prefix_fused_batches: int = 0
    #: content-addressed prefix-cache hits / misses / evictions
    #: (0/0/0 with ``prefix_cache_mb=0``).
    prefix_cache_hits: int = 0
    prefix_cache_misses: int = 0
    prefix_cache_evictions: int = 0
    #: prefix MACs the cache hits avoided recomputing.
    prefix_saved_macs: int = 0
    #: plan family each lane ran under, by lane name ("float64",
    #: "float32", "int8", "q16") — lanes can mix dtypes.
    lane_dtypes: Dict[str, str] = field(default_factory=dict)
    #: estimated MAC-energy / traffic savings per *quantized* lane
    #: (float lanes are absent — there is nothing to compare).
    lane_quant_savings: Dict[str, QuantSavings] = field(default_factory=dict)

    @property
    def num_requests(self) -> int:
        return len(self.records)

    @property
    def num_shed(self) -> int:
        return len(self.shed)

    def outcome_counts(self) -> Dict[str, int]:
        """Completed-request outcomes plus the shed count, by label."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        if self.shed:
            counts["shed"] = len(self.shed)
        return counts

    @property
    def total_frames(self) -> int:
        return sum(record.num_frames for record in self.records)

    @property
    def frames_per_second(self) -> float:
        """Steady-state throughput: frames served per busy second.

        Sharded runs divide by the slowest shard's busy time (the
        concurrent-deployment model the process backend realizes).
        """
        return self.total_frames / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def mean_occupancy(self) -> float:
        """Average clips resident per step (frames served per step)."""
        return self.total_frames / self.steps if self.steps else 0.0

    @property
    def pipeline_engagement(self) -> float:
        """Fraction of steps whose head was precomputed in flight."""
        return self.pipelined_steps / self.steps if self.steps else 0.0

    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of prefix-cache lookups answered from the cache."""
        lookups = self.prefix_cache_hits + self.prefix_cache_misses
        return self.prefix_cache_hits / lookups if lookups else 0.0

    def enqueue_latencies(self) -> np.ndarray:
        return np.array([record.enqueue_latency for record in self.records])

    def times_to_first_frame(self) -> np.ndarray:
        return np.array([record.time_to_first_frame for record in self.records])

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of enqueue latency and time-to-first-frame (s).

        Keys are ``enqueue_p50`` … ``ttff_p99``.  Means alone hide tail
        latency under load; these are what the CLI and the serving
        benchmark surface.

        A report with zero completed requests has no tails: the result
        is explicitly the **empty dict** (``np.percentile`` over empty
        samples would raise) — callers must treat a missing key as "no
        data", never as zero latency.
        """
        out: Dict[str, float] = {}
        if not self.records:
            return out
        series = {
            "enqueue": self.enqueue_latencies(),
            "ttff": self.times_to_first_frame(),
        }
        for prefix, values in series.items():
            for p in PERCENTILES:
                out[f"{prefix}_p{p}"] = float(np.percentile(values, p))
        return out

    def workload_result(self) -> WorkloadResult:
        """The per-clip results as a :class:`WorkloadResult`.

        Request order is submission order, so this compares directly
        (``matches``) against a serial/lockstep run of the same clips —
        sharded or not.  Shed requests have no result and are absent:
        with a nonempty ``shed`` list, compare per-record by request id
        against the serial run instead of positionally.
        """
        # dtype only carries over when every lane agrees on one — a
        # mixed deployment has no single workload-level answer.
        dtypes = set(self.lane_dtypes.values())
        shared = dtypes.pop() if len(dtypes) == 1 else "float64"
        return WorkloadResult(
            results=[record.result for record in self.records],
            wall_seconds=self.wall_seconds,
            path="serving",
            prefix_fused_batches=self.prefix_fused_batches,
            prefix_cache_hits=self.prefix_cache_hits,
            prefix_cache_misses=self.prefix_cache_misses,
            prefix_cache_evictions=self.prefix_cache_evictions,
            prefix_saved_macs=self.prefix_saved_macs,
            dtype=shared,
            quant_savings=next(
                iter(self.lane_quant_savings.values()), None
            ) if len(self.lane_dtypes) == 1 else None,
        )

    def summary_rows(self) -> List[List[object]]:
        """Rows for the CLI / bench summary table."""
        rows: List[List[object]] = [
            ["path", "serving"],
            ["requests", self.num_requests],
            ["frames", self.total_frames],
            ["busy s", round(self.wall_seconds, 3)],
            ["idle s (skipped)", round(self.idle_seconds, 3)],
            ["frames/s", round(self.frames_per_second, 1)],
            ["steps", self.steps],
            ["mean occupancy", round(self.mean_occupancy, 2)],
            ["serve workers", self.serve_workers],
        ]
        for name in sorted(self.lane_dtypes):
            if self.lane_dtypes[name] == "float64":
                continue
            rows.append([f"lane {name} dtype", self.lane_dtypes[name]])
            savings = self.lane_quant_savings.get(name)
            if savings is not None:
                rows.append(
                    [
                        f"lane {name} est. MAC energy/traffic",
                        f"{savings.mac_energy_ratio:.2f}x / "
                        f"{savings.traffic_ratio:.2f}x",
                    ]
                )
        if self.shed or self.retries or self.failovers or self.respawns:
            rows.append(["shed", self.num_shed])
            rows.append(["retries", self.retries])
            rows.append(["failovers", self.failovers])
            rows.append(["respawns", self.respawns])
            recovered = sum(
                1 for record in self.records if record.outcome != "served"
            )
            rows.append(["recovered requests", recovered])
        missed = [
            record for record in self.records if record.met_deadline is False
        ]
        if missed:
            rows.append(["missed deadlines (served late)", len(missed)])
        if self.scale_events:
            peak = max(event.to_shards for event in self.scale_events)
            rows.append(["scale events", len(self.scale_events)])
            rows.append(["peak shards", peak])
        if self.backpressure_pauses:
            rows.append(["backpressure pauses", self.backpressure_pauses])
        if self.pipelined_steps:
            rows.append(
                ["pipelined steps", f"{self.pipelined_steps}/{self.steps}"]
            )
        if (self.prefix_fused_batches or self.prefix_cache_hits
                or self.prefix_cache_misses):
            rows.append(["prefix batches fused", self.prefix_fused_batches])
            rows.append(
                ["prefix cache hits/misses",
                 f"{self.prefix_cache_hits}/{self.prefix_cache_misses}"]
            )
            rows.append(["prefix hit rate", round(self.prefix_hit_rate, 3)])
            if self.prefix_cache_evictions:
                rows.append(
                    ["prefix cache evictions", self.prefix_cache_evictions]
                )
            if self.prefix_saved_macs:
                rows.append(
                    ["prefix MMACs saved",
                     round(self.prefix_saved_macs / 1e6, 1)]
                )
        for key, value in self.latency_percentiles().items():
            # rsplit: percentile keys are "<metric>_p<NN>" and a metric
            # name may itself contain underscores.
            prefix, pct = key.rsplit("_", 1)
            rows.append([f"{prefix} {pct} ms", round(value * 1e3, 2)])
        for shard in self.shards:
            rows.append(
                [
                    f"shard {shard.lane}/{shard.shard}",
                    f"{shard.requests} req, {shard.frames} frames, "
                    f"{round(shard.frames_per_second, 1)} f/s",
                ]
            )
        return rows


@dataclass
class _Resident:
    """Request bookkeeping for one occupied slot.

    Execution state (executor, policy, cursor) lives in the worker's
    :class:`~repro.core.stages.LaneState`; this is the serving-side
    record of who occupies the slot and when.
    """

    seq: int
    request: ClipRequest
    admit_time: float
    first_output_time: Optional[float] = None
    records: List[FrameRecord] = field(default_factory=list)


class LaneWorker:
    """One shard of one lane: slots, plan, and the step executor.

    Holds the lane's picklable execution state
    (:class:`~repro.core.stages.LaneState`: warm executor slots, plan
    handle, per-clip cursors) plus the per-slot residents, and advances
    everything one lifecycle step at a time through a
    :class:`~repro.runtime.stage_graph.StageExecutor` at the current
    occupancy.  Admission and accounting belong to the serve core's
    timelines.

    A worker is cheap to build from its spec, which is how process
    shards work: the parent ships ``(lane, spec, capacity)`` to a worker
    process and the process builds its own worker — its own network,
    its own compiled plan.
    """

    def __init__(self, name: str, spec: PipelineSpec, capacity: int,
                 shard: int = 0,
                 prefix_service: Optional[PrefixService] = None):
        self.name = name
        self.spec = spec
        self.capacity = capacity
        self.shard = shard
        #: the worker's prefix service (fused key-frame batches +
        #: content-addressed cache).  Serves that share one service
        #: across workers — every inline serve — assign the shared
        #: instance before serving.
        self.prefix_service = (
            prefix_service if prefix_service is not None else PrefixService()
        )
        network = spec.shared_network()
        self.frame_shape: Tuple[int, int] = tuple(network.input_shape[1:])
        # Slots hold warm executors for the worker's lifetime; admitted
        # clips borrow one and release it on departure.
        slots = []
        for _ in range(capacity):
            executor = spec.build_executor(network)
            executor.reset()
            slots.append(LaneSlot(executor=executor))
        plan_handle = PlanHandle(network, spec.dtype)
        plan_handle.resolve(capacity)  # compile at capacity up front
        self.state = LaneState(slots=slots, plan=plan_handle)
        self.executor = StageExecutor()
        #: the handed-over next-step batch (its head may be in flight).
        self._pending: Optional[StepBatch] = None
        #: the step between ``begin_step`` and its ``finish_step``.
        self._round: Optional[Step] = None
        self.residents: List[Optional[_Resident]] = [None] * capacity

    # -------------------------------------------------------------- #
    @property
    def plan(self):
        """The lane's live inference plan."""
        return self.state.plan.resolve()

    def has_free_slot(self) -> bool:
        return any(resident is None for resident in self.residents)

    def has_active(self) -> bool:
        return any(resident is not None for resident in self.residents)

    def active_residents(self) -> List[_Resident]:
        return [resident for resident in self.residents if resident is not None]

    def admit(self, seq: int, request: ClipRequest, now: float) -> None:
        """Seat ``request`` in a free slot, fresh-executor state."""
        index = self.residents.index(None)
        slot = self.state.slots[index]
        slot.executor.reset()  # identical start state to a fresh serial run
        slot.policy = self.spec.build_policy()
        slot.policy.reset()
        slot.cursor = 0
        self.residents[index] = _Resident(seq, request, now)

    def _build_batch(self, positions: List[int], advance: int = 0) -> StepBatch:
        """The step batch ``advance`` frames ahead of the slot cursors."""
        return StepBatch(
            state=self.state,
            positions=positions,
            frames=[
                self.residents[i].request.clip.frames[
                    self.state.slots[i].cursor + advance
                ]
                for i in positions
            ],
            plan=self.state.plan.resolve(len(positions)),
            cursors=[self.state.slots[i].cursor + advance for i in positions],
            prefix_service=self.prefix_service,
        )

    def _membership_stable(self, positions: List[int]) -> bool:
        """Whether the next step is *guaranteed* to run these same slots.

        True only when every slot is occupied (a free slot could admit a
        queued request at the next boundary) and no resident serves its
        last frame this step (no departure frees a slot).  This is the
        full-occupancy steady state, where the next batch is definite
        and the worker hands it over; anywhere else the next step
        builds its own batch.
        """
        return len(positions) == self.capacity and all(
            self.state.slots[i].cursor + 1 < len(self.residents[i].request.clip)
            for i in positions
        )

    def step(self) -> List[_Resident]:
        """Serve one frame of every resident clip; return departures.

        One pass of the stage executor at current occupancy: batched
        RFBME over the slots with a stored key, per-clip decisions at
        clip-local cursors, then the batched CNN stages.  Slots whose
        clip finished release their executor and free up for the next
        admission.

        At provably stable membership the next step's batch is handed
        over, and if its policies estimate, its RFBME/decisions run
        against this step's CNN stages and are picked up by the next
        :meth:`step` call.  Anywhere else — a free slot that might
        admit, a departure due — the next step runs its head inline.
        """
        self.begin_step(register=False)
        return self.finish_step()

    def begin_step(self, register: bool = True) -> None:
        """Phase 1 of a serve round: head stages + this step's decisions.

        Resolves the step batch (the pipelined handoff, if one is
        pending), runs the step's head and mid — so its key-frame
        decisions are final — and hands the next step's batch over when
        it is certain, so its head runs during the round's flush and CNN
        stages.  With ``register=True`` it registers the key rows with
        the worker's prefix service for the round's
        :meth:`~repro.runtime.prefix_service.PrefixService.flush`.  Must
        be paired with exactly one :meth:`finish_step`.
        """
        positions = [
            i for i, resident in enumerate(self.residents) if resident is not None
        ]
        batch = self._pending
        if batch is None:
            batch = self._build_batch(positions)
        self._pending = self._next_batch(positions)
        self._round = self.executor.begin_step(batch, self._pending)
        if register and self.prefix_service is not None:
            self.prefix_service.prepare(batch, self._round.decisions)

    def _next_batch(self, positions: List[int]) -> Optional[StepBatch]:
        """The batch to pipeline after this step's, or None when the
        next step is not certain."""
        if self._membership_stable(positions):
            return self._build_batch(positions, advance=1)
        return None

    def finish_step(self) -> List[_Resident]:
        """Phase 2 of a serve round: CNN stages and bookkeeping."""
        step = self.executor.finish_step(self._round)
        self._round = None
        finished: List[_Resident] = []
        for k, i in enumerate(step.batch.positions):
            resident = self.residents[i]
            resident.records.append(step.records[k])
            slot = self.state.slots[i]
            slot.cursor += 1
            if slot.cursor >= len(resident.request.clip):
                slot.executor.release()
                slot.policy = None
                self.residents[i] = None
                finished.append(resident)
        return finished

    def release(self) -> None:
        """Drop resident state and hand plan scratch back."""
        self._pending = None
        self._round = None
        self.executor.close()  # joins any in-flight head
        for index, resident in enumerate(self.residents):
            if resident is not None:
                self.state.slots[index].executor.release()
                self.state.slots[index].policy = None
                self.residents[index] = None
        self.state.plan.resolve().shrink(1)


class Router:
    """Serving front end: lane registry and shape bucketing.

    Pure routing — admission timing and execution belong to the serve
    core.  A request routes by explicit lane name, or by frame shape
    when the shape identifies exactly one lane; anything else raises
    :class:`LaneRoutingError` naming every registered lane.
    """

    def __init__(self, specs: Mapping[str, PipelineSpec]):
        if not specs:
            raise ValueError("at least one lane spec is required")
        self.specs: Dict[str, PipelineSpec] = dict(specs)
        self.frame_shapes: Dict[str, Tuple[int, int]] = {
            name: tuple(spec.shared_network().input_shape[1:])
            for name, spec in self.specs.items()
        }
        self._by_shape: Dict[Tuple[int, int], List[str]] = {}
        for name, shape in self.frame_shapes.items():
            self._by_shape.setdefault(shape, []).append(name)

    def describe_lanes(self) -> str:
        """``name=shape`` for every registered lane (error messages)."""
        return ", ".join(
            f"{name}={self.frame_shapes[name]}" for name in self.specs
        )

    def lane_for(self, request: ClipRequest) -> str:
        """The lane name that will serve ``request`` (shape bucketing)."""
        shape = tuple(request.clip.frames.shape[1:])
        if request.lane is not None:
            if request.lane not in self.specs:
                raise LaneRoutingError(
                    f"unknown lane {request.lane!r}; registered lanes: "
                    f"{self.describe_lanes()}"
                )
            if shape != self.frame_shapes[request.lane]:
                raise LaneRoutingError(
                    f"request {request.request_id!r} has {shape} frames; "
                    f"lane {request.lane!r} serves "
                    f"{self.frame_shapes[request.lane]} (registered lanes: "
                    f"{self.describe_lanes()})"
                )
            return request.lane
        names = self._by_shape.get(shape, [])
        if not names:
            raise LaneRoutingError(
                f"no lane serves frame shape {shape}; registered lanes: "
                f"{self.describe_lanes()}"
            )
        if len(names) > 1:
            raise LaneRoutingError(
                f"frame shape {shape} matches lanes {names}; set "
                f"ClipRequest.lane (registered lanes: {self.describe_lanes()})"
            )
        return names[0]


@dataclass
class _ShardOutcome:
    """What one timeline or shard process served (picklable)."""

    lane: str
    shard: int
    records: Dict[int, RequestRecord]
    wall_seconds: float
    idle_seconds: float
    steps: int
    pipeline: PipelineStats = field(default_factory=PipelineStats)
    prefix: PrefixStats = field(default_factory=PrefixStats)

    def info(self) -> ShardInfo:
        """This outcome's report row — the one place it is derived."""
        return ShardInfo(
            lane=self.lane,
            shard=self.shard,
            requests=len(self.records),
            frames=sum(
                record.num_frames for record in self.records.values()
            ),
            wall_seconds=self.wall_seconds,
            idle_seconds=self.idle_seconds,
            steps=self.steps,
            pipeline=self.pipeline,
            prefix=self.prefix,
        )


# -------------------------------------------------------------------- #
# the serve core — timelines, the boundary, the event loop
# -------------------------------------------------------------------- #
class _Timeline:
    """A virtual clock that owns one or more lane workers.

    The serve core's unit of scheduling.  ``virtual`` is the timeline's
    time at its last boundary; a boundary charges it the real time of
    everything done for it, and idle stretches are skipped
    (:meth:`skip_to`), never slept.  ``faults`` are the injected
    fault events (kill / stall / drop_ack) it honours.
    """

    def __init__(self, workers: Sequence[LaneWorker],
                 clock: Callable[[], float], virtual: float = 0.0,
                 faults: Sequence[FaultEvent] = ()):
        self.workers = list(workers)
        self.lanes = frozenset(worker.name for worker in self.workers)
        #: (lane, shard) of the lead worker: the event-order tiebreak.
        self.order = (self.workers[0].name, self.workers[0].shard)
        self.clock = clock
        self.virtual = virtual
        self.busy = 0.0
        self.idle = 0.0
        self.steps = 0
        #: the charge of the last boundary that stepped (stall unit).
        self.mean_step = 1e-3
        self.records: Dict[int, RequestRecord] = {}
        #: a draining timeline steps its residents, admits nothing.
        self.draining = False
        self.kills = deque(e for e in faults if e.kind == "kill")
        self.stalls = deque(e for e in faults if e.kind == "stall")
        self.drops = deque(e for e in faults if e.kind == "drop_ack")

    def has_active(self) -> bool:
        return any(worker.has_active() for worker in self.workers)

    def faulted(self, at: float) -> bool:
        """Whether a kill or stall is due by ``at``."""
        return bool(
            (self.kills and self.kills[0].at <= at)
            or (self.stalls and self.stalls[0].at <= at)
        )

    def skip_to(self, at: float) -> None:
        """Idle until ``at``: virtual time jumps, nothing is charged."""
        if at > self.virtual:
            self.idle += at - self.virtual
            self.virtual = at

    def outcome(self) -> _ShardOutcome:
        pipeline = PipelineStats()
        for worker in self.workers:
            pipeline.merge(worker.executor.stats)
        lane, shard = self.order
        return _ShardOutcome(
            lane=lane, shard=shard, records=self.records,
            wall_seconds=self.busy, idle_seconds=self.idle,
            steps=self.steps, pipeline=pipeline,
        )


def _finalize_step(
    worker: LaneWorker,
    finished: Sequence[_Resident],
    current: float,
    done: Dict[int, RequestRecord],
) -> None:
    """Stamp first outputs at ``current`` and record each departure."""
    for resident in worker.active_residents():
        if resident.first_output_time is None:
            resident.first_output_time = current
    for resident in finished:
        if resident.first_output_time is None:
            resident.first_output_time = current
        done[resident.seq] = RequestRecord(
            request_id=resident.request.request_id,
            lane=worker.name,
            arrival_time=resident.request.arrival_time,
            admit_time=resident.admit_time,
            first_output_time=resident.first_output_time,
            finish_time=current,
            result=PipelineResult(records=resident.records),
            shard=worker.shard,
            deadline=resident.request.deadline,
        )


def _boundary(
    cohort: Sequence[_Timeline],
    since: float,
    backlogs: Mapping[str, _Backlog],
    shed: Optional[List[ShedRecord]] = None,
    coalesce: bool = False,
) -> Tuple[List[_PendingEntry], List[Tuple[_Timeline, _Resident]], float]:
    """One scheduling boundary for ``cohort``: timelines tied in time.

    Sheds expired requests into ``shed`` (None = never shed), admits due
    requests earliest-deadline-first while free slots last, steps every
    active worker — as one fused begin/flush/finish round when more
    than one is active and ``coalesce`` is on — and finalizes
    departures.  Every member is charged the real time from ``since``
    (the clock reading that closed the previous boundary) to this
    boundary's last reading, so tied members stay tied.
    In-process serving, inline shards, and shard processes all admit,
    step, and finalize here.

    Returns ``(admitted entries, [(timeline, departure)], closing clock
    reading)``.
    """
    base = cohort[0].virtual
    clock = cohort[0].clock
    reading = since

    def now() -> float:
        nonlocal reading
        reading = clock()
        return base + (reading - since)

    current = now()
    admitted: List[_PendingEntry] = []
    for timeline in cohort:
        for worker in timeline.workers:
            backlog = backlogs[worker.name]
            if shed is not None and backlog.deadlined:
                shed.extend(backlog.shed_expired(current, worker.shard))
            if timeline.draining:
                continue
            backlog.promote(current)
            while worker.has_free_slot():
                entry = backlog.pop_due()
                if entry is None:
                    break
                worker.admit(entry.seq, entry.request, current)
                admitted.append(entry)
    active = [
        (timeline, worker)
        for timeline in cohort for worker in timeline.workers
        if worker.has_active()
    ]
    departed: List[Tuple[_Timeline, _Resident]] = []
    if coalesce and len(active) > 1:
        # Two-phase round: every worker's decisions first, one fused /
        # cached prefix flush, then every worker's CNN stages.
        for _, worker in active:
            worker.begin_step()
        active[0][1].prefix_service.flush()
        finished = [worker.finish_step() for _, worker in active]
        end = now()
        for (timeline, worker), gone in zip(active, finished):
            _finalize_step(worker, gone, end, timeline.records)
            departed += [(timeline, resident) for resident in gone]
    else:
        for timeline, worker in active:
            gone = worker.step()
            _finalize_step(worker, gone, now(), timeline.records)
            departed += [(timeline, resident) for resident in gone]
    charge = reading - since
    for timeline in cohort:
        timeline.virtual = base + charge
        timeline.busy += charge
    for timeline, _ in active:
        timeline.steps += 1
        timeline.mean_step = charge
    return admitted, departed, reading


def _run_core(
    timelines: List[_Timeline],
    door: FrontDoor,
    clock: Callable[[], float],
    service: PrefixService,
    spawn: Optional[Callable[[str, int], LaneWorker]] = None,
    supervisor: Optional[SupervisorConfig] = None,
    autoscaler: Optional[Autoscaler] = None,
) -> Tuple[List[_Timeline], List[ShedRecord], List[FailoverEvent],
           Dict[str, int]]:
    """The serve core: every timeline over the door's traffic, one DES.

    At every event the timeline with the earliest actionable time acts
    (ties break on ``(lane, shard)``): an active timeline at its own
    clock, an idle one at the later of its clock and the earliest
    request its lanes could admit — queued, or next at the door.  The
    door releases requests that have arrived by the event time (its
    ``max_pending`` watermark counts those, never future arrivals),
    and :func:`_boundary` does the rest.  With ``service.coalesce``,
    other active timelines tied at exactly the event time join the
    boundary as one fused round.

    The core also simulates the process backend's supervisor against
    the timelines' clocks, honouring each timeline's injected faults: a
    ``kill`` ends the timeline and its residents' requests rejoin the
    lane backlog (outcome ``"failover"``) ``heartbeat_timeout`` after
    death; a ``stall`` freezes its clock, or fails it over like a kill
    when longer than ``heartbeat_timeout``; a ``drop_ack`` discards a
    completed record and re-queues the request after ``ack_timeout``
    (outcome ``"retried"``).  A lane that loses every timeline respawns
    one via ``spawn`` while ``max_respawns`` budget remains; past that,
    remaining work raises :class:`ShardCrashError` — never a hang.
    With an ``autoscaler`` each boundary of a non-draining timeline
    observes its lane (backlog depth per live shard, deadline slack):
    growth spawns a timeline, shrinkage drains the least-loaded sibling.

    Returns ``(every timeline in spawn order, shed, failover events,
    counters)``; ``counters`` keys ``retries``/``failovers``/``respawns``.
    """
    config = supervisor or SupervisorConfig()
    backlogs = {name: _Backlog() for name in door.router.specs}
    fleet = list(timelines)
    live = list(timelines)
    in_flight: Dict[int, _PendingEntry] = {}
    shed: List[ShedRecord] = []
    failover_events: List[FailoverEvent] = []
    counters = {"retries": 0, "failovers": 0, "respawns": 0}

    def add_timeline(lane: str, at: float, scale: bool = False) -> None:
        shard = max(
            (t.order[1] for t in fleet if t.order[0] == lane), default=-1
        ) + 1
        worker = spawn(lane, shard)
        worker.prefix_service = service  # one cache, fused cohorts
        timeline = _Timeline([worker], clock, virtual=at)
        fleet.append(timeline)
        live.append(timeline)
        if not scale:  # autoscale growth is not failure recovery
            counters["respawns"] += 1

    def fail(timeline: _Timeline, death: float, reason: str) -> None:
        detect = death + config.heartbeat_timeout
        seqs = []
        for worker in timeline.workers:
            for resident in worker.active_residents():
                entry = in_flight.pop(resident.seq)
                entry.attempts += 1
                entry.outcome = "failover"
                entry.available = detect
                backlogs[worker.name].push(entry)
                seqs.append(resident.seq)
        counters["failovers"] += len(seqs)
        live.remove(timeline)
        lane, shard = timeline.order
        respawned = (
            spawn is not None
            and not any(lane in t.lanes for t in live)
            and (len(backlogs[lane]) > 0 or not door.exhausted)
            and counters["respawns"] < config.max_respawns
        )
        if respawned:
            add_timeline(lane, detect)
        failover_events.append(FailoverEvent(
            lane=lane, shard=shard, time=detect, reason=reason,
            seqs=tuple(sorted(seqs)), respawned=respawned,
        ))

    since = clock()
    while True:
        depth = sum(len(backlog) for backlog in backlogs.values())
        upcoming = door.upcoming(depth)
        keyed = []
        for timeline in list(live):
            if timeline.has_active():
                at = timeline.virtual
            elif timeline.draining:
                live.remove(timeline)  # drained dry: retire
                continue
            else:
                times = [
                    t for t in (backlogs[lane].earliest()
                                for lane in timeline.lanes)
                    if t is not None
                ]
                if upcoming is not None and upcoming[1] in timeline.lanes:
                    times.append(upcoming[0])
                if not times:
                    continue
                at = max(timeline.virtual, min(times))
            keyed.append((at, timeline.order, timeline))
        if not keyed:
            if door.starved:
                # A live source with nothing submitted yet: no virtual
                # event exists until traffic does, so wait in real time
                # (charged to no timeline).
                time.sleep(0.001)
                since = clock()
                continue
            lost = sorted(
                entry.seq for backlog in backlogs.values()
                for entry in backlog.entries()
            )
            if not lost and door.exhausted:
                break
            lanes = ", ".join(
                sorted(name for name, b in backlogs.items() if len(b))
            )
            raise ShardCrashError(
                f"lane(s) {lanes} lost every shard with {len(lost)} "
                f"request(s) unresolved (seqs {lost}) and no respawn "
                f"budget left (max_respawns={config.max_respawns})",
                lost=lost,
            )
        # ``order`` is unique per timeline, so ties never compare timelines.
        at, _, timeline = min(keyed)
        if len(live) > 1 and upcoming is not None and upcoming[0] < at:
            # The door's next request arrived before this event: release
            # it at its arrival and re-key, so an idle timeline of its
            # lane admits it then, not at another timeline's clock.  The
            # real time spent here is charged to the next boundary.
            at = upcoming[0]
            for seq, request, lane in door.take(depth, now=at):
                backlogs[lane].push(_PendingEntry(
                    seq=seq, request=request, lane=lane, available=at,
                ))
            continue
        # Injected faults fire before the timeline acts at this event.
        if timeline.kills and timeline.kills[0].at <= at:
            event = timeline.kills.popleft()
            fail(timeline, max(event.at, timeline.virtual), "crash")
            continue
        if timeline.stalls and timeline.stalls[0].at <= at:
            event = timeline.stalls.popleft()
            duration = (
                event.seconds if event.seconds > 0
                else event.steps * timeline.mean_step
            )
            begin = max(timeline.virtual, event.at)
            if duration > config.heartbeat_timeout:
                # Silent past the heartbeat: indistinguishable from
                # death, failed over as one.
                fail(timeline, begin, "stall")
            else:
                timeline.skip_to(begin + duration)
            continue
        timeline.skip_to(at)
        for seq, request, lane in door.take(depth, now=at):
            backlogs[lane].push(_PendingEntry(
                seq=seq, request=request, lane=lane, available=at,
            ))
        if autoscaler is not None and not timeline.draining:
            lane = timeline.order[0]
            backlog = backlogs[lane]
            siblings = [
                t for t in live if t.order[0] == lane and not t.draining
            ]
            target = autoscaler.observe(
                lane, len(siblings), len(backlog), at,
                deadline_slack=backlog.slack(at),
            )
            if target > len(siblings) and spawn is not None:
                add_timeline(lane, at, scale=True)
            elif target < len(siblings):
                # Drain the least-loaded sibling (never the acting
                # timeline if another exists): it finishes its
                # residents, admits nothing new, and retires once empty.
                victim = min(
                    [t for t in siblings if t is not timeline] or siblings,
                    key=lambda t: (
                        len(t.workers[0].active_residents()), -t.order[1]
                    ),
                )
                victim.draining = True
        cohort = [timeline]
        if service.coalesce and len(keyed) > 1:
            cohort += [
                other for other_at, _, other in keyed
                if other is not timeline and other_at == at
                and other.has_active()
                and not other.faulted(at)
            ]
        admitted, departed, since = _boundary(
            cohort, since, backlogs, shed=shed, coalesce=service.coalesce,
        )
        for entry in admitted:
            in_flight[entry.seq] = entry
        for member, resident in departed:
            entry = in_flight.pop(resident.seq)
            if member.drops and member.drops[0].at <= member.virtual:
                # The ack is lost: the completed record never reaches
                # the supervisor, which re-queues after ack_timeout.
                member.drops.popleft()
                del member.records[resident.seq]
                entry.attempts += 1
                entry.outcome = "retried"
                entry.available = member.virtual + config.resolved_ack_timeout
                backlogs[entry.lane].push(entry)
                counters["retries"] += 1
            else:
                record = member.records[resident.seq]
                record.outcome = entry.outcome
                record.attempts = entry.attempts
    return fleet, shed, failover_events, counters


class ServingRuntime:
    """Serve clip requests with continuous batching, optionally sharded.

    ``spec`` is a single :class:`PipelineSpec` (one lane named
    ``"default"``) or a mapping of lane name to spec for heterogeneous
    deployments; ``config`` is a validated
    :class:`~repro.runtime.frontdoor.ServerConfig`.  ``max_batch`` is the
    per-shard slot capacity: a shard never holds more than ``max_batch``
    resident clips, and its inference plan is compiled once at that
    capacity.

    ``serve_workers`` selects the execution shape: ``1`` (default) runs
    every lane on one timeline — one clock — reusing warm in-process
    workers across serves; ``N > 1`` deals ``N`` shards across lanes
    (never more shards than a lane has requests), each shard its own
    timeline pulling from its lane's shared backlog.  An ``autoscale``
    policy starts each lane at ``min_shards`` and grows and shrinks it.
    Results are bit-identical in every shape; sharding only changes
    wall-clock time and latency accounting (each shard keeps its own
    clock).  ``shard_backend`` resolves through
    :meth:`~repro.runtime.frontdoor.ServerConfig.resolve_shard_backend`:
    ``process`` runs shards on supervised worker processes (real clock,
    arrivals released by the parent), ``serial`` simulates them inline
    as a deterministic discrete-event run that honours the injected
    ``clock`` — useful on single-core hosts, where the report still
    aggregates under the concurrent model — and ``auto`` picks between
    them by core count.  ``thread`` is refused: concurrent thread shards
    would share one plan's scratch and break bit identity.
    """

    def __init__(
        self,
        spec: Union[PipelineSpec, Mapping[str, PipelineSpec]],
        config: Optional[ServerConfig] = None,
    ):
        if isinstance(spec, PipelineSpec):
            specs: Dict[str, PipelineSpec] = {"default": spec}
        else:
            specs = dict(spec)
        if config is None:
            config = ServerConfig()
        elif not isinstance(config, ServerConfig):
            raise TypeError(
                f"config must be a ServerConfig, got {type(config).__name__}"
            )
        #: the validated :class:`ServerConfig` this runtime serves under.
        self.config = config
        if config.inference_dtype is not None:
            # One dtype for every lane (per-lane dtypes come from per-lane
            # specs).
            specs = {
                name: replace(lane_spec, dtype=config.inference_dtype)
                for name, lane_spec in specs.items()
            }
        self.router = Router(specs)
        # Plan/lane validation happens here — the one place that always
        # has the router — not in ServerConfig, which a caller may build
        # long before any spec exists.
        _validate_fault_plan(config, self.router)
        self._workers: Optional[Dict[str, LaneWorker]] = None

    # -------------------------------------------------------------- #
    @property
    def lanes(self) -> Dict[str, LaneWorker]:
        """In-process lane workers, built on first use.

        Sharded serves never touch these (shards build their own);
        in-process serves reuse them across calls so executors and plans
        stay warm.
        """
        if self._workers is None:
            self._workers = {
                name: LaneWorker(name, lane_spec, self.config.max_batch)
                for name, lane_spec in self.router.specs.items()
            }
        return self._workers

    def serve(self, requests) -> ServingReport:
        """Serve a request stream; returns per-request accounting.

        ``requests`` is anything :func:`as_request_source` accepts: a
        sequence (routing and duplicate-id failures surface before any
        serving starts), an iterator or generator, or a
        :class:`~repro.runtime.frontdoor.RequestSource` such as a
        bounded :class:`~repro.runtime.frontdoor.QueueSource`.
        """
        source = as_request_source(requests)
        door = FrontDoor(
            source,
            router=self.router,
            max_pending=self.config.max_pending,
            resume_pending=self.config.resume_pending,
        )
        try:
            if not self.config.sharded:
                report = self._serve_in_process(door)
            else:
                fleet = self._fleet(door.lane_counts)
                size = (
                    self.config.pool_workers
                    if self.config.autoscale is not None
                    else sum(fleet.values())
                )
                for lane_spec in self.router.specs.values():
                    lane_spec.warm()  # shards load the cache, never train
                if self.config.resolve_shard_backend(size) == "process":
                    report = self._serve_process(door, fleet)
                else:
                    report = self._serve_inline(door, fleet)
        finally:
            source.close()
        report.backpressure_pauses = door.backpressure_pauses
        return report

    # -------------------------------------------------------------- #
    def _fleet(self, counts: Optional[Mapping[str, int]]) -> Dict[str, int]:
        """Shards per lane at serve start.

        The autoscale floor, or ``serve_workers`` dealt round-robin
        across lanes.  Shards are concurrent consumers, so the total
        never exceeds the budget, and when the request counts are known
        up front a lane never gets more shards than it has requests (an
        extra shard could not admit anything).
        """
        names = list(self.router.specs)
        if counts is None:
            counts = {name: self.config.pool_workers for name in names}
        policy = self.config.autoscale
        if policy is not None:
            return {name: min(policy.min_shards, counts[name])
                    for name in names}
        return deal_shard_budget(names, counts, self.config.serve_workers)

    def _prefix_service(self) -> PrefixService:
        """A fresh shared service for one serve (per-serve counters)."""
        return PrefixService(
            coalesce=self.config.prefix_coalesce,
            cache_mb=self.config.prefix_cache_mb,
        )

    def _spawn_worker(self, lane: str, shard: int) -> LaneWorker:
        return LaneWorker(lane, self.router.specs[lane],
                          self.config.max_batch, shard=shard)

    def _serve_in_process(self, door: FrontDoor) -> ServingReport:
        """One timeline over every lane's warm worker: one clock."""
        workers = list(self.lanes.values())
        # One shared service across every in-process lane: coincident
        # key frames fuse cross-lane and the content cache is global.
        service = self._prefix_service()
        for worker in workers:
            worker.executor.reset_stats()  # per-serve counters
            worker.prefix_service = service
        clock = self.config.clock or time.perf_counter
        timeline = _Timeline(workers, clock)
        try:
            _, shed, _, _ = _run_core([timeline], door, clock, service)
        except BaseException:
            # A failed serve must not leave residents seated, a pending
            # handoff, or a head in flight for the next serve to trip
            # over: release every warm worker (joining its head).
            for worker in workers:
                worker.release()
            raise
        return self._report([timeline.outcome()], sharded=False, shed=shed,
                            prefix=service.stats)

    def _serve_inline(self, door: FrontDoor,
                      fleet: Mapping[str, int]) -> ServingReport:
        """One timeline per shard, simulated concurrently in-thread.

        Deterministic and injected-clock friendly; streams straight
        from the front door, so an open (live) source serves without
        being drained up front.
        """
        service = self._prefix_service()
        clock = self.config.clock or time.perf_counter
        timelines = []
        for lane, count in fleet.items():
            for shard in range(count):
                worker = self._spawn_worker(lane, shard)
                worker.prefix_service = service
                timelines.append(_Timeline(
                    [worker], clock,
                    faults=self.config.fault_plan.for_shard(lane, shard),
                ))
        policy = self.config.autoscale
        autoscaler = Autoscaler(policy) if policy is not None else None
        timelines, shed, failover_events, counters = _run_core(
            timelines, door, clock, service, spawn=self._spawn_worker,
            supervisor=self.config.supervisor, autoscaler=autoscaler,
        )
        return self._report(
            [timeline.outcome() for timeline in timelines], sharded=True,
            shed=shed, failover_events=failover_events,
            scale_events=autoscaler.events if autoscaler else (),
            prefix=service.stats, **counters,
        )

    def _serve_process(self, door: FrontDoor,
                       fleet: Mapping[str, int]) -> ServingReport:
        """One supervised shard process per shard, on the real clock.

        A :class:`~repro.runtime.supervision.ShardSupervisor` admits
        from the front door through one backlog per lane, as the serve
        core does, and dispatches to the shard processes; it recovers
        from crashed/stalled shards by re-dispatching unacknowledged
        requests — bit-identical by the serving contract.  Streams
        straight from the door, like :meth:`_serve_inline`.
        """
        policy = self.config.autoscale
        autoscaler = Autoscaler(policy) if policy is not None else None
        supervisor = ShardSupervisor(
            self.router.specs, self.config.max_batch,
            config=self.config.supervisor,
            fault_plan=self.config.fault_plan,
            autoscaler=autoscaler,
            prefix_coalesce=self.config.prefix_coalesce,
            prefix_cache_mb=self.config.prefix_cache_mb,
        )
        outcomes, shed, failover_events, counters = supervisor.serve(
            door, fleet
        )
        return self._report(
            outcomes, sharded=True, shed=shed,
            failover_events=failover_events,
            scale_events=autoscaler.events if autoscaler else (),
            **counters,
        )

    def _report(
        self,
        outcomes: Sequence[_ShardOutcome],
        sharded: bool,
        shed: Sequence[ShedRecord] = (),
        failover_events: Sequence[FailoverEvent] = (),
        scale_events: Sequence[ScaleEvent] = (),
        prefix: Optional[PrefixStats] = None,
        retries: int = 0,
        failovers: int = 0,
        respawns: int = 0,
    ) -> ServingReport:
        """One report from per-timeline outcomes.

        Under the concurrent model the slowest timeline bounds the run,
        and its idle time is the one paired with that wall (mixing
        fields from different shards would describe a timeline no shard
        had).  ``prefix`` carries the counters of a service shared
        across the timelines; without it the outcomes' own counters are
        merged (independent per-process services).
        """
        done: Dict[int, RequestRecord] = {}
        pipeline = PipelineStats()
        if prefix is None:
            prefix = PrefixStats()
            for outcome in outcomes:
                prefix.merge(outcome.prefix)
        for outcome in outcomes:
            done.update(outcome.records)
            pipeline.merge(outcome.pipeline)
        slowest = max(outcomes, key=lambda o: o.wall_seconds, default=None)
        lane_dtypes, lane_savings = self._lane_quant_info()
        return ServingReport(
            records=[done[seq] for seq in sorted(done)],
            wall_seconds=slowest.wall_seconds if slowest else 0.0,
            idle_seconds=slowest.idle_seconds if slowest else 0.0,
            steps=sum(outcome.steps for outcome in outcomes),
            max_batch=self.config.max_batch,
            serve_workers=self.config.serve_workers if sharded else 1,
            shards=[outcome.info() for outcome in outcomes] if sharded else [],
            pipelined_steps=pipeline.pipelined_steps,
            shed=sorted(shed, key=lambda record: record.seq),
            retries=retries,
            failovers=failovers,
            respawns=respawns,
            failover_events=list(failover_events),
            scale_events=list(scale_events),
            prefix_fused_batches=prefix.fused_batches,
            prefix_cache_hits=prefix.hits,
            prefix_cache_misses=prefix.misses,
            prefix_cache_evictions=prefix.evictions,
            prefix_saved_macs=prefix.saved_macs,
            lane_dtypes=lane_dtypes,
            lane_quant_savings=lane_savings,
        )

    def _lane_quant_info(self):
        """(lane → plan family, lane → savings estimate) for the report.

        Derived from the lane specs, not the workers: the estimate is
        pure shape arithmetic, so process shards get it without
        shipping anything across the process boundary.
        """
        dtypes: Dict[str, str] = {}
        savings: Dict[str, QuantSavings] = {}
        for name, spec in self.router.specs.items():
            dtypes[name] = resolve_plan_dtype(spec.dtype)
            estimate = quantized_savings(spec.shared_network(), spec.dtype)
            if estimate is not None:
                savings[name] = estimate
        return dtypes, savings

    def close(self) -> None:
        """Evict all residents and shrink lane plans to capacity 1."""
        if self._workers:
            for worker in self._workers.values():
                worker.release()


def _validate_fault_plan(config: ServerConfig, router: Router) -> None:
    """Structural and lane validation for an injected fault plan.

    The one home for both checks — it always has the router, so the
    unknown-lane message can list ``Router.describe_lanes()`` (a bare
    :class:`ServerConfig` cannot).  Faults require a supervised
    (sharded) serve: ``serve_workers >= 2``, or an elastic pool whose
    ``max_shards`` leaves a survivor to fail over to.
    """
    if not config.fault_plan:
        return
    elastic = config.autoscale is not None and config.autoscale.max_shards >= 2
    if config.serve_workers < 2 and not elastic:
        raise ValueError(
            "fault_plan requires sharded shared-admission serving "
            "(serve_workers >= 2, or an autoscale policy with "
            f"max_shards >= 2); got serve_workers={config.serve_workers}"
        )
    unknown = [
        lane for lane in config.fault_plan.lanes()
        if lane not in router.specs
    ]
    if unknown:
        raise ValueError(
            f"fault_plan targets unknown lane(s) {unknown}; "
            f"registered lanes: {router.describe_lanes()}"
        )
