"""Multi-clip serving runtime — throughput layer over the EVA2 pipeline.

The paper evaluates EVA2 on single clips; a deployment serves many camera
streams at once (§I's live-vision setting).  This package turns the
per-clip :class:`~repro.core.EVA2Pipeline` into a workload runtime:

* :class:`PipelineSpec` — picklable recipe for building identical
  pipelines in any worker.
* :class:`StageExecutor` — the one definition of the step that
  lockstep and serving both execute: the stage functions of
  :mod:`repro.core.stages` in the lifecycle's fixed order (RFBME,
  decide, adopt pixels | CNN prefix, warp, CNN suffix, record) over the
  picklable :class:`~repro.core.stages.LaneState`.  The executor
  software-pipelines step t+1's RFBME/decisions against step t's CNN
  stages (bit-identical) whenever the next batch is certain and one of
  its rows' policies estimates (:class:`PipelineStats` counts the
  engaged overlaps).
* :class:`BatchedPipeline` — lockstep execution that batches the RFBME
  hot path across all active clips in one vectorized call.
* :class:`ServingRuntime` — streaming serving with continuous batching,
  split into a :class:`Router` front end (shape bucketing,
  :class:`LaneRoutingError` rejections) and :class:`LaneWorker` back
  ends that run the step executor, scheduled by one serve core whose
  timelines (virtual clocks owning lane workers) cover in-process,
  inline-sharded, and process-sharded serving (plan-per-worker
  ownership); configured by one validated :class:`ServerConfig`;
  :class:`ServingReport` carries per-request
  latency/throughput accounting with p50/p95/p99 tails and per-shard
  breakdowns.
* :class:`FrontDoor` / :class:`RequestSource` — the elastic front
  door: ``serve()`` accepts any request source (list, iterator or
  generator, thread-fed :class:`QueueSource`) with
  bounded in-flight admission (queue-depth watermarks, a named
  :class:`BackpressureError` on push-side overflow), a pure-function
  :class:`AutoscalePolicy` + :class:`Autoscaler` that grow and shrink
  a lane's shard fleet from observed backlog depth and deadline slack
  (:class:`ScaleEvent` log).  Every serve shape, process shards
  included, admits from the door through one backlog per lane and
  skips idle gaps, so a sparse simulated trace serves at full speed.
* :class:`WorkloadResult` — aggregate results plus throughput stats
  (frames/sec, key fraction, total adder ops).
* :class:`FaultPlan` / :class:`ShardSupervisor` — fault-tolerant
  serving: deterministic fault injection (kill/stall/ack-drop, seeded
  and JSON-replayable), shard supervision with heartbeats and result
  acknowledgements, deadline-aware shedding
  (:class:`RequestShedError` / :class:`ShedRecord`), and explicit
  failover accounting (:class:`FailoverEvent`, :class:`ShardCrashError`
  when a lane runs out of shards) — recovery re-executes
  bit-identically because every clip's execution is deterministic.
* :class:`PrefixService` — the cross-lane prefix service: within a
  step, coincident key-frame CNN prefix requests from every lane
  sharing a plan fuse into one batched ``run_prefix`` call, and an
  optional content-addressed LRU cache (keyed by frame bytes + weight
  version) returns stored prefix activations for repeated pixels —
  both bit-identical by construction, with fused-batch and hit/miss
  counters surfaced on :class:`ServingReport` (:class:`PrefixStats`).
* :func:`synthetic_workload` / :func:`static_stretch_workload` /
  :func:`poisson_arrival_times` / :func:`bursty_arrival_times` /
  :func:`slack_deadlines` — deterministic mixed-scenario traffic
  (plain or duplicate-frame repeated scenes), arrival processes, and
  deadline assignment.

Every execution path produces bit-identical per-clip results; the choice
is purely a throughput knob.  ``benchmarks/bench_runtime_throughput.py``
and ``benchmarks/bench_serving.py`` measure the paths against serial
execution.
"""

from .batched import (
    BatchedPipeline,
    WorkloadResult,
    run_workload,
)
from .frontdoor import (
    AutoscaleDecision,
    AutoscalePolicy,
    Autoscaler,
    BackpressureError,
    FrontDoor,
    IteratorSource,
    ListSource,
    QueueSource,
    RequestSource,
    ScaleEvent,
    ServerConfig,
    as_request_source,
)
from .serving import (
    ClipRequest,
    DuplicateRequestError,
    LaneRoutingError,
    LaneWorker,
    RequestRecord,
    Router,
    ServingReport,
    ServingRuntime,
    ShardInfo,
)
from .prefix_service import PrefixService, PrefixStats
from .spec import PAPER_MODES, PipelineSpec
from .stage_graph import PipelineContractError, PipelineStats, StageExecutor
from .supervision import (
    FailoverEvent,
    FaultEvent,
    FaultPlan,
    RequestShedError,
    ShardCrashError,
    ShardSupervisor,
    ShedRecord,
    SupervisorConfig,
)
from .workload import (
    bursty_arrival_times,
    poisson_arrival_times,
    slack_deadlines,
    static_stretch_workload,
    synthetic_workload,
)

__all__ = [
    "BatchedPipeline",
    "WorkloadResult",
    "run_workload",
    "ClipRequest",
    "ServerConfig",
    "FrontDoor",
    "RequestSource",
    "ListSource",
    "IteratorSource",
    "QueueSource",
    "as_request_source",
    "BackpressureError",
    "AutoscalePolicy",
    "AutoscaleDecision",
    "Autoscaler",
    "ScaleEvent",
    "DuplicateRequestError",
    "LaneRoutingError",
    "LaneWorker",
    "RequestRecord",
    "Router",
    "ServingReport",
    "ServingRuntime",
    "ShardInfo",
    "StageExecutor",
    "PipelineContractError",
    "PipelineStats",
    "PAPER_MODES",
    "PipelineSpec",
    "FaultEvent",
    "FaultPlan",
    "FailoverEvent",
    "RequestShedError",
    "ShardCrashError",
    "ShedRecord",
    "ShardSupervisor",
    "SupervisorConfig",
    "PrefixService",
    "PrefixStats",
    "synthetic_workload",
    "static_stretch_workload",
    "poisson_arrival_times",
    "bursty_arrival_times",
    "slack_deadlines",
]
