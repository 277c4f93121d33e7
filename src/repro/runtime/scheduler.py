"""Clip-level scheduling over worker pools.

:class:`ClipScheduler` fans a multi-clip workload out over a configurable
pool — serial, thread-backed, or process-backed — while preserving input
order and per-clip semantics.  Clips are independent by construction
(executor and policy state reset at clip boundaries), so every backend
returns results identical to the serial path; the pool only changes
wall-clock time.

Worker amortization: each worker builds its pipeline once from the
shipped :class:`~repro.runtime.spec.PipelineSpec` (process initializer /
thread-local), so per-clip cost excludes network construction.  The
parent warms the model cache first so workers never race to train.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..core import EVA2Pipeline
from ..core.pipeline import PipelineResult
from ..video.generator import VideoClip
from .spec import PipelineSpec

__all__ = [
    "SchedulerConfig",
    "ClipScheduler",
    "ShardCrashError",
    "deal_shard_budget",
]


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


class ShardCrashError(RuntimeError):
    """A serving shard died (or stopped progressing) with work unresolved.

    Raised instead of hanging or silently dropping work: the message
    names what was lost and ``lost`` carries the request seqs whose
    results never arrived.
    """

    def __init__(self, message: str, lost: Sequence = ()):
        super().__init__(message)
        self.lost = tuple(lost)

_BACKENDS = ("auto", "serial", "thread", "process")

#: pipeline of the current worker process (set by the pool initializer).
_WORKER_PIPELINE: Optional[EVA2Pipeline] = None


def _init_process_worker(spec: PipelineSpec) -> None:
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = spec.build()


def _run_in_process_worker(clip: VideoClip) -> PipelineResult:
    return _WORKER_PIPELINE.run_clip(clip)


@dataclass(frozen=True)
class SchedulerConfig:
    """How to spread a workload over workers."""

    #: pool size; <= 1 means serial.
    workers: int = 0
    #: 'serial', 'thread', 'process', or 'auto' (process pool when the
    #: host has more than one core and more than one worker is requested).
    backend: str = "auto"

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")

    def resolve(self, num_clips: int) -> str:
        """The concrete backend for a workload of ``num_clips``."""
        if self.workers <= 1 or num_clips <= 1:
            return "serial"  # a pool of one is just the serial path
        if self.backend != "auto":
            return self.backend
        return "process" if (os.cpu_count() or 1) > 1 else "serial"


class ClipScheduler:
    """Order-preserving map of a pipeline over many clips."""

    def __init__(self, spec: PipelineSpec, config: Optional[SchedulerConfig] = None):
        self.spec = spec
        self.config = config or SchedulerConfig()

    def run(self, clips: Sequence[VideoClip]) -> List[PipelineResult]:
        """Process every clip; results arrive in input order.

        All backends produce identical results — clips never share state —
        so callers may treat backend purely as a throughput knob.
        """
        backend = self.config.resolve(len(clips))
        if backend == "serial":
            return self._run_serial(clips)
        if backend == "thread":
            return self._run_threads(clips)
        return self._run_processes(clips)

    # ------------------------------------------------------------------ #
    def _run_serial(self, clips: Sequence[VideoClip]) -> List[PipelineResult]:
        pipeline = self.spec.build()
        return pipeline.run_clips(clips)

    def _run_threads(self, clips: Sequence[VideoClip]) -> List[PipelineResult]:
        # Pipelines hold per-clip state (stored key frame, scratch
        # buffers), so each thread gets its own, built once and reused
        # for every clip that lands on that thread.
        self.spec.warm()
        local = threading.local()

        def run_one(clip: VideoClip) -> PipelineResult:
            if not hasattr(local, "pipeline"):
                local.pipeline = self.spec.build()
            return local.pipeline.run_clip(clip)

        with ThreadPoolExecutor(max_workers=self.config.workers) as pool:
            return list(pool.map(run_one, clips))

    def _run_processes(self, clips: Sequence[VideoClip]) -> List[PipelineResult]:
        self.spec.warm()  # workers load the cache instead of racing to train
        with ProcessPoolExecutor(
            max_workers=self.config.workers,
            initializer=_init_process_worker,
            initargs=(self.spec,),
        ) as pool:
            return list(pool.map(_run_in_process_worker, clips))
