"""The frame lifecycle step, in its one fixed order — and pipelined.

EVA²'s frame lifecycle is a fixed pipeline (paper Fig. 6): RFBME, the
key-frame decision, the CNN prefix for key frames or the AMC warp for
predicted ones, then the CNN suffix for everyone.  :class:`StageExecutor`
calls the stage functions of :mod:`repro.core.stages` in that order, in
three segments:

* **head** — ``stage_rfbme``, ``stage_decide``;
* **mid** — ``stage_adopt_pixels`` (key frames store their pixels);
* **tail** — ``stage_cnn_prefix``, ``stage_warp``, ``stage_cnn_suffix``,
  ``stage_record``.

Per-row results travel in a :class:`Step` record (the batch, its
estimations and decisions, and after the tail its frame records), all
aligned with ``batch.positions``.

**Pipelining.**  When the caller hands over the definite next batch and
at least one of its rows' policies estimates
(:attr:`~repro.core.keyframe.KeyFramePolicy.estimates`), the executor
launches that batch's head on a worker thread as soon as this step's mid
has run, overlapped with this step's tail — so RFBME, a GIL-releasing
compiled call on the hot backends, runs beside the CNN the way the
paper's RFBME unit runs beside the CNN accelerator.  A batch with no
estimating row (the always-key baseline) has only ``decide`` in its
head, which hides less than the handoff costs, so the next step runs it
inline.  The split is safe by the stages' declared resource sets: no
head stage writes anything a tail stage reads or writes, or reads
anything a tail stage writes.  ``stage_adopt_pixels`` writes the key
pixels the next ``stage_rfbme`` reads, which is why the launch waits for
it.
``tests/test_stage_executor.py`` checks these three facts on a running
pipelined workload.  Only the head touches the lane's RFBME engine, at
most one head is in flight, and each batch carries its own cursor
snapshot, so every output stays **bit-identical** to sequential
execution.

Every handoff is *definite*: the ``next_batch`` a step pipelines IS the
batch of the following step.  ``decide`` mutates policy state, so the
head's effects are permanent, and a following step that submits any
other batch raises :class:`PipelineContractError` before running
anything against it.  The lockstep driver's step stream is static, and
a serving worker hands a batch over only at provably stable membership
(full lane, no departure due).  :class:`PipelineStats` counts steps and
engaged overlaps per executor.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.pipeline import FrameRecord
from ..core.rfbme import RFBMEResult
from ..core.stages import (
    StepBatch,
    stage_adopt_pixels,
    stage_cnn_prefix,
    stage_cnn_suffix,
    stage_decide,
    stage_record,
    stage_rfbme,
    stage_warp,
)
from .blas import limit_openblas_threads

__all__ = [
    "Step",
    "StageExecutor",
    "PipelineContractError",
    "PipelineStats",
]


class PipelineContractError(RuntimeError):
    """A pipelined next-batch handoff broke the executor's contract.

    The batch submitted to the step after a pipelined one must be the
    exact ``next_batch`` object that was handed over: the head's effects
    (``decide`` mutates policy state) are permanent, so the executor
    stops before running anything against a mismatched batch.
    """


@dataclass
class PipelineStats:
    """What one :class:`StageExecutor` did with its overlap window.

    ``steps`` counts every :meth:`StageExecutor.begin_step` call;
    ``pipelined_steps`` the steps that consumed an in-flight head — the
    engaged overlaps.
    """

    steps: int = 0
    pipelined_steps: int = 0

    def merge(self, other: "PipelineStats") -> None:
        self.steps += other.steps
        self.pipelined_steps += other.pipelined_steps


@dataclass
class Step:
    """One lifecycle step: its batch and per-row results.

    Every list is aligned with ``batch.positions``.  ``records`` is
    ``None`` until :meth:`StageExecutor.finish_step` has run.
    """

    batch: StepBatch
    estimations: List[Optional[RFBMEResult]]
    decisions: List[bool]
    records: Optional[List[FrameRecord]] = None


def _estimates(batch: StepBatch) -> bool:
    """Whether any row's policy estimates: a head worth overlapping."""
    return any(batch.slot(k).policy.estimates for k in range(len(batch)))


def _run_head(batch: StepBatch) -> Step:
    estimations = stage_rfbme(batch)
    return Step(batch, estimations, stage_decide(batch, estimations))


class StageExecutor:
    """Runs lifecycle steps in the fixed order, pipelined where it pays.

    A handed-over next batch with an estimating row has its head run on
    a worker thread during this step's tail (see the module docstring);
    every other head runs inline at its own step.

    The first time any executor starts its head thread, the process's
    OpenBLAS pools drop to one thread each
    (:func:`~repro.runtime.blas.limit_openblas_threads`): OpenBLAS's
    helper thread spin-waits between GEMMs and would take the core the
    head thread needs.

    One executor serves one lane/driver at a time; it is not itself
    thread-safe (the worker thread is an implementation detail).
    """

    def __init__(self):
        #: (batch, future) of the in-flight head.
        self._inflight: Optional[Tuple[StepBatch, Future]] = None
        self._worker: Optional[ThreadPoolExecutor] = None
        #: per-executor pipelining counters.
        self.stats = PipelineStats()

    def reset_stats(self) -> None:
        """Start a fresh :class:`PipelineStats` window (per serve)."""
        self.stats = PipelineStats()

    # ------------------------------------------------------------------ #
    def _join(self, batch: StepBatch) -> Step:
        """The step with its head complete: joined, or run inline."""
        if self._inflight is None:
            return _run_head(batch)
        expected, future = self._inflight
        self._inflight = None
        step = future.result()  # a head failure surfaces first
        if expected is not batch:
            raise PipelineContractError(
                "the batch submitted to step() is not the next_batch "
                "the previous step pipelined; a handoff must be honoured "
                "(the head's effects are permanent)"
            )
        self.stats.pipelined_steps += 1
        return step

    def step(
        self, batch: StepBatch, next_batch: Optional[StepBatch] = None
    ) -> Step:
        """Execute one full step; optionally pipeline into the next.

        ``next_batch`` — when given and one of its rows estimates —
        launches the next step's head as soon as this step's mid has run,
        overlapped with this step's tail.  The handoff is definite: it
        MUST be the exact batch of the following :meth:`step` call,
        because the head's effects (policy state advanced by ``decide``)
        are applied permanently.  Pass ``next_batch=None`` when the next
        step is not certain.
        """
        return self.finish_step(self.begin_step(batch, next_batch))

    def begin_step(
        self, batch: StepBatch, next_batch: Optional[StepBatch] = None
    ) -> Step:
        """Phase 1 of a two-phase step: head and mid.

        Joins (or runs inline) the head, then stores this step's key
        pixels, so the returned step holds its final ``decisions``.  It
        then launches ``next_batch``'s head if one of its rows
        estimates; otherwise the next step runs that head inline.  A serve
        round may ``begin_step`` every lane, hand their key-frame
        requests to a shared
        :class:`~repro.runtime.prefix_service.PrefixService`, flush it
        once — overlapped with the lanes' next heads — and only then
        :meth:`finish_step` each lane.  :meth:`step` is exactly
        ``begin_step`` + ``finish_step``, so the two-phase round is
        bit-identical to sequential stepping.
        """
        self.stats.steps += 1
        step = self._join(batch)
        stage_adopt_pixels(batch, step.decisions)
        if next_batch is not None and _estimates(next_batch):
            if self._worker is None:
                limit_openblas_threads()
                self._worker = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="stage-head"
                )
            self._inflight = (
                next_batch, self._worker.submit(_run_head, next_batch)
            )
        return step

    def finish_step(self, step: Step) -> Step:
        """Phase 2 of a two-phase step: the tail.

        ``stage_cnn_prefix`` consults the batch's prefix service, if
        any, for rows staged by the round's flush.
        """
        batch, decisions, estimations = (
            step.batch, step.decisions, step.estimations
        )
        key_acts = stage_cnn_prefix(batch, decisions)
        pred_acts = stage_warp(batch, decisions, estimations)
        outputs = stage_cnn_suffix(batch, decisions, key_acts, pred_acts)
        step.records = stage_record(batch, decisions, estimations, outputs)
        return step

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
