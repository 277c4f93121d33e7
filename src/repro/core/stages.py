"""The frame lifecycle as pure stage functions over explicit lane state.

The paper's pipeline (Fig. 6) is a sequence of distinct phases — RFBME
motion estimation, the key-frame decision, the CNN prefix for key
frames, activation warping for predicted frames, the CNN suffix for
everyone.  Earlier releases executed that lifecycle as one opaque
function whose state lived in closures; this module makes each phase a
*pure stage function* over an explicit, picklable :class:`LaneState`, so
the runtime layer can run the phases in their fixed order (a
:class:`~repro.runtime.stage_graph.StageExecutor`), ship lane state to
worker processes (sharded serving), and run the next step's RFBME
against this step's CNN stages.

Contracts:

* **Explicit state.**  A stage reads and writes only its arguments: the
  :class:`StepBatch` working set (which slots take part in this step,
  their frames, the resolved inference plan) and the values produced by
  earlier stages.  The only state mutation is the one the lifecycle
  defines — a key frame being adopted by its executor, in two halves:
  its pixels in :func:`stage_adopt_pixels`, right after the decisions,
  and its target activation in :func:`stage_cnn_prefix`.
* **Declared effects.**  Every stage function declares which
  :class:`LaneState` *resources* it reads and writes (:data:`KEY_PIXELS`,
  :data:`KEY_STATE`, :data:`POLICY_STATE`, :data:`CURSOR_STATE`,
  :data:`ENGINE_SCRATCH`, :data:`PLAN_SCRATCH`) as its ``reads`` and
  ``writes`` attributes.  They are the proof behind the pipelined
  executor's split: step ``t+1``'s ``rfbme`` and ``decide`` touch
  nothing that step ``t``'s ``cnn_prefix``/``warp``/``cnn_suffix``/
  ``record`` write, or write anything those read, so they may run
  concurrently.  The tests verify each stage's write set at run time
  (``tests/write_set.py``).
* **Bit identity.**  Each stage performs exactly the array operations of
  the monolithic lockstep step it was extracted from, in the same order,
  so running the stages in sequence reproduces the serial per-clip
  pipeline bit for bit.  ``tests/test_stages.py`` asserts the
  slice-by-slice equivalence.
* **Picklability.**  :class:`LaneState` round-trips through ``pickle``:
  executors drop their lazily rebuilt RFBME engines, networks drop their
  compiled inference plans, and :class:`PlanHandle` re-resolves the plan
  from the network's cache on the other side.  Shipping a lane to a
  worker process preserves behaviour exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .amc import AMCExecutor
from .keyframe import KeyFramePolicy
from .pipeline import FrameRecord
from .rfbme import RFBMEEngine, RFBMEResult
from .warp import scale_to_activation, warp_activation_batch

__all__ = [
    "PlanHandle",
    "LaneSlot",
    "LaneState",
    "StepBatch",
    "KEY_PIXELS",
    "KEY_STATE",
    "POLICY_STATE",
    "CURSOR_STATE",
    "ENGINE_SCRATCH",
    "PLAN_SCRATCH",
    "stage_rfbme",
    "stage_decide",
    "stage_adopt_pixels",
    "stage_cnn_prefix",
    "stage_warp",
    "stage_cnn_suffix",
    "stage_record",
]

# --------------------------------------------------------------------- #
# LaneState resources (conflict analysis)
# --------------------------------------------------------------------- #
#: the executors' stored key-frame pixels — what ``rfbme`` matches new
#: frames against.  Written as soon as a step's decisions are known.
KEY_PIXELS = "key_pixels"
#: the executors' stored target activations — what ``warp`` moves.
#: Written by the step's CNN prefix.
KEY_STATE = "key_state"
#: the per-slot key-frame policies' inter-frame state.
POLICY_STATE = "policy_state"
#: the per-slot clip-local frame cursors.  Stages only ever *read*
#: cursors (through the batch's snapshot); the driver advances them
#: between steps.
CURSOR_STATE = "cursor_state"
#: the RFBME engine's producer/consumer workspaces.  Scratch: contents
#: never outlive one stage invocation — every backend returns arrays it
#: owns — and only ``rfbme`` touches it, at most one in flight per
#: executor, so one engine per lane serves overlapped steps too.
ENGINE_SCRATCH = "engine_scratch"
#: the compiled inference plan's im2col/GEMM scratch.  Scratch, same as
#: above — only ever touched by stages of the step that owns the plan
#: resolution, all of which run on the executor's driver thread.
PLAN_SCRATCH = "plan_scratch"


def _effects(reads=(), writes=()):
    """Attach declared LaneState read/write sets to a stage function."""

    def mark(fn):
        fn.reads = frozenset(reads)
        fn.writes = frozenset(writes)
        return fn

    return mark


@dataclass
class PlanHandle:
    """Picklable reference to a network's cached inference plan.

    Holding a live :class:`~repro.nn.inference.InferencePlan` inside lane
    state would pin megabytes of scratch into every pickle and bypass
    :meth:`~repro.nn.network.Network.load_state_dict` invalidation, so
    lane state stores this handle instead and re-resolves per step — a
    dict lookup through :meth:`~repro.nn.network.Network.inference_plan`,
    which grows capacity in place when the step needs more rows.
    """

    network: object
    dtype: str = "float64"

    def resolve(self, min_batch: int = 1):
        """The live plan, grown to at least ``min_batch`` capacity."""
        return self.network.inference_plan(max_batch=min_batch, dtype=self.dtype)


@dataclass
class LaneSlot:
    """One executor slot of a lane: warm executor, policy, clip cursor.

    ``policy`` is ``None`` while the slot is free (serving keeps
    executors warm across occupants); ``cursor`` is the clip-local index
    of the next frame to serve, which is what policies must see for
    results to match a serial run.
    """

    executor: AMCExecutor
    policy: Optional[KeyFramePolicy] = None
    cursor: int = 0


@dataclass
class LaneState:
    """Picklable execution state of one lane: slots plus the plan handle.

    This is everything the stage functions need that outlives a single
    step — the warm executor slots (with their stored key pixels and
    activations), the per-slot policies and cursors, and the handle to
    the lane's compiled inference plan.  Clips and request bookkeeping
    stay with the caller; pickling a ``LaneState`` mid-stream and
    resuming on the other side continues bit-identically.
    """

    slots: List[LaneSlot] = field(default_factory=list)
    plan: Optional[PlanHandle] = None

    @property
    def engine(self) -> RFBMEEngine:
        """The lane's shared RFBME engine (slot 0's, by convention).

        All slots share one geometry, so one engine's scratch workspace
        serves the whole lane — the same sharing the serving and lockstep
        runtimes have always used.
        """
        return self.slots[0].executor.rfbme_engine

    def occupied(self) -> List[int]:
        """Slot positions currently holding a clip (policy attached)."""
        return [i for i, slot in enumerate(self.slots) if slot.policy is not None]


@dataclass
class StepBatch:
    """The working set of one lifecycle step.

    ``positions`` index into ``state.slots`` (the slots taking part in
    this step, in slot order); ``frames`` holds each position's frame at
    its current cursor; ``plan`` is the resolved inference plan that runs
    the step's CNN prefix and suffix.

    ``cursors`` snapshots each position's clip-local frame index at batch
    construction.  With one step in flight at a time the snapshot equals
    ``slot.cursor`` (the fallback); under the pipelined executor two
    step contexts coexist — step ``t+1``'s ``decide`` needs cursor
    ``c+1`` while step ``t``'s ``record`` still needs ``c`` — so each
    context carries its own values instead of reading mutable slot state.

    ``prefix_service`` routes ``cnn_prefix`` through a shared
    :class:`~repro.runtime.prefix_service.PrefixService` (cross-lane
    fused batches + content-addressed cache); ``None`` keeps the
    direct per-batch ``plan.run_prefix`` call.
    """

    state: LaneState
    positions: Sequence[int]
    frames: Sequence[np.ndarray]
    plan: Optional[object] = None
    cursors: Optional[Sequence[int]] = None
    prefix_service: Optional[object] = None

    def __len__(self) -> int:
        return len(self.positions)

    def slot(self, k: int) -> LaneSlot:
        return self.state.slots[self.positions[k]]

    def cursor(self, k: int) -> int:
        """Position ``k``'s clip-local frame index for this step."""
        if self.cursors is not None:
            return self.cursors[k]
        return self.slot(k).cursor


# --------------------------------------------------------------------- #
# stage functions
# --------------------------------------------------------------------- #
@_effects(reads={KEY_PIXELS}, writes={ENGINE_SCRATCH})
def stage_rfbme(batch: StepBatch) -> List[Optional[RFBMEResult]]:
    """Batched RFBME for every slot with stored key pixels whose policy
    :attr:`~repro.core.keyframe.KeyFramePolicy.estimates`.

    Returns estimations aligned with ``batch.positions`` (``None`` for
    slots still waiting on their first key frame, and for every slot of
    the always-key baseline, which reads no estimate).  One
    :meth:`~repro.core.rfbme.RFBMEEngine.estimate_batch` call on the
    lane engine covers the whole step, exactly as the monolithic
    lockstep step did; a step with no ready slot makes no call, so the
    engine's calls count RFBME work.  Readiness is judged by the stored
    pixels alone: under the pipelined executor the previous step's CNN
    prefix may still be writing the activations on the other thread.  The policy
    is read only for its class-level fact, which no stage writes.
    """
    ready = [
        k
        for k in range(len(batch))
        if batch.slot(k).policy.estimates
        and batch.slot(k).executor.has_key_pixels
    ]
    estimations: List[Optional[RFBMEResult]] = [None] * len(batch)
    if not ready:
        return estimations  # no pair: the engine is not called
    results = batch.state.engine.estimate_batch(
        [
            (batch.slot(k).executor.stored_pixels(), batch.frames[k])
            for k in ready
        ]
    )
    for k, estimation in zip(ready, results):
        estimations[k] = estimation
    return estimations


@_effects(reads={POLICY_STATE, CURSOR_STATE}, writes={POLICY_STATE})
def stage_decide(
    batch: StepBatch, estimations: Sequence[Optional[RFBMEResult]]
) -> List[bool]:
    """Per-clip key-frame decisions at clip-local cursors."""
    return [
        batch.slot(k).policy.decide(batch.cursor(k), estimations[k])
        for k in range(len(batch))
    ]


@_effects(reads={KEY_PIXELS}, writes={KEY_PIXELS})
def stage_adopt_pixels(
    batch: StepBatch, decisions: Sequence[bool]
) -> List[int]:
    """Store the pixels of this step's key frames; return their positions.

    The first half of adopting a key frame, split from the CNN prefix so
    the next step's ``rfbme`` — which reads only pixels — can start
    while this step's prefix runs.  It runs on the driver thread, before
    the next step's head is launched: it writes the key pixels that
    ``rfbme`` reads.
    """
    keys = [k for k, is_key in enumerate(decisions) if is_key]
    for k in keys:
        batch.slot(k).executor.adopt_key_pixels(batch.frames[k])
    return keys


@_effects(reads={KEY_STATE, PLAN_SCRATCH}, writes={KEY_STATE, PLAN_SCRATCH})
def stage_cnn_prefix(
    batch: StepBatch, decisions: Sequence[bool]
) -> Optional[np.ndarray]:
    """One batched CNN-prefix call for this step's key frames.

    Each key slot adopts its row's target activation — the second half
    of the key-frame adoption :func:`stage_adopt_pixels` began.  Returns
    the stacked key activations, or ``None`` when no slot chose a key.
    """
    keys = [k for k, is_key in enumerate(decisions) if is_key]
    if not keys:
        return None
    if batch.prefix_service is not None:
        key_acts = batch.prefix_service.run_prefix(batch, keys)
    else:
        target = batch.slot(keys[0]).executor.target
        frames = np.stack([batch.frames[k] for k in keys])[:, None]
        key_acts = batch.plan.run_prefix(frames, target)
    for row, k in enumerate(keys):
        batch.slot(k).executor.adopt_key_activation(key_acts[row])
    return key_acts


@_effects(reads={KEY_STATE})
def stage_warp(
    batch: StepBatch,
    decisions: Sequence[bool],
    estimations: Sequence[Optional[RFBMEResult]],
) -> Optional[np.ndarray]:
    """Stacked predicted activations: warped (or memoized) key state.

    One :func:`~repro.core.warp.warp_activation_batch` call covers every
    predicted slot; memoize mode reuses the stacked stored activations
    untouched (§IV-E1).  Returns ``None`` when every slot chose a key.
    """
    preds = [k for k, is_key in enumerate(decisions) if not is_key]
    if not preds:
        return None
    executor0 = batch.slot(preds[0]).executor
    stored = np.stack([batch.slot(k).executor.key_activation for k in preds])
    if executor0.config.mode == "memoize":
        return stored
    fields = [
        scale_to_activation(estimations[k].field, batch.slot(k).executor.rf)
        for k in preds
    ]
    return warp_activation_batch(
        stored,
        fields,
        interpolation=executor0.config.interpolation,
        fixed_point=executor0.config.fixed_point,
    )


@_effects(reads={PLAN_SCRATCH}, writes={PLAN_SCRATCH})
def stage_cnn_suffix(
    batch: StepBatch,
    decisions: Sequence[bool],
    key_acts: Optional[np.ndarray],
    pred_acts: Optional[np.ndarray],
) -> np.ndarray:
    """One CNN-suffix call over the concatenated key/predicted rows.

    Returns outputs aligned with ``batch.positions`` (rows copied back
    from the key-then-predicted execution order, bitwise unchanged).
    """
    if key_acts is not None and pred_acts is not None:
        suffix_in = np.concatenate(
            [key_acts, pred_acts.astype(key_acts.dtype, copy=False)]
        )
    elif key_acts is not None:
        suffix_in = key_acts
    else:
        suffix_in = pred_acts
    target = batch.slot(0).executor.target
    outputs = batch.plan.run_suffix(suffix_in, target)

    keys = [k for k, is_key in enumerate(decisions) if is_key]
    preds = [k for k, is_key in enumerate(decisions) if not is_key]
    aligned = np.empty((len(batch),) + outputs.shape[1:], dtype=outputs.dtype)
    for row, k in enumerate(keys + preds):
        aligned[k] = outputs[row]
    return aligned


@_effects(reads={CURSOR_STATE})
def stage_record(
    batch: StepBatch,
    decisions: Sequence[bool],
    estimations: Sequence[Optional[RFBMEResult]],
    outputs: np.ndarray,
) -> List[FrameRecord]:
    """Per-frame trace records, aligned with ``batch.positions``."""
    return [
        FrameRecord.from_step(
            batch.cursor(k),
            decisions[k],
            outputs[k : k + 1],
            estimations[k],
        )
        for k in range(len(batch))
    ]
