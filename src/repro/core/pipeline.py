"""The EVA2 per-frame execution pipeline — paper Fig. 6.

For every incoming frame the vision processing unit:

1. runs RFBME against the stored key frame once one exists — its match
   error feeds the key-frame decision and its field the warp.  The
   always-key baseline reads neither, so none of its frames is estimated
   (:attr:`~repro.core.keyframe.KeyFramePolicy.estimates`),
2. asks the key-frame policy for a decision,
3. runs either the full CNN (key) or warp + suffix (predicted).

:class:`EVA2Pipeline` executes that loop over a clip and produces
:class:`FrameRecord` entries carrying everything downstream consumers
need: task outputs for the accuracy metrics, and operation counts for the
hardware energy/latency model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..video.generator import VideoClip
from .amc import AMCExecutor
from .keyframe import KeyFramePolicy
from .rfbme import OpCounts, RFBMEResult

__all__ = ["FrameRecord", "PipelineResult", "EVA2Pipeline"]


@dataclass
class FrameRecord:
    """Execution trace of one frame."""

    index: int
    is_key: bool
    #: network output, batch dim squeezed: (num_outputs,).
    output: np.ndarray
    #: RFBME adder ops; None where the frame was not estimated: frame 0
    #: (nothing to match against) and every always-key frame.
    estimation_ops: Optional[OpCounts]
    #: aggregate block-match error (key-frame signal), None likewise.
    match_error: Optional[float]
    #: total motion magnitude, None likewise.
    motion_magnitude: Optional[float]

    @classmethod
    def from_step(
        cls,
        index: int,
        is_key: bool,
        output: np.ndarray,
        estimation: Optional[RFBMEResult],
    ) -> "FrameRecord":
        """Build the record for one executed frame.

        Shared by the serial pipeline and the lockstep runtime
        (:class:`repro.runtime.BatchedPipeline`) so both trace frames
        identically.
        """
        return cls(
            index=index,
            is_key=is_key,
            output=output[0],
            estimation_ops=estimation.ops if estimation else None,
            match_error=(
                estimation.total_match_error if estimation else None
            ),
            motion_magnitude=(
                estimation.total_motion_magnitude if estimation else None
            ),
        )


@dataclass
class PipelineResult:
    """All frame records for one clip plus convenience accessors."""

    records: List[FrameRecord]

    def __len__(self) -> int:
        return len(self.records)

    def outputs(self) -> np.ndarray:
        """(T, num_outputs) stacked network outputs."""
        return np.stack([record.output for record in self.records])

    def key_mask(self) -> np.ndarray:
        """(T,) boolean array, True where the frame ran precisely."""
        return np.array([record.is_key for record in self.records])

    @property
    def num_key_frames(self) -> int:
        return int(self.key_mask().sum())

    @property
    def key_fraction(self) -> float:
        """Fraction of frames executed precisely (the paper's 'keys')."""
        return self.num_key_frames / max(len(self.records), 1)


class EVA2Pipeline:
    """Run live-vision clips through AMC under a key-frame policy."""

    def __init__(self, executor: AMCExecutor, policy: KeyFramePolicy):
        self.executor = executor
        self.policy = policy

    def run_clip(self, clip: VideoClip) -> PipelineResult:
        """Process every frame of ``clip``; state resets at clip start."""
        self.executor.reset()
        self.policy.reset()
        records: List[FrameRecord] = []

        for index in range(len(clip)):
            frame = clip.frames[index]
            estimation: Optional[RFBMEResult] = None
            if self.policy.estimates and self.executor.has_key:
                estimation = self.executor.estimate(frame)

            is_key = self.policy.decide(index, estimation)
            if is_key:
                output = self.executor.process_key(frame)
            else:
                output = self.executor.process_predicted(frame, estimation)

            records.append(
                FrameRecord.from_step(index, is_key, output, estimation)
            )
        return PipelineResult(records=records)

    def run_clips(self, clips) -> List[PipelineResult]:
        """Process clips one after another on this pipeline instance.

        Each clip is independent: executor and policy state reset at every
        clip boundary, so results match running each clip alone. This is
        the simple serial path — for multi-clip workloads prefer
        :mod:`repro.runtime`, whose :class:`~repro.runtime.BatchedPipeline`
        produces bit-identical results while batching the RFBME hot path
        across clips.
        """
        return [self.run_clip(clip) for clip in clips]
