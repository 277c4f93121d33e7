"""Key-frame selection policies — paper §II-C4, §IV-E5.

EVA2 decides per frame whether to run the full CNN (key frame) or the
cheap AMC prediction. The paper evaluates:

* a static key-frame rate (every n-th frame),
* adaptive selection on the aggregate block-match error (the byproduct of
  RFBME chosen for the hardware because it is free), and
* adaptive selection on the total motion magnitude.

EVA2 runs motion estimation first (Fig. 6), because two things read its
estimate: the decision and the warp of a predicted frame. So policies see
the :class:`~repro.core.rfbme.RFBMEResult` for the incoming frame and
return the decision. :class:`AlwaysKeyPolicy`, the ``orig`` baseline,
reads neither; its class sets :attr:`KeyFramePolicy.estimates` to False,
and the pipelines estimate none of its frames. Frame 0 is always a key
frame — there is nothing to predict from.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from .rfbme import RFBMEResult

__all__ = [
    "KeyFramePolicy",
    "AlwaysKeyPolicy",
    "NeverKeyPolicy",
    "StaticPolicy",
    "MatchErrorPolicy",
    "MotionMagnitudePolicy",
]


class KeyFramePolicy(ABC):
    """Decides, per frame, between precise and predicted execution."""

    #: whether any frame after frame 0 is motion-estimated for this
    #: policy.  A class-level fact: every pipeline reads it to skip
    #: RFBME for policies that neither decide from the estimate nor
    #: ever warp.
    estimates: bool = True

    def reset(self) -> None:
        """Clear inter-frame state (start of a new clip)."""
        self._frames_since_key = 0

    def __init__(self):
        self._frames_since_key = 0

    def decide(self, frame_index: int, estimation: Optional[RFBMEResult]) -> bool:
        """Return True to run ``frame_index`` as a key frame.

        ``estimation`` is None for frame 0 (no stored key frame yet), and
        for every frame when the policy's class sets :attr:`estimates`
        to False.
        """
        if frame_index == 0 or estimation is None:
            self._frames_since_key = 0
            return True
        key = self._decide(estimation)
        if key:
            self._frames_since_key = 0
        else:
            self._frames_since_key += 1
        return key

    @abstractmethod
    def _decide(self, estimation: RFBMEResult) -> bool:
        """Policy-specific decision for a non-initial frame."""


class AlwaysKeyPolicy(KeyFramePolicy):
    """Every frame is precise — the paper's ``orig`` baseline.

    It never decides from an estimate and never warps, so no frame is
    estimated: its records carry no estimation and no RFBME adds.
    """

    estimates = False

    def _decide(self, estimation: RFBMEResult) -> bool:
        return True


class NeverKeyPolicy(KeyFramePolicy):
    """Only frame 0 is precise — the worst-case 'old key frame' bound
    used in Fig. 14."""

    def _decide(self, estimation: RFBMEResult) -> bool:
        return False


class StaticPolicy(KeyFramePolicy):
    """Fixed key-frame interval: every ``interval``-th frame is a key."""

    def __init__(self, interval: int):
        super().__init__()
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.interval = interval

    def _decide(self, estimation: RFBMEResult) -> bool:
        return self._frames_since_key + 1 >= self.interval


class _AdaptivePolicy(KeyFramePolicy):
    """Shared threshold + forced-refresh logic for the adaptive policies."""

    def __init__(self, threshold: float, max_gap: Optional[int] = None):
        super().__init__()
        if not threshold >= 0:  # also rejects NaN, which no metric exceeds
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        if max_gap is not None and max_gap < 1:
            raise ValueError(f"max_gap must be >= 1, got {max_gap}")
        self.threshold = threshold
        self.max_gap = max_gap

    def _decide(self, estimation: RFBMEResult) -> bool:
        if self.max_gap is not None and self._frames_since_key + 1 >= self.max_gap:
            return True
        return self._metric(estimation) > self.threshold

    def _metric(self, estimation: RFBMEResult) -> float:
        raise NotImplementedError


class MatchErrorPolicy(_AdaptivePolicy):
    """Key frame when aggregate RFBME match error exceeds the threshold.

    This is the metric EVA2 implements in hardware: the minimum differences
    are byproducts of block matching (§IV-E5). High aggregate error means
    motion estimation failed to explain the frame (occlusion, lighting).
    """

    def _metric(self, estimation: RFBMEResult) -> float:
        return estimation.total_match_error


class MotionMagnitudePolicy(_AdaptivePolicy):
    """Key frame when the summed motion-vector magnitude exceeds the
    threshold: predictions are less trustworthy when the scene moves a lot.
    """

    def _metric(self, estimation: RFBMEResult) -> float:
        return estimation.total_motion_magnitude
