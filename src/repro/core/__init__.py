"""The paper's contribution: activation motion compensation and EVA2."""

from .amc import AMCConfig, AMCExecutor, PredictionStats
from .delta import DeltaExecutor, DeltaFrameStats
from .keyframe import (
    AlwaysKeyPolicy,
    KeyFramePolicy,
    MatchErrorPolicy,
    MotionMagnitudePolicy,
    NeverKeyPolicy,
    StaticPolicy,
)
from .pipeline import EVA2Pipeline, FrameRecord, PipelineResult
from .receptive_field import ReceptiveField, propagate, receptive_field_of
from .rfbme import (
    OpCounts,
    RFBMEConfig,
    RFBMEEngine,
    RFBMEResult,
    estimate_motion,
)
from .stages import LaneSlot, LaneState, PlanHandle, StepBatch
from .warp import scale_to_activation, warp_activation

__all__ = [
    "AMCConfig",
    "AMCExecutor",
    "PredictionStats",
    "DeltaExecutor",
    "DeltaFrameStats",
    "AlwaysKeyPolicy",
    "KeyFramePolicy",
    "MatchErrorPolicy",
    "MotionMagnitudePolicy",
    "NeverKeyPolicy",
    "StaticPolicy",
    "EVA2Pipeline",
    "FrameRecord",
    "PipelineResult",
    "ReceptiveField",
    "propagate",
    "receptive_field_of",
    "OpCounts",
    "RFBMEConfig",
    "RFBMEEngine",
    "RFBMEResult",
    "estimate_motion",
    "LaneSlot",
    "LaneState",
    "PlanHandle",
    "StepBatch",
    "scale_to_activation",
    "warp_activation",
]
