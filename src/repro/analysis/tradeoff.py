"""Accuracy/efficiency trade-off sweeps — Table I and Fig. 15.

The paper's ``hi`` / ``med`` / ``lo`` configurations come from sweeping the
adaptive key-frame threshold on the *validation* set, picking the largest
threshold (fewest key frames) whose accuracy drop stays under a budget
(<0.5%, <1%, <2%), then reporting accuracy and cost on the *test* set.
This module implements that protocol end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.amc import AMCExecutor
from ..core.keyframe import (
    KeyFramePolicy,
    MatchErrorPolicy,
    MotionMagnitudePolicy,
)
from ..core.pipeline import EVA2Pipeline
from ..video.generator import VideoClip
from .evaluation import score_pipeline_results

__all__ = [
    "SweepPoint",
    "TradeoffConfig",
    "sweep_thresholds",
    "select_configs",
]

#: Policy constructors by metric name (Fig. 15 compares the two).
POLICY_FACTORIES: Dict[str, Callable[[float], KeyFramePolicy]] = {
    "match_error": lambda threshold: MatchErrorPolicy(threshold),
    "motion_magnitude": lambda threshold: MotionMagnitudePolicy(threshold),
}


@dataclass(frozen=True)
class SweepPoint:
    """One threshold's outcome on a clip set."""

    threshold: float
    key_fraction: float
    accuracy: float


@dataclass(frozen=True)
class TradeoffConfig:
    """A named operating point (Table I row)."""

    name: str
    threshold: float
    key_fraction: float
    accuracy: float


def run_policy(
    executor: AMCExecutor,
    policy: KeyFramePolicy,
    clips: Sequence[VideoClip],
    task: str,
):
    """Run ``policy`` over all clips; return (accuracy, key_fraction)."""
    pipeline = EVA2Pipeline(executor, policy)
    results = pipeline.run_clips(clips)
    accuracy = score_pipeline_results(task, results, clips)
    total = sum(len(result) for result in results)
    keys = sum(result.num_key_frames for result in results)
    return accuracy, keys / max(total, 1)


def sweep_thresholds(
    executor: AMCExecutor,
    clips: Sequence[VideoClip],
    task: str,
    thresholds: Sequence[float],
    metric: str = "match_error",
) -> List[SweepPoint]:
    """Evaluate every threshold of an adaptive policy on ``clips``."""
    if metric not in POLICY_FACTORIES:
        raise ValueError(
            f"metric must be one of {sorted(POLICY_FACTORIES)}, got {metric!r}"
        )
    points = []
    for threshold in thresholds:
        accuracy, key_fraction = run_policy(
            executor, POLICY_FACTORIES[metric](threshold), clips, task
        )
        points.append(
            SweepPoint(
                threshold=float(threshold),
                key_fraction=key_fraction,
                accuracy=accuracy,
            )
        )
    return points


def select_configs(
    points: Sequence[SweepPoint],
    baseline_accuracy: float,
    budgets: Optional[Dict[str, float]] = None,
) -> Dict[str, TradeoffConfig]:
    """Pick Table I's hi/med/lo configs from validation sweep points.

    For each budget, choose the point with the fewest key frames whose
    accuracy drop is within budget; fall back to the most accurate point
    when none qualifies.
    """
    if not points:
        raise ValueError("no sweep points to select from")
    if budgets is None:
        budgets = {"hi": 0.005, "med": 0.01, "lo": 0.02}

    configs = {}
    for name, budget in budgets.items():
        eligible = [
            p for p in points if baseline_accuracy - p.accuracy <= budget
        ]
        if eligible:
            chosen = min(eligible, key=lambda p: p.key_fraction)
        else:
            chosen = max(points, key=lambda p: p.accuracy)
        configs[name] = TradeoffConfig(
            name=name,
            threshold=chosen.threshold,
            key_fraction=chosen.key_fraction,
            accuracy=chosen.accuracy,
        )
    return configs
