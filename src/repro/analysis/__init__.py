"""Analysis helpers: first-order models and accuracy/efficiency sweeps."""

from .evaluation import (
    classification_score,
    decode_detections,
    detection_score,
    score_pipeline_results,
)
from .first_order import FirstOrderReport, first_order_report
from .tradeoff import (
    SweepPoint,
    TradeoffConfig,
    run_policy,
    select_configs,
    sweep_thresholds,
)

__all__ = [
    "classification_score",
    "decode_detections",
    "detection_score",
    "score_pipeline_results",
    "FirstOrderReport",
    "first_order_report",
    "SweepPoint",
    "TradeoffConfig",
    "run_policy",
    "select_configs",
    "sweep_thresholds",
]
