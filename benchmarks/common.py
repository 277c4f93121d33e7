"""Shared experiment machinery for the benchmark suite.

Everything heavyweight (clip sets, trained networks, threshold sweeps) is
memoised so that benches sharing inputs — Fig. 13, Table I, and Fig. 15
all need key-frame sweeps — compute them once per pytest run.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis import run_policy, select_configs, sweep_thresholds
from repro.core import AMCConfig, AMCExecutor, AlwaysKeyPolicy
from repro.nn.train import get_trained_network
from repro.video import build_clipset

#: mini network -> (paper network, task, AMC mode).
NETWORK_MAP = {
    "mini_alexnet": ("AlexNet", "classification", "memoize"),
    "mini_fasterm": ("FasterM", "detection", "warp"),
    "mini_faster16": ("Faster16", "detection", "warp"),
}

#: evaluation clip budget: large enough for stable mAP, small enough to
#: keep the full bench suite in minutes.
EVAL_CLIPS_PER_SCENARIO = 3
EVAL_FRAMES_PER_CLIP = 12

#: quantiles of the observed per-frame metric used as sweep thresholds.
#: Self-calibrating: the metric's scale depends on frame size and texture,
#: so absolute thresholds would not transfer across substrates.
SWEEP_QUANTILES = (0.15, 0.35, 0.55, 0.75, 0.9)

#: accuracy-drop budgets for hi/med/lo. The paper uses 0.5/1/2 points on
#: YTBB-scale test sets; our test split is ~250 frames, so mAP noise is
#: larger and the budgets are doubled to keep the selection meaningful.
BUDGETS = {"hi": 0.01, "med": 0.02, "lo": 0.04}


@lru_cache(maxsize=None)
def eval_clips(split: str) -> Tuple:
    """The evaluation clip set for a split (cached, deterministic)."""
    clipset = build_clipset(
        split,
        clips_per_scenario=EVAL_CLIPS_PER_SCENARIO,
        num_frames=EVAL_FRAMES_PER_CLIP,
    )
    return tuple(clipset.clips)


@lru_cache(maxsize=None)
def executor_for(name: str) -> AMCExecutor:
    """A fresh AMC executor on the zoo network, in its paper AMC mode."""
    _, _, mode = NETWORK_MAP[name]
    return AMCExecutor(get_trained_network(name), AMCConfig(mode=mode))


@lru_cache(maxsize=None)
def baseline_accuracy(name: str, split: str = "test") -> float:
    """Accuracy with every frame precise (the paper's ``orig``)."""
    _, task, _ = NETWORK_MAP[name]
    accuracy, _ = run_policy(
        executor_for(name), AlwaysKeyPolicy(), eval_clips(split), task
    )
    return accuracy


@lru_cache(maxsize=None)
def metric_samples(name: str, metric: str = "match_error") -> Tuple[float, ...]:
    """Per-frame values of an adaptive metric at gap 1 on validation.

    Each sample is RFBME between a frame and the one before it — what an
    adaptive policy reads on the frame after a key frame — computed on
    the executor's engine directly (no pipeline run estimates every
    frame: the all-key-frames baseline estimates none).  These set the
    threshold scale for the sweeps.
    """
    engine = executor_for(name).rfbme_engine
    values: List[float] = []
    for clip in eval_clips("val"):
        for index in range(1, len(clip)):
            estimation = engine.estimate(
                clip.frames[index - 1], clip.frames[index]
            )
            values.append(
                estimation.total_match_error
                if metric == "match_error"
                else estimation.field.total_magnitude()
            )
    return tuple(values)


@lru_cache(maxsize=None)
def sweep_grid(name: str, metric: str = "match_error") -> Tuple[float, ...]:
    """Threshold grid: data quantiles plus extremes.

    Under prediction the metric grows with the key-frame gap, so the grid
    extends above the gap-1 maximum; 0 forces all-keys and a huge value
    forces all-predicted, anchoring both ends of the Fig. 15 curves.
    """
    samples = np.asarray(metric_samples(name, metric))
    quantiles = [float(np.quantile(samples, q)) for q in SWEEP_QUANTILES]
    peak = float(samples.max())
    return tuple([0.0] + quantiles + [1.5 * peak, 3.0 * peak, 1e12])


@lru_cache(maxsize=None)
def threshold_sweep(name: str, split: str, metric: str = "match_error"):
    """Sweep the adaptive policy's threshold on a split (cached)."""
    _, task, _ = NETWORK_MAP[name]
    return tuple(
        sweep_thresholds(
            executor_for(name),
            eval_clips(split),
            task,
            thresholds=sweep_grid(name, metric),
            metric=metric,
        )
    )


@lru_cache(maxsize=None)
def table1_configs(name: str) -> Dict:
    """hi/med/lo operating points: thresholds chosen on validation, then
    re-measured on the test split (the paper's protocol)."""
    _, task, _ = NETWORK_MAP[name]
    val_points = threshold_sweep(name, "val")
    configs = select_configs(
        val_points, baseline_accuracy(name, "val"), budgets=BUDGETS
    )

    from repro.analysis.tradeoff import POLICY_FACTORIES, TradeoffConfig

    measured = {}
    for label, config in configs.items():
        accuracy, key_fraction = run_policy(
            executor_for(name),
            POLICY_FACTORIES["match_error"](config.threshold),
            eval_clips("test"),
            task,
        )
        measured[label] = TradeoffConfig(
            name=label,
            threshold=config.threshold,
            key_fraction=key_fraction,
            accuracy=accuracy,
        )
    return measured
