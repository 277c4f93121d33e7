"""Picklable pipeline descriptions for the runtime layer.

Worker processes cannot receive live :class:`~repro.core.EVA2Pipeline`
objects (they hold networks and scratch buffers), so sharded serving ships
a :class:`PipelineSpec` — a frozen, picklable recipe — and each shard
process builds its own pipeline from it.  The same spec drives the serial,
lockstep, and serving paths, which is what makes their results comparable
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core import (
    AMCConfig,
    AMCExecutor,
    AlwaysKeyPolicy,
    EVA2Pipeline,
    KeyFramePolicy,
    MatchErrorPolicy,
    MotionMagnitudePolicy,
    NeverKeyPolicy,
    StaticPolicy,
)
from ..core.rfbme import RFBMEConfig

__all__ = ["PipelineSpec", "PAPER_MODES"]

#: network -> AMC mode the paper pairs it with (§IV-E1: classification
#: memoizes, detection warps).
PAPER_MODES = {
    "mini_alexnet": "memoize",
    "mini_fasterm": "warp",
    "mini_faster16": "warp",
}

_POLICIES = ("match_error", "motion", "static", "always", "never")


@dataclass(frozen=True)
class PipelineSpec:
    """Everything needed to (re)build one EVA2 pipeline, anywhere.

    Plain data only — safe to pickle into worker processes and cheap to
    hash/compare.  ``build()`` trains or loads the zoo network on first
    use (the on-disk model cache makes rebuilds byte-identical).
    """

    network: str = "mini_fasterm"
    #: AMC mode; None selects the paper's mode for the network.
    mode: Optional[str] = None
    #: key-frame policy: one of match_error / motion / static / always / never.
    policy: str = "match_error"
    #: threshold for the adaptive policies.
    threshold: float = 2.0
    #: interval for the static policy.
    interval: int = 4
    #: RFBME search parameters.
    search_radius: int = 12
    search_stride: int = 2
    #: RFBME host backend; None = fastest available (see repro.core.rfbme).
    rfbme_backend: Optional[str] = None
    #: CNN arithmetic ("float64"/"float32"/"int8"/"q16"); the quantized
    #: lanes trade bit-identity for throughput under a calibrated
    #: :class:`~repro.nn.quantize.QuantTolerance` contract.
    dtype: str = "float64"

    def __post_init__(self):
        if self.policy not in _POLICIES:
            raise ValueError(
                f"policy must be one of {_POLICIES}, got {self.policy!r}"
            )
        if self.network not in PAPER_MODES:
            raise ValueError(
                f"network must be one of {sorted(PAPER_MODES)}, "
                f"got {self.network!r}"
            )
        # Fail on a bad backend or policy parameter now, not minutes
        # later when the first predicted frame lazily builds the RFBME
        # engine or the first clip (maybe in a shard process) builds
        # its policy.
        self.amc_config()
        self.build_policy()

    # ------------------------------------------------------------------ #
    def amc_config(self) -> AMCConfig:
        mode = self.mode or PAPER_MODES[self.network]
        return AMCConfig(
            mode=mode,
            rfbme=RFBMEConfig(self.search_radius, self.search_stride),
            rfbme_backend=self.rfbme_backend,
            dtype=self.dtype,
        )

    def build_policy(self) -> KeyFramePolicy:
        if self.policy == "match_error":
            return MatchErrorPolicy(self.threshold)
        if self.policy == "motion":
            return MotionMagnitudePolicy(self.threshold)
        if self.policy == "static":
            return StaticPolicy(self.interval)
        if self.policy == "always":
            return AlwaysKeyPolicy()
        return NeverKeyPolicy()

    def build_executor(self, network=None) -> AMCExecutor:
        """An executor on the zoo network, or on a caller-shared one.

        Executors never mutate the network, so the lockstep runtime passes
        one shared instance to avoid per-clip weight copies.
        """
        if network is None:
            from ..nn.train import get_trained_network

            network = get_trained_network(self.network)
        return AMCExecutor(network, self.amc_config())

    def shared_network(self):
        """The cached zoo network without a defensive parameter copy."""
        from ..nn.train import get_trained_network

        return get_trained_network(self.network, fresh_copy=False)

    def build(self) -> EVA2Pipeline:
        return EVA2Pipeline(self.build_executor(), self.build_policy())

    def warm(self) -> None:
        """Train/load the network into the on-disk cache.

        Call in the parent before spawning shard processes so they load
        the cached weights instead of racing to train.
        """
        self.shared_network()
