"""Activation motion compensation executor — paper §II.

:class:`AMCExecutor` wraps a CNN with the key/predicted frame machinery:

* **key frame** — run the full network precisely; store the input pixels
  (reference for motion estimation) and the target layer's activation.
* **predicted frame** — run RFBME against the stored pixels, scale the
  vector field by the receptive-field stride, warp the stored activation,
  and run only the CNN suffix.

The executor supports the design-space knobs the paper evaluates: target
layer (Table II), bilinear vs nearest interpolation (§II-C3), warping vs
memoization (§IV-E1), a fixed-point warp datapath (§III-B), and pluggable
motion estimators (Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Optional

import numpy as np

from ..hardware.fixed_point import QFormat
from ..motion.vector_field import VectorField
from ..nn.network import Network
from .receptive_field import ReceptiveField, receptive_field_of
from .rfbme import BACKENDS, RFBMEConfig, RFBMEEngine, RFBMEResult
from .warp import _INTERPOLATIONS, scale_to_activation, warp_activation

__all__ = ["AMCConfig", "AMCExecutor", "PredictionStats"]

_MODES = ("warp", "memoize")
_DTYPES = ("float64", "float32", "int8", "q16")


@dataclass(frozen=True)
class AMCConfig:
    """Design-space configuration for one AMC deployment."""

    #: AMC target layer; None selects the network's last spatial layer.
    target_layer: Optional[str] = None
    #: 'bilinear' (hardware default) or 'nearest'.
    interpolation: str = "bilinear"
    #: 'warp' (motion compensation) or 'memoize' (reuse the stored
    #: activation untouched — the right choice for classification, §IV-E1).
    mode: str = "warp"
    #: optional fixed-point format for the warp datapath.
    fixed_point: Optional[QFormat] = None
    #: RFBME search parameters.
    rfbme: RFBMEConfig = dataclass_field(default_factory=RFBMEConfig)
    #: RFBME host backend ("kernel"/"batched"/"loop"); None picks the
    #: fastest available. All backends are bit-identical — this knob
    #: exists for benchmarking and regression testing.
    rfbme_backend: Optional[str] = None
    #: CNN arithmetic of the compiled
    #: :class:`~repro.nn.inference.InferencePlan` that runs prefix and
    #: suffix: "float64" (default, bit-identical contract), "float32"
    #: (tolerance-verified), or the quantized lanes "int8" / "q16"
    #: (calibrated fixed-point plans with an explicit
    #: :class:`~repro.nn.quantize.QuantTolerance` contract — the
    #: paper's accuracy-for-throughput knob).
    dtype: str = "float64"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.interpolation not in _INTERPOLATIONS:
            raise ValueError(
                f"interpolation must be one of {_INTERPOLATIONS}, "
                f"got {self.interpolation!r}"
            )
        if self.rfbme_backend is not None and self.rfbme_backend not in BACKENDS:
            raise ValueError(
                f"rfbme_backend must be None or one of {BACKENDS}, "
                f"got {self.rfbme_backend!r}"
            )
        if self.dtype not in _DTYPES:
            raise ValueError(
                f"dtype must be one of {_DTYPES}, got {self.dtype!r}"
            )


@dataclass
class PredictionStats:
    """What one predicted frame cost and how the match looked."""

    estimation: Optional[RFBMEResult]
    warped: bool


class AMCExecutor:
    """AMC execution engine bound to one network."""

    def __init__(self, network: Network, config: Optional[AMCConfig] = None):
        self.network = network
        self.config = config or AMCConfig()
        self.target = self.config.target_layer or network.last_spatial_layer()
        network.validate_target(self.target)

        self.rf: ReceptiveField = receptive_field_of(network, self.target)
        target_shape = network.layer_output_shape(self.target)
        if len(target_shape) != 3:
            raise ValueError(
                f"target layer {self.target!r} is not spatial: {target_shape}"
            )
        self.channels, self.grid_h, self.grid_w = target_shape

        self._key_pixels: Optional[np.ndarray] = None
        self._key_activation: Optional[np.ndarray] = None
        self._engine: Optional[RFBMEEngine] = None

    def __getstate__(self):
        """Pickle without the RFBME engine (kernel scratch, workspaces).

        The engine is rebuilt lazily on first use, so an executor shipped
        to a worker process — e.g. inside a
        :class:`~repro.core.stages.LaneState` — resumes bit-identically
        without dragging compiled-kernel staging buffers through pickle.
        """
        state = self.__dict__.copy()
        state["_engine"] = None
        return state

    # ------------------------------------------------------------------ #
    @property
    def has_key(self) -> bool:
        """Whether a key frame has been stored."""
        return self._key_activation is not None

    @property
    def has_key_pixels(self) -> bool:
        """Whether key-frame pixels have been stored.

        Under the pipelined executor the two halves of key state are
        written at different times — pixels right after the step's
        decisions, the activation by its CNN prefix — so the next step's
        RFBME asks this, not :attr:`has_key`, which reads the activation
        the prefix may still be writing.
        """
        return self._key_pixels is not None

    @property
    def grid_shape(self):
        return (self.grid_h, self.grid_w)

    def reset(self) -> None:
        """Forget the stored key frame (start of a new clip)."""
        self._key_pixels = None
        self._key_activation = None

    def release(self) -> None:
        """Return this executor to the free pool (serving slot recycling).

        The serving runtime keeps a fixed set of executors alive as batch
        slots; when a clip departs mid-flight its slot is released — key
        state dropped so the next admitted clip starts exactly as a fresh
        executor would — while the engine and scratch buffers stay warm
        for the clip that takes the slot over.
        """
        self.reset()

    def stored_activation(self) -> np.ndarray:
        """Copy of the stored target activation (C, H, W)."""
        if self._key_activation is None:
            raise RuntimeError("no key frame stored")
        return self._key_activation.copy()

    def stored_pixels(self) -> np.ndarray:
        """The stored key-frame pixels (H, W), read-only view.

        The runtime layer pairs these with incoming frames to batch RFBME
        across many clips in one call; a locked view keeps that zero-copy
        without letting callers corrupt the stored key frame.
        """
        if self._key_pixels is None:
            raise RuntimeError("no key frame stored")
        view = self._key_pixels.view()
        view.flags.writeable = False
        return view

    @property
    def rfbme_engine(self) -> RFBMEEngine:
        """The reusable RFBME evaluator for this executor's geometry."""
        if self._engine is None:
            self._engine = RFBMEEngine(
                self.network.input_shape[1:],
                self.rf,
                self.grid_shape,
                config=self.config.rfbme,
                backend=self.config.rfbme_backend,
            )
        return self._engine

    @property
    def plan(self):
        """The compiled capacity-1 inference plan.

        Resolved through the network's plan cache on every access (a dict
        lookup) rather than held here, so ``Network.load_state_dict``'s
        invalidation reaches executors too — a stale reference would
        silently keep serving float32 snapshots of the old weights.
        """
        return self.network.inference_plan(max_batch=1, dtype=self.config.dtype)

    @property
    def key_activation(self) -> np.ndarray:
        """Read-only view of the stored target activation (C, H, W).

        The runtime layer stacks these across clips to warp and run the
        CNN suffix as one batch; the locked view keeps that zero-copy
        without letting callers corrupt the stored key state.
        """
        if self._key_activation is None:
            raise RuntimeError("no key frame stored")
        view = self._key_activation.view()
        view.flags.writeable = False
        return view

    def adopt_key_pixels(self, frame: np.ndarray) -> None:
        """Store a key frame's pixels (the RFBME reference).

        The first half of adopting a key frame computed externally; with
        :meth:`adopt_key_activation` the executor ends up exactly as if
        :meth:`process_key` had run this clip alone.  The lockstep and
        serving runtimes store pixels as soon as the step's decisions
        are known, so the next step's RFBME can start before this
        step's batched CNN prefix has run.
        """
        self._check_frame(frame, key=True)
        self._key_pixels = frame.copy()

    def adopt_key_activation(self, activation: np.ndarray) -> None:
        """Store a key frame's target activation computed externally.

        The second half of adopting a key frame: the runtimes run
        coincident key frames through one batched prefix call and hand
        each executor its row.
        """
        if activation.shape != (self.channels, self.grid_h, self.grid_w):
            raise ValueError(
                f"activation must be {(self.channels, self.grid_h, self.grid_w)}, "
                f"got {activation.shape}"
            )
        self._key_activation = activation.copy()

    # ------------------------------------------------------------------ #
    def process_key(self, frame: np.ndarray) -> np.ndarray:
        """Run ``frame`` (H, W grayscale) precisely; store pixels and the
        target activation; return the network output (1, ...)."""
        self._check_frame(frame, key=True)
        activation = self.plan.run_prefix(frame[None, None, :, :], self.target)
        output = self.plan.run_suffix(activation, self.target)
        self._key_pixels = frame.copy()
        self._key_activation = activation[0].copy()
        return output

    def estimate(self, frame: np.ndarray) -> RFBMEResult:
        """RFBME between the stored key pixels and ``frame``."""
        self._check_frame(frame)
        if self._key_pixels is None:
            raise RuntimeError("cannot estimate motion: no key frame stored")
        return self.rfbme_engine.estimate(self._key_pixels, frame)

    def predicted_activation(
        self,
        estimation: Optional[RFBMEResult] = None,
        pixel_field: Optional[VectorField] = None,
    ) -> np.ndarray:
        """The warped (or memoized) activation for a predicted frame.

        ``pixel_field`` overrides the RFBME field with an externally
        computed one (already at receptive-field granularity, pixel units)
        — how Fig. 14 plugs in Lucas–Kanade and dense-pyramid flow.
        """
        if self._key_activation is None:
            raise RuntimeError("cannot predict: no key frame stored")
        if self.config.mode == "memoize":
            return self._key_activation.copy()

        if pixel_field is None:
            if estimation is None:
                raise ValueError("warp mode needs an estimation or a pixel_field")
            pixel_field = estimation.field
        if pixel_field.grid_shape != self.grid_shape:
            raise ValueError(
                f"field grid {pixel_field.grid_shape} != activation grid "
                f"{self.grid_shape}"
            )
        activation_field = scale_to_activation(pixel_field, self.rf)
        return warp_activation(
            self._key_activation,
            activation_field,
            interpolation=self.config.interpolation,
            fixed_point=self.config.fixed_point,
        )

    def process_predicted(
        self,
        frame: np.ndarray,
        estimation: Optional[RFBMEResult] = None,
        pixel_field: Optional[VectorField] = None,
    ) -> np.ndarray:
        """Run ``frame`` as a predicted frame; return the network output.

        ``estimation`` may be supplied to avoid re-running RFBME when the
        key-frame controller already computed it; in warp mode with neither
        argument given, RFBME runs here.
        """
        self._check_frame(frame)
        if self.config.mode == "warp" and estimation is None and pixel_field is None:
            estimation = self.estimate(frame)
        activation = self.predicted_activation(estimation, pixel_field)
        return self.plan.run_suffix(activation[None], self.target)

    # ------------------------------------------------------------------ #
    def prefix_macs(self) -> int:
        """MACs a predicted frame skips."""
        return self.network.prefix_macs(self.target)

    def suffix_macs(self) -> int:
        """MACs every frame pays."""
        return self.network.suffix_macs(self.target)

    def _check_frame(self, frame: np.ndarray, key: bool = False) -> None:
        expected = self.network.input_shape[1:]
        if frame.ndim != 2 or frame.shape != expected:
            raise ValueError(
                f"frame must be {expected} grayscale, got {frame.shape}"
            )
        # Every frame an estimate reads passes RFBME's own pair check, but
        # the always-key baseline estimates none, so a frame that turned
        # non-finite after its clip was built is caught as it is stored.
        if key and not np.isfinite(frame).all():
            raise ValueError("key frame has non-finite pixels (NaN or inf)")
