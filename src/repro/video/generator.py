"""Synthetic annotated video clips.

A :class:`VideoClip` is the repo's stand-in for a YouTube-BoundingBoxes
segment: a (T, H, W) grayscale tensor in [0, 1] plus per-frame ground truth
(class id, bounding box, occlusion fraction). Generation is fully
deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import sprites
from .scenes import SceneConfig

__all__ = ["Annotation", "VideoClip", "generate_clip", "nonfinite_frame"]

#: Frame period implied by the paper's 30 fps decode (§IV-B).
FRAME_PERIOD_MS = 33.0


@dataclass(frozen=True)
class Annotation:
    """Ground truth for one frame."""

    class_id: int
    #: (cx, cy, w, h) in pixels, clipped to the frame.
    box: Tuple[float, float, float, float]
    #: fraction of the target sprite hidden by the occluder, in [0, 1].
    occluded_fraction: float = 0.0

    def corners(self) -> Tuple[float, float, float, float]:
        """(x0, y0, x1, y1) corner representation."""
        cx, cy, w, h = self.box
        return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def nonfinite_frame(frames: np.ndarray) -> Optional[int]:
    """Index of the first frame of a (T, H, W) stack holding a NaN or an
    infinity, or None when every pixel is finite."""
    finite = np.isfinite(frames)
    if finite.all():
        return None
    return int(np.argmin(finite.reshape(len(frames), -1).all(axis=1)))


@dataclass
class VideoClip:
    """Frames plus per-frame annotations.

    Every pixel must be finite: a NaN or an infinity would silently
    break key-frame refresh and backend bit-identity downstream, so
    construction rejects it with a ``ValueError`` naming the frame.
    """

    frames: np.ndarray  # (T, H, W), float64 in [0, 1]
    annotations: List[Annotation]
    scenario: str
    fps: float = 30.0

    def __post_init__(self):
        if self.frames.ndim != 3:
            raise ValueError(f"frames must be (T, H, W), got {self.frames.shape}")
        if len(self.annotations) != self.frames.shape[0]:
            raise ValueError(
                f"{len(self.annotations)} annotations for "
                f"{self.frames.shape[0]} frames"
            )
        bad = nonfinite_frame(self.frames)
        if bad is not None:
            raise ValueError(f"frame {bad} has non-finite pixels (NaN or inf)")

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def frame_gap_ms(self) -> float:
        return 1000.0 / self.fps

    def pairs_at_gap(self, gap: int):
        """Yield (earlier_index, later_index) frame pairs ``gap`` apart."""
        if gap < 1:
            raise ValueError(f"gap must be >= 1, got {gap}")
        for start in range(len(self) - gap):
            yield start, start + gap


class _MovingSprite:
    """Internal: one sprite with continuous position and bouncing walls."""

    def __init__(
        self,
        class_id: int,
        size: int,
        texture: np.ndarray,
        position: np.ndarray,
        velocity: np.ndarray,
        bounds: Tuple[int, int],
    ):
        self.class_id = class_id
        self.size = size
        self.mask = sprites.shape_mask(class_id, size)
        self.texture = texture
        self.position = position.astype(np.float64)  # sprite centre (x, y)
        self.velocity = velocity.astype(np.float64)
        self.bounds = bounds  # (height, width)

    def apply_drift(self, delta: np.ndarray) -> None:
        """Shift the sprite in frame coordinates (camera pan moves every
        scene element coherently), bouncing off the frame edges."""
        self.position += delta
        self._bounce()

    def step(self, config: SceneConfig, rng: np.random.Generator) -> None:
        if config.direction_change_prob > 0 and rng.random() < config.direction_change_prob:
            angle = rng.uniform(0, 2 * np.pi)
            speed = float(np.hypot(*self.velocity))
            self.velocity = np.array([np.cos(angle), np.sin(angle)]) * speed
        if config.acceleration > 0:
            self.velocity += rng.normal(0, config.acceleration, size=2)
            speed = float(np.hypot(*self.velocity))
            if speed > config.speed[1] * 2 and speed > 0:
                self.velocity *= (config.speed[1] * 2) / speed
        self.position += self.velocity
        self._bounce()

    def _bounce(self) -> None:
        height, width = self.bounds
        half = self.size / 2.0
        for axis, limit in ((0, width), (1, height)):
            low, high = half, limit - half
            if self.position[axis] < low:
                self.position[axis] = low + (low - self.position[axis])
                self.velocity[axis] *= -1
            elif self.position[axis] > high:
                self.position[axis] = high - (self.position[axis] - high)
                self.velocity[axis] *= -1
            self.position[axis] = float(np.clip(self.position[axis], low, high))

    def paste(self, canvas: np.ndarray) -> np.ndarray:
        """Render onto ``canvas`` in place; return the pasted pixel mask."""
        height, width = canvas.shape
        x0 = int(round(self.position[0] - self.size / 2.0))
        y0 = int(round(self.position[1] - self.size / 2.0))
        x1, y1 = x0 + self.size, y0 + self.size
        cx0, cy0 = max(x0, 0), max(y0, 0)
        cx1, cy1 = min(x1, width), min(y1, height)
        pasted = np.zeros_like(canvas, dtype=bool)
        if cx0 >= cx1 or cy0 >= cy1:
            return pasted
        sub_mask = self.mask[cy0 - y0 : cy1 - y0, cx0 - x0 : cx1 - x0] > 0
        sub_tex = self.texture[cy0 - y0 : cy1 - y0, cx0 - x0 : cx1 - x0]
        region = canvas[cy0:cy1, cx0:cx1]
        region[sub_mask] = sub_tex[sub_mask]
        pasted[cy0:cy1, cx0:cx1] = sub_mask
        return pasted

    def box(self) -> Tuple[float, float, float, float]:
        height, width = self.bounds
        half = self.size / 2.0
        x0 = max(self.position[0] - half, 0.0)
        y0 = max(self.position[1] - half, 0.0)
        x1 = min(self.position[0] + half, float(width))
        y1 = min(self.position[1] + half, float(height))
        return ((x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0)


def _make_sprite(
    config: SceneConfig,
    rng: np.random.Generator,
    class_id: Optional[int],
    bright: bool,
) -> _MovingSprite:
    size = int(rng.integers(config.sprite_size[0], config.sprite_size[1] + 1))
    if class_id is None:
        class_id = int(rng.integers(0, sprites.NUM_CLASSES))
    base = 0.5 + (config.sprite_contrast / 2 if bright else -config.sprite_contrast / 2)
    texture = np.clip(
        base + 0.25 * (sprites.smooth_noise_texture(size, size, rng, 3) - 0.5),
        0.0,
        1.0,
    )
    half = size / 2.0
    position = np.array(
        [
            rng.uniform(half, config.width - half),
            rng.uniform(half, config.height - half),
        ]
    )
    speed = rng.uniform(*config.speed)
    angle = rng.uniform(0, 2 * np.pi)
    velocity = np.array([np.cos(angle), np.sin(angle)]) * speed
    return _MovingSprite(
        class_id, size, texture, position, velocity, (config.height, config.width)
    )


def generate_clip(
    config: SceneConfig,
    seed: int,
    class_id: Optional[int] = None,
    num_frames: Optional[int] = None,
) -> VideoClip:
    """Generate one annotated clip for ``config``.

    ``class_id`` forces the target sprite's class (dataset balancing);
    ``num_frames`` overrides the scenario default.
    """
    rng = np.random.default_rng(seed)
    frames_total = num_frames if num_frames is not None else config.num_frames
    height, width = config.height, config.width

    # Oversized background so camera panning reveals real content, not
    # padding. Margin covers the farthest possible pan.
    pan_speed = rng.uniform(*config.pan_speed) if config.pan_speed[1] > 0 else 0.0
    pan_angle = rng.uniform(0, 2 * np.pi)
    pan_velocity = np.array([np.cos(pan_angle), np.sin(pan_angle)]) * pan_speed
    margin = int(np.ceil(abs(pan_speed) * frames_total)) + 2
    canvas_rng = np.random.default_rng(seed + 1)
    background = sprites.background_texture(
        height + 2 * margin, width + 2 * margin, canvas_rng, config.background
    )
    background = 0.5 + (background - 0.5) * config.background_contrast

    target = _make_sprite(config, rng, class_id, bright=True)
    occluder = _make_sprite(config, rng, None, bright=False) if config.occluder else None

    frames = np.empty((frames_total, height, width))
    annotations: List[Annotation] = []
    pan_offset = np.array([float(margin), float(margin)])

    for t in range(frames_total):
        ox = int(round(pan_offset[0]))
        oy = int(round(pan_offset[1]))
        frame = background[oy : oy + height, ox : ox + width].copy()

        target_mask = target.paste(frame)
        occluded_fraction = 0.0
        if occluder is not None:
            occ_mask = occluder.paste(frame)
            overlap = np.logical_and(target_mask, occ_mask).sum()
            total = target_mask.sum()
            occluded_fraction = float(overlap / total) if total else 0.0

        if config.lighting_amplitude > 0:
            gain = 1.0 + config.lighting_amplitude * np.sin(
                2 * np.pi * t / config.lighting_period
            )
            frame = frame * gain
        if config.noise_sigma > 0:
            frame = frame + rng.normal(0, config.noise_sigma, frame.shape)

        frames[t] = np.clip(frame, 0.0, 1.0)
        annotations.append(
            Annotation(
                class_id=target.class_id,
                box=target.box(),
                occluded_fraction=occluded_fraction,
            )
        )

        target.step(config, rng)
        if occluder is not None:
            occluder.step(config, rng)
        pan_offset += pan_velocity
        if pan_speed:
            # The crop window moves by +pan_velocity, so scene content
            # (sprites included) moves by -pan_velocity in frame coords.
            target.apply_drift(-pan_velocity)
            if occluder is not None:
                occluder.apply_drift(-pan_velocity)

    return VideoClip(frames=frames, annotations=annotations, scenario=config.name)
