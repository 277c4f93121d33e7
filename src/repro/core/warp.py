"""Activation warping — paper §II-B, §II-C3, §III-B.

Given the stored key-frame activation of the target layer and a motion
vector field at receptive-field granularity, produce the predicted
activation: for every activation coordinate, sample the stored activation
at the position the motion vector points to. Because pixel vectors are
scaled by the prefix's cumulative stride, sample positions are generally
fractional; the warp engine bilinearly interpolates the 2x2 neighbourhood
(the paper measured bilinear 1–2% better than nearest-neighbour on
FasterM, which ``benchmarks/bench_ablation_interp.py`` reproduces).

The optional fixed-point mode routes the interpolation through the 16-bit
datapath of :mod:`repro.hardware.fixed_point`, modelling the RTL's
weighting units bit-faithfully.

The batched float bilinear warp — the runtime's hot path — runs compiled
(:mod:`repro.core.sad_kernel`) when the kernel built and its warp passed
a bitwise self-check against the NumPy twin, :func:`_warp_numpy`; every
other case runs that twin.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ..hardware.fixed_point import QFormat
from ..motion.vector_field import VectorField
from .receptive_field import ReceptiveField
from .sad_kernel import addr, get_kernel

__all__ = [
    "scale_to_activation",
    "warp_activation",
    "warp_activation_batch",
    "warp_cost_interpolations",
]

_INTERPOLATIONS = ("bilinear", "nearest")

#: activation dtypes of the compiled warp (float64 arithmetic, one
#: rounding to the activation dtype — what NumPy's promotion does).
_KERNEL_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


@lru_cache(maxsize=None)
def _base_grid(height: int, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached read-only (ys, xs) coordinate grids for one field shape.

    Warping happens once per predicted frame per clip; the coordinate
    grid depends only on geometry, so rebuilding it per call (the old
    ``np.mgrid``) was pure overhead.
    """
    ys, xs = np.mgrid[0:height, 0:width]
    ys.flags.writeable = False
    xs.flags.writeable = False
    return ys, xs


def scale_to_activation(field: VectorField, rf: ReceptiveField) -> VectorField:
    """Convert a pixel-space field to activation coordinates (δ → δ').

    A displacement of ``d`` pixels moves an activation value ``d / stride``
    activation cells (§II-B: 'for a convolutional layer with stride s, a
    distance d in the input is equivalent to a distance d/s in the
    output').
    """
    return field.scaled(1.0 / rf.stride)


def _gather_bilinear(
    activation: np.ndarray,
    sample_y: np.ndarray,
    sample_x: np.ndarray,
    fixed_point: Optional[QFormat],
) -> np.ndarray:
    """Sample (C, H, W) activation at fractional (H, W) coordinates."""
    _, height, width = activation.shape
    y0 = np.floor(sample_y).astype(np.int64)
    x0 = np.floor(sample_x).astype(np.int64)
    fy = sample_y - y0
    fx = sample_x - x0

    y0c = np.clip(y0, 0, height - 1)
    y1c = np.clip(y0 + 1, 0, height - 1)
    x0c = np.clip(x0, 0, width - 1)
    x1c = np.clip(x0 + 1, 0, width - 1)

    v00 = activation[:, y0c, x0c]
    v01 = activation[:, y0c, x1c]
    v10 = activation[:, y1c, x0c]
    v11 = activation[:, y1c, x1c]

    if fixed_point is None:
        w00 = (1 - fy) * (1 - fx)
        w01 = (1 - fy) * fx
        w10 = fy * (1 - fx)
        w11 = fy * fx
        return v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11

    # Hardware datapath: activations and (u, v) weights quantized, wide
    # products, shift back (Fig. 11). Weight products computed at the
    # activation format's precision to mirror the two-stage design.
    fmt = fixed_point
    q00, q01 = fmt.quantize(v00), fmt.quantize(v01)
    q10, q11 = fmt.quantize(v10), fmt.quantize(v11)
    u = fmt.quantize(fy)
    v = fmt.quantize(fx)
    one = fmt.quantize(np.ones_like(fy))
    acc = fmt.multiply(q00, fmt.multiply(one - u, one - v))
    acc = fmt.add(acc, fmt.multiply(q01, fmt.multiply(one - u, v)))
    acc = fmt.add(acc, fmt.multiply(q10, fmt.multiply(u, one - v)))
    acc = fmt.add(acc, fmt.multiply(q11, fmt.multiply(u, v)))
    return fmt.dequantize(acc)


def _gather_nearest(
    activation: np.ndarray, sample_y: np.ndarray, sample_x: np.ndarray
) -> np.ndarray:
    _, height, width = activation.shape
    yn = np.clip(np.rint(sample_y).astype(np.int64), 0, height - 1)
    xn = np.clip(np.rint(sample_x).astype(np.int64), 0, width - 1)
    return activation[:, yn, xn]


def warp_activation(
    activation: np.ndarray,
    field: VectorField,
    interpolation: str = "bilinear",
    fixed_point: Optional[QFormat] = None,
) -> np.ndarray:
    """Warp a (C, H, W) activation by a backward vector field in activation
    units.

    ``field.data[y, x]`` gives the (dy, dx) to add to (y, x) to find the
    source sample in the stored activation. Out-of-range samples clamp to
    the border (the hardware's address clamping): de-occluded regions thus
    repeat edge content, one of AMC's accepted approximation sources.
    """
    if activation.ndim != 3:
        raise ValueError(f"activation must be (C, H, W), got {activation.shape}")
    if interpolation not in _INTERPOLATIONS:
        raise ValueError(
            f"interpolation must be one of {_INTERPOLATIONS}, got {interpolation!r}"
        )
    _, height, width = activation.shape
    if field.grid_shape != (height, width):
        raise ValueError(
            f"field grid {field.grid_shape} does not match activation "
            f"spatial shape {(height, width)}"
        )

    ys, xs = _base_grid(height, width)
    sample_y = ys + field.data[..., 0]
    sample_x = xs + field.data[..., 1]

    if interpolation == "nearest":
        return _gather_nearest(activation, sample_y, sample_x)
    return _gather_bilinear(activation, sample_y, sample_x, fixed_point)


def warp_activation_batch(
    activations: np.ndarray,
    fields: Sequence[VectorField],
    interpolation: str = "bilinear",
    fixed_point: Optional[QFormat] = None,
) -> np.ndarray:
    """Warp a stack of activations, one vector field per batch entry.

    ``activations`` is (B, C, H, W) stored key activations; ``fields[b]``
    is the backward field (activation units) for entry ``b``.  The math is
    the per-clip :func:`warp_activation` expression evaluated across the
    whole batch at once, so each output row is bitwise identical to
    warping that clip alone.  The float bilinear path runs the compiled
    warp when :func:`~repro.core.sad_kernel.get_kernel` offers one that
    passed its self-check; nearest, fixed-point and every other case run
    the NumPy twin, :func:`_warp_numpy`.
    """
    if activations.ndim != 4:
        raise ValueError(
            f"activations must be (B, C, H, W), got {activations.shape}"
        )
    batch, channels, height, width = activations.shape
    if len(fields) != batch:
        raise ValueError(f"{batch} activations but {len(fields)} fields")
    if interpolation not in _INTERPOLATIONS:
        raise ValueError(
            f"interpolation must be one of {_INTERPOLATIONS}, got {interpolation!r}"
        )
    for field in fields:
        if field.grid_shape != (height, width):
            raise ValueError(
                f"field grid {field.grid_shape} does not match activation "
                f"spatial shape {(height, width)}"
            )
    data = np.stack([field.data for field in fields])  # (B, H, W, 2)
    if (
        interpolation == "bilinear"
        and fixed_point is None
        and activations.dtype in _KERNEL_DTYPES
    ):
        kernel = get_kernel()
        if kernel is not None and kernel.has_warp:
            return _warp_compiled(kernel, activations, data)
    return _warp_numpy(activations, data, interpolation, fixed_point)


def _warp_compiled(kernel, activations: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The compiled float bilinear warp: bitwise :func:`_warp_numpy`'s
    ``fixed_point=None`` path (the same double-precision operations in
    the same order, one rounding to the activation dtype), NaN and
    infinite vectors included.  Vectors beyond ±2**63 cells differ:
    NumPy's int64 floor overflows there, the compiled warp clamps to the
    border."""
    act = np.ascontiguousarray(activations)
    data = np.ascontiguousarray(data, dtype=np.float64)
    batch, channels, height, width = act.shape
    out = np.empty_like(act)
    warp = (
        kernel.warp_bilinear_f64
        if act.dtype == np.float64
        else kernel.warp_bilinear_f32
    )
    warp(batch, addr(act), addr(data), addr(out), channels, height, width)
    return out


def _warp_numpy(
    activations: np.ndarray,
    data: np.ndarray,
    interpolation: str,
    fixed_point: Optional[QFormat],
) -> np.ndarray:
    """NumPy warp of (B, C, H, W) ``activations`` by stacked (B, H, W, 2)
    fields: the gathers become one ``take_along_axis`` per corner and the
    weighted sum broadcasts over (B, C, H*W)."""
    batch, channels, height, width = activations.shape
    ys, xs = _base_grid(height, width)
    sample_y = ys + data[..., 0]
    sample_x = xs + data[..., 1]
    act_flat = activations.reshape(batch, channels, height * width)

    def gather(y_idx: np.ndarray, x_idx: np.ndarray) -> np.ndarray:
        flat = (y_idx * width + x_idx).reshape(batch, 1, height * width)
        return np.take_along_axis(act_flat, flat, axis=2)

    if interpolation == "nearest":
        yn = np.clip(np.rint(sample_y).astype(np.int64), 0, height - 1)
        xn = np.clip(np.rint(sample_x).astype(np.int64), 0, width - 1)
        return gather(yn, xn).reshape(batch, channels, height, width)

    y0 = np.floor(sample_y).astype(np.int64)
    x0 = np.floor(sample_x).astype(np.int64)
    fy = sample_y - y0
    fx = sample_x - x0
    y0c = np.clip(y0, 0, height - 1)
    y1c = np.clip(y0 + 1, 0, height - 1)
    x0c = np.clip(x0, 0, width - 1)
    x1c = np.clip(x0 + 1, 0, width - 1)
    v00 = gather(y0c, x0c)
    v01 = gather(y0c, x1c)
    v10 = gather(y1c, x0c)
    v11 = gather(y1c, x1c)
    def plane(w):
        return w.reshape(batch, 1, height * width)

    if fixed_point is None:
        out = (
            v00 * plane((1 - fy) * (1 - fx))
            + v01 * plane((1 - fy) * fx)
            + v10 * plane(fy * (1 - fx))
            + v11 * plane(fy * fx)
        )
    else:
        # The same two-stage quantized datapath as the per-clip warp
        # (Fig. 11), broadcast over the batch.
        fmt = fixed_point
        q00, q01 = fmt.quantize(v00), fmt.quantize(v01)
        q10, q11 = fmt.quantize(v10), fmt.quantize(v11)
        u = fmt.quantize(plane(fy))
        v = fmt.quantize(plane(fx))
        one = fmt.quantize(np.ones_like(u, dtype=np.float64))
        acc = fmt.multiply(q00, fmt.multiply(one - u, one - v))
        acc = fmt.add(acc, fmt.multiply(q01, fmt.multiply(one - u, v)))
        acc = fmt.add(acc, fmt.multiply(q10, fmt.multiply(u, one - v)))
        acc = fmt.add(acc, fmt.multiply(q11, fmt.multiply(u, v)))
        out = fmt.dequantize(acc)
    return out.astype(activations.dtype, copy=False).reshape(
        batch, channels, height, width
    )


def warp_cost_interpolations(grid_shape: Tuple[int, int], channels: int) -> int:
    """Number of 4-way weighted interpolations one warp performs.

    One bilinear interpolation per activation value: the warp engine's
    cost unit for the energy model.
    """
    return grid_shape[0] * grid_shape[1] * channels
