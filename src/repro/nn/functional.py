"""Low-level neural-network kernels.

All operators work on ``float64`` numpy arrays in NCHW layout
(batch, channels, height, width) and come in forward/backward pairs so the
framework supports training (needed for Table III's suffix fine-tuning and
for producing the accuracy-experiment networks in the first place).

Convolution is implemented with im2col/col2im: the only practical way to get
acceptable CNN throughput out of pure numpy, and numerically identical to
direct convolution.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "pool_windows",
    "conv2d_forward",
    "conv2d_backward",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "relu_forward",
    "relu_backward",
    "linear_forward",
    "linear_backward",
    "softmax",
    "cross_entropy",
    "cross_entropy_grad",
    "smooth_l1",
    "smooth_l1_grad",
]


def conv_output_size(in_size: int, field: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window sweep.

    Raises ``ValueError`` when the geometry is inconsistent (window larger
    than the padded input, or the sweep does not tile evenly enough to
    produce at least one output).
    """
    if field <= 0 or stride <= 0:
        raise ValueError(f"field and stride must be positive, got {field}, {stride}")
    padded = in_size + 2 * pad
    if padded < field:
        raise ValueError(
            f"window {field} exceeds padded input {padded} (in={in_size}, pad={pad})"
        )
    return (padded - field) // stride + 1


def im2col(
    x: np.ndarray, field_h: int, field_w: int, stride: int, pad: int
) -> np.ndarray:
    """Unfold ``x`` (N, C, H, W) into columns (N*OH*OW, C*field_h*field_w).

    Each row is the flattened receptive field for one output position; a
    convolution then reduces to a single matrix multiply.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, field_h, stride, pad)
    out_w = conv_output_size(w, field_w, stride, pad)

    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")

    cols = np.empty((n, c, field_h, field_w, out_h, out_w), dtype=x.dtype)
    for fy in range(field_h):
        y_max = fy + stride * out_h
        for fx in range(field_w):
            x_max = fx + stride * out_w
            cols[:, :, fy, fx, :, :] = x[:, :, fy:y_max:stride, fx:x_max:stride]
    # Pin the result to one canonical memory layout.  For most geometries
    # the reshape below copies (C-contiguous), but for some it can merge
    # strides into a non-contiguous *view* — and BLAS results for strided
    # operands are not bitwise identical to contiguous ones, which would
    # make convolution output bits depend on numpy's stride heuristics.
    return np.ascontiguousarray(
        cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)
    )


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    field_h: int,
    field_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold columns back into an (N, C, H, W) array, summing overlaps.

    The adjoint of :func:`im2col`; used for convolution input gradients.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, field_h, stride, pad)
    out_w = conv_output_size(w, field_w, stride, pad)

    cols = cols.reshape(n, out_h, out_w, c, field_h, field_w).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for fy in range(field_h):
        y_max = fy + stride * out_h
        for fx in range(field_w):
            x_max = fx + stride * out_w
            padded[:, :, fy:y_max:stride, fx:x_max:stride] += cols[:, :, fy, fx, :, :]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int, pad: int
):
    """2D convolution. ``weight`` is (out_c, in_c, kh, kw), ``bias`` (out_c,).

    Returns ``(output, cache)`` where ``cache`` feeds the backward pass.
    """
    n, c, h, w = x.shape
    out_c, in_c, kh, kw = weight.shape
    if in_c != c:
        raise ValueError(f"weight expects {in_c} input channels, input has {c}")
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)

    cols = im2col(x, kh, kw, stride, pad)
    w_mat = weight.reshape(out_c, -1)
    out = cols @ w_mat.T + bias
    out = out.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2)
    cache = (x.shape, cols, weight, stride, pad)
    return out, cache


def conv2d_backward(grad_out: np.ndarray, cache):
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)``.
    """
    x_shape, cols, weight, stride, pad = cache
    out_c, in_c, kh, kw = weight.shape
    n = x_shape[0]

    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, out_c)
    grad_bias = grad_flat.sum(axis=0)
    grad_weight = (grad_flat.T @ cols).reshape(weight.shape)
    grad_cols = grad_flat @ weight.reshape(out_c, -1)
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, pad)
    return grad_x, grad_weight, grad_bias


def pool_windows(x: np.ndarray, field: int, stride: int) -> np.ndarray:
    """Zero-copy view of ``x`` (N, C, H, W) as pooling windows.

    Returns (N, C, OH, OW, field, field) where ``[..., i, j, :, :]`` is the
    window reduced into output position (i, j) — max pooling's
    geometry.  Pure stride arithmetic: no data moves, so
    reductions over the last two axes read ``x`` directly instead of
    round-tripping through a generic im2col copy.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, field, stride, 0)
    out_w = conv_output_size(w, field, stride, 0)
    sn, sc, sh, sw = x.strides
    return as_strided(
        x,
        shape=(n, c, out_h, out_w, field, field),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def maxpool2d_forward(x: np.ndarray, field: int, stride: int):
    """Max pooling with square windows (no padding, as in the paper's nets)."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, field, stride, 0)
    out_w = conv_output_size(w, field, stride, 0)

    # One copy (window flattening) instead of im2col's scratch + fold;
    # row layout matches im2col's (N*C*OH*OW, field*field) exactly, so the
    # cache stays interchangeable with earlier releases.
    cols = pool_windows(x, field, stride).reshape(-1, field * field)
    arg = np.argmax(cols, axis=1)
    out = cols[np.arange(cols.shape[0]), arg]
    out = out.reshape(n, c, out_h, out_w)
    cache = (x.shape, arg, field, stride, cols.shape)
    return out, cache


def maxpool2d_backward(grad_out: np.ndarray, cache):
    """Backward pass of max pooling: route gradients to the argmax inputs."""
    x_shape, arg, field, stride, cols_shape = cache
    n, c, h, w = x_shape
    grad_cols = np.zeros(cols_shape, dtype=grad_out.dtype)
    grad_cols[np.arange(cols_shape[0]), arg] = grad_out.reshape(-1)
    grad_x = col2im(grad_cols, (n * c, 1, h, w), field, field, stride, 0)
    return grad_x.reshape(x_shape)


def relu_forward(x: np.ndarray):
    """Rectified linear unit."""
    mask = x > 0
    return x * mask, mask


def relu_backward(grad_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Backward pass of ReLU."""
    return grad_out * mask


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """Fully-connected layer: flattens all non-batch dims.

    ``weight`` is (out_features, in_features), ``bias`` (out_features,).
    """
    flat = x.reshape(x.shape[0], -1)
    if flat.shape[1] != weight.shape[1]:
        raise ValueError(
            f"linear expects {weight.shape[1]} features, input has {flat.shape[1]}"
        )
    out = flat @ weight.T + bias
    return out, (x.shape, flat, weight)


def linear_backward(grad_out: np.ndarray, cache):
    """Backward pass of :func:`linear_forward`."""
    x_shape, flat, weight = cache
    grad_bias = grad_out.sum(axis=0)
    grad_weight = grad_out.T @ flat
    grad_x = (grad_out @ weight).reshape(x_shape)
    return grad_x, grad_weight, grad_bias


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy loss of (N, K) logits against (N,) integer labels."""
    probs = softmax(logits)
    n = logits.shape[0]
    eps = 1e-12
    return float(-np.log(probs[np.arange(n), labels] + eps).mean())


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of mean cross-entropy w.r.t. logits."""
    probs = softmax(logits)
    n = logits.shape[0]
    probs[np.arange(n), labels] -= 1.0
    return probs / n


def smooth_l1(pred: np.ndarray, target: np.ndarray, beta: float = 1.0) -> float:
    """Mean smooth-L1 (Huber) loss, the standard box-regression loss."""
    diff = np.abs(pred - target)
    loss = np.where(diff < beta, 0.5 * diff**2 / beta, diff - 0.5 * beta)
    return float(loss.mean())


def smooth_l1_grad(
    pred: np.ndarray, target: np.ndarray, beta: float = 1.0
) -> np.ndarray:
    """Gradient of mean smooth-L1 w.r.t. ``pred``."""
    diff = pred - target
    grad = np.where(np.abs(diff) < beta, diff / beta, np.sign(diff))
    return grad / pred.size
