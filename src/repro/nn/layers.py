"""Layer classes for the sequential CNN framework.

Each layer exposes:

* ``forward(x, train=False)`` / ``backward(grad_out)`` — the compute pair;
  backward must follow a forward because it consumes the cached activations.
* ``params`` / ``grads`` — dicts of trainable tensors and their gradients.
* ``is_spatial`` — whether the layer preserves the 2D spatial structure AMC's
  activation warping relies on. Fully-connected (and flatten) layers are
  non-spatial and must stay in the CNN suffix (paper §II-C5).
* ``geometry()`` — ``(field, stride, pad)`` for receptive-field propagation
  (:mod:`repro.core.receptive_field`); identity layers report (1, 1, 0).

Layers also count multiply-accumulate operations (``macs(input_shape)``),
which drives the hardware cost model exactly as the paper's first-order
model does (§IV-A).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from . import functional as F
from . import init as winit

__all__ = ["Layer", "Conv2d", "MaxPool2d", "ReLU", "Flatten", "Linear"]


class Layer:
    """Base class. Subclasses override the hooks they need."""

    is_spatial: bool = True

    def __init__(self, name: str):
        self.name = name
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def geometry(self) -> Tuple[int, int, int]:
        """(field, stride, pad) seen by receptive-field propagation."""
        return (1, 1, 0)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape produced for a single (C, H, W) input shape (no batch dim)."""
        return input_shape

    def macs(self, input_shape: Tuple[int, ...]) -> int:
        """Multiply-accumulate operations for one input of ``input_shape``."""
        return 0

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def zero_grad(self) -> None:
        for key in self.grads:
            self.grads[key][...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class Conv2d(Layer):
    """2D convolution with square kernels."""

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(name)
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.params["weight"] = winit.kaiming_conv(
            (out_channels, in_channels, kernel, kernel), rng
        )
        self.params["bias"] = winit.zeros(out_channels)
        self.grads["weight"] = np.zeros_like(self.params["weight"])
        self.grads["bias"] = np.zeros_like(self.params["bias"])

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out, cache = F.conv2d_forward(
            x, self.params["weight"], self.params["bias"], self.stride, self.pad
        )
        self._cache = cache if train else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"backward on {self.name} without train-mode forward")
        grad_x, gw, gb = F.conv2d_backward(grad_out, self._cache)
        self.grads["weight"] += gw
        self.grads["bias"] += gb
        return grad_x

    def geometry(self) -> Tuple[int, int, int]:
        return (self.kernel, self.stride, self.pad)

    def output_shape(self, input_shape):
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} channels, got {c}"
            )
        oh = F.conv_output_size(h, self.kernel, self.stride, self.pad)
        ow = F.conv_output_size(w, self.kernel, self.stride, self.pad)
        return (self.out_channels, oh, ow)

    def macs(self, input_shape) -> int:
        # outputs x (in_channels x kh x kw) MACs per output — paper §IV-A.
        _, oh, ow = self.output_shape(input_shape)
        per_output = self.in_channels * self.kernel * self.kernel
        return oh * ow * self.out_channels * per_output


class MaxPool2d(Layer):
    """Max pooling with square windows."""

    def __init__(self, name: str, field: int, stride: int):
        super().__init__(name)
        self.field = field
        self.stride = stride

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out, cache = F.maxpool2d_forward(x, self.field, self.stride)
        self._cache = cache if train else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"backward on {self.name} without train-mode forward")
        return F.maxpool2d_backward(grad_out, self._cache)

    def geometry(self) -> Tuple[int, int, int]:
        return (self.field, self.stride, 0)

    def output_shape(self, input_shape):
        c, h, w = input_shape
        oh = F.conv_output_size(h, self.field, self.stride, 0)
        ow = F.conv_output_size(w, self.field, self.stride, 0)
        return (c, oh, ow)


class ReLU(Layer):
    """Rectified linear unit. Spatial (element-wise) and parameter-free."""

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out, mask = F.relu_forward(x)
        self._cache = mask if train else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"backward on {self.name} without train-mode forward")
        return F.relu_backward(grad_out, self._cache)


class Flatten(Layer):
    """Collapse (C, H, W) to a feature vector. Destroys spatial structure."""

    is_spatial = False

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        self._cache = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"backward on {self.name} without train-mode forward")
        return grad_out.reshape(self._cache)

    def output_shape(self, input_shape):
        size = 1
        for dim in input_shape:
            size *= dim
        return (size,)


class Linear(Layer):
    """Fully-connected layer. Non-spatial: must live in the CNN suffix."""

    is_spatial = False

    def __init__(
        self,
        name: str,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(name)
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.params["weight"] = winit.kaiming_linear((out_features, in_features), rng)
        self.params["bias"] = winit.zeros(out_features)
        self.grads["weight"] = np.zeros_like(self.params["weight"])
        self.grads["bias"] = np.zeros_like(self.params["bias"])

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out, cache = F.linear_forward(x, self.params["weight"], self.params["bias"])
        self._cache = cache if train else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"backward on {self.name} without train-mode forward")
        grad_x, gw, gb = F.linear_backward(grad_out, self._cache)
        self.grads["weight"] += gw
        self.grads["bias"] += gb
        return grad_x

    def output_shape(self, input_shape):
        return (self.out_features,)

    def macs(self, input_shape) -> int:
        return self.in_features * self.out_features
