"""Layer tables for the paper's real evaluation networks.

The energy/latency model (like the paper's own FODLAM-style model, §IV-B)
needs only layer *shapes*: MAC counts and weight counts per layer. This
module describes the actual networks the paper benchmarks —

* **AlexNet** at 227x227 (5 conv + 3 FC, with the original's grouped
  convolutions halving conv2/4/5 input channels),
* **Faster16**: VGG-16's 13 conv layers at the paper's 1000x562 input,
  plus Faster R-CNN's RPN convolutions and 4 FC layers,
* **FasterM**: Chatfield et al.'s CNN-M (5 conv layers) at 1000x562 plus
  the same Faster R-CNN additions,

— as declarative specs with shape propagation. The paper's first-order
check (§IV-A): the Faster16 prefix through conv5_3 is 1.7e11 MACs, which
these tables reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "ConvSpec",
    "PoolSpec",
    "FCSpec",
    "NetworkSpec",
    "alexnet_spec",
    "vgg16_spec",
    "faster16_spec",
    "fasterm_spec",
    "spec_by_name",
]


@dataclass(frozen=True)
class ConvSpec:
    """One convolutional layer (possibly grouped)."""

    name: str
    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0
    groups: int = 1
    spatial: bool = True

    def out_size(self, in_size: int) -> int:
        return (in_size + 2 * self.pad - self.kernel) // self.stride + 1


@dataclass(frozen=True)
class PoolSpec:
    """One pooling layer."""

    name: str
    field: int
    stride: int
    spatial: bool = True

    def out_size(self, in_size: int) -> int:
        return (in_size - self.field) // self.stride + 1


@dataclass(frozen=True)
class FCSpec:
    """One fully-connected layer.

    ``instances`` models per-region execution in Faster R-CNN: the FC head
    runs once per region proposal (300 at test time), multiplying its MAC
    count but not its weight count.
    """

    name: str
    out_features: int
    in_features: Optional[int] = None  # None: inferred from previous layer
    instances: int = 1
    spatial: bool = False


@dataclass(frozen=True)
class LayerStats:
    """Resolved per-layer statistics."""

    name: str
    kind: str  # 'conv' | 'pool' | 'fc'
    macs: int
    weights: int
    out_shape: Tuple[int, int, int]  # (C, H, W); FC layers use (F, 1, 1)
    spatial: bool


class NetworkSpec:
    """A named sequence of layer specs with resolved statistics."""

    def __init__(self, name: str, input_shape: Tuple[int, int, int], layers: List):
        self.name = name
        self.input_shape = input_shape
        self.layers = list(layers)
        self.stats: List[LayerStats] = self._resolve()

    def _resolve(self) -> List[LayerStats]:
        stats: List[LayerStats] = []
        channels, height, width = self.input_shape
        for spec in self.layers:
            if isinstance(spec, ConvSpec):
                out_h = spec.out_size(height)
                out_w = spec.out_size(width)
                if out_h < 1 or out_w < 1:
                    raise ValueError(f"{self.name}/{spec.name}: output collapsed")
                in_per_group = channels // spec.groups
                macs_per_output = in_per_group * spec.kernel * spec.kernel
                macs = out_h * out_w * spec.out_channels * macs_per_output
                weights = spec.out_channels * macs_per_output
                channels, height, width = spec.out_channels, out_h, out_w
                stats.append(
                    LayerStats(spec.name, "conv", macs, weights,
                               (channels, height, width), spec.spatial)
                )
            elif isinstance(spec, PoolSpec):
                height = spec.out_size(height)
                width = spec.out_size(width)
                stats.append(
                    LayerStats(spec.name, "pool", 0, 0,
                               (channels, height, width), spec.spatial)
                )
            elif isinstance(spec, FCSpec):
                in_features = (
                    spec.in_features
                    if spec.in_features is not None
                    else channels * height * width
                )
                macs = in_features * spec.out_features * spec.instances
                weights = in_features * spec.out_features
                channels, height, width = spec.out_features, 1, 1
                stats.append(
                    LayerStats(spec.name, "fc", macs, weights,
                               (channels, 1, 1), spec.spatial)
                )
            else:
                raise TypeError(f"unknown layer spec {spec!r}")
        return stats

    # -- queries ------------------------------------------------------- #
    def _index(self, layer_name: str) -> int:
        for i, stat in enumerate(self.stats):
            if stat.name == layer_name:
                return i
        raise KeyError(f"no layer {layer_name!r} in {self.name}")

    def conv_macs(self) -> int:
        return sum(s.macs for s in self.stats if s.kind == "conv")

    def fc_macs(self) -> int:
        return sum(s.macs for s in self.stats if s.kind == "fc")

    def prefix_macs(self, target: str) -> int:
        """MACs through ``target`` inclusive (the AMC prefix)."""
        idx = self._index(target)
        return sum(s.macs for s in self.stats[: idx + 1])

    def suffix_stats(self, target: str) -> List[LayerStats]:
        """Layers strictly after ``target`` (the AMC suffix)."""
        return self.stats[self._index(target) + 1 :]

    def last_spatial_layer(self) -> str:
        names = [s.name for s in self.stats if s.spatial]
        if not names:
            raise ValueError(f"{self.name} has no spatial layers")
        return names[-1]

    def layer(self, layer_name: str) -> LayerStats:
        return self.stats[self._index(layer_name)]

    def receptive_field(self, target: str) -> Tuple[int, int, int]:
        """(size, stride, padding) of ``target``'s outputs w.r.t. the input.

        Same recurrence as :func:`repro.core.receptive_field.propagate`
        (duplicated here to keep the hardware substrate free of core
        dependencies; the test suite cross-checks the two).
        """
        idx = self._index(target)
        size, stride, padding = 1, 1, 0
        for spec in self.layers[: idx + 1]:
            if isinstance(spec, ConvSpec):
                field, layer_stride, pad = spec.kernel, spec.stride, spec.pad
            elif isinstance(spec, PoolSpec):
                field, layer_stride, pad = spec.field, spec.stride, 0
            else:
                raise ValueError(
                    f"receptive field undefined through non-spatial layer "
                    f"{spec.name!r}"
                )
            size = size + (field - 1) * stride
            padding = padding + pad * stride
            stride = stride * layer_stride
        return size, stride, padding


def alexnet_spec() -> NetworkSpec:
    """AlexNet at 227x227 with its original grouped convolutions."""
    return NetworkSpec(
        "AlexNet",
        (3, 227, 227),
        [
            ConvSpec("conv1", 96, kernel=11, stride=4),
            PoolSpec("pool1", 3, 2),
            ConvSpec("conv2", 256, kernel=5, pad=2, groups=2),
            PoolSpec("pool2", 3, 2),
            ConvSpec("conv3", 384, kernel=3, pad=1),
            ConvSpec("conv4", 384, kernel=3, pad=1, groups=2),
            ConvSpec("conv5", 256, kernel=3, pad=1, groups=2),
            PoolSpec("pool5", 3, 2),
            FCSpec("fc6", 4096),
            FCSpec("fc7", 4096),
            FCSpec("fc8", 1000),
        ],
    )


def _vgg16_convs() -> List:
    """The 13 VGG-16 conv layers + 5 pools."""
    cfg = [
        ("conv1_1", 64), ("conv1_2", 64), ("pool1",),
        ("conv2_1", 128), ("conv2_2", 128), ("pool2",),
        ("conv3_1", 256), ("conv3_2", 256), ("conv3_3", 256), ("pool3",),
        ("conv4_1", 512), ("conv4_2", 512), ("conv4_3", 512), ("pool4",),
        ("conv5_1", 512), ("conv5_2", 512), ("conv5_3", 512),
    ]
    layers: List = []
    for entry in cfg:
        if len(entry) == 1:
            layers.append(PoolSpec(entry[0], 2, 2))
        else:
            layers.append(ConvSpec(entry[0], entry[1], kernel=3, pad=1))
    return layers


def vgg16_spec(input_hw: Tuple[int, int] = (224, 224)) -> NetworkSpec:
    """Plain VGG-16 (classification) at the given input size."""
    height, width = input_hw
    return NetworkSpec(
        "VGG-16",
        (3, height, width),
        _vgg16_convs()
        + [
            PoolSpec("pool5", 2, 2),
            FCSpec("fc6", 4096),
            FCSpec("fc7", 4096),
            FCSpec("fc8", 1000),
        ],
    )


#: Faster R-CNN region-proposal count at test time (Ren et al.).
RPN_PROPOSALS = 300

#: Faster R-CNN input resolution used throughout the paper (§IV-A).
FASTER_INPUT_HW = (562, 1000)


def _faster_rcnn_tail(feature_channels: int, roi_pool: int, fc_width: int) -> List:
    """The layers Faster R-CNN adds on a backbone: RPN convs + FC head.

    The RPN's 3x3 conv and the two 1x1 score/regression convs are spatial;
    the per-ROI FC head is not (it runs once per proposal).
    """
    return [
        ConvSpec("rpn_conv", feature_channels, kernel=3, pad=1),
        ConvSpec("rpn_cls", 18, kernel=1),
        ConvSpec("rpn_bbox", 36, kernel=1),
        FCSpec(
            "fc6",
            fc_width,
            in_features=roi_pool * roi_pool * feature_channels,
            instances=RPN_PROPOSALS,
        ),
        FCSpec("fc7", fc_width, in_features=fc_width, instances=RPN_PROPOSALS),
        FCSpec("cls_score", 21, in_features=fc_width, instances=RPN_PROPOSALS),
        FCSpec("bbox_pred", 84, in_features=fc_width, instances=RPN_PROPOSALS),
    ]


def faster16_spec() -> NetworkSpec:
    """Faster R-CNN with the VGG-16 backbone at 1000x562 (the paper's
    Faster16)."""
    return NetworkSpec(
        "Faster16",
        (3,) + FASTER_INPUT_HW,
        _vgg16_convs() + _faster_rcnn_tail(512, roi_pool=7, fc_width=4096),
    )


def fasterm_spec() -> NetworkSpec:
    """Faster R-CNN with the CNN-M backbone at 1000x562 (the paper's
    FasterM). CNN-M: 5 convs, aggressive early striding (Chatfield et
    al.)."""
    backbone = [
        ConvSpec("conv1", 96, kernel=7, stride=2),
        PoolSpec("pool1", 2, 2),
        ConvSpec("conv2", 256, kernel=5, stride=2, pad=1),
        PoolSpec("pool2", 2, 2),
        ConvSpec("conv3", 512, kernel=3, pad=1),
        ConvSpec("conv4", 512, kernel=3, pad=1),
        ConvSpec("conv5", 512, kernel=3, pad=1),
    ]
    return NetworkSpec(
        "FasterM",
        (3,) + FASTER_INPUT_HW,
        backbone + _faster_rcnn_tail(512, roi_pool=6, fc_width=1024),
    )


_SPECS = {
    "alexnet": alexnet_spec,
    "vgg16": vgg16_spec,
    "faster16": faster16_spec,
    "fasterm": fasterm_spec,
}


def spec_by_name(name: str) -> NetworkSpec:
    """Look up a network spec by short name."""
    key = name.lower()
    if key not in _SPECS:
        raise KeyError(f"unknown network spec {name!r}; have {sorted(_SPECS)}")
    return _SPECS[key]()
