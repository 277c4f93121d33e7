"""Numpy CNN substrate: layers, networks, training, quantization."""

from .layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from .models import (
    DETECTION_OUTPUTS,
    INPUT_SHAPE,
    build_mini_alexnet,
    build_mini_faster16,
    build_mini_fasterm,
    build_network,
    split_detection_output,
)
from .inference import InferencePlan
from .network import Network
from .optim import Adam, SGD
from .train import (
    classification_accuracy,
    get_trained_network,
    train_classifier,
    train_detector,
)

__all__ = [
    "Conv2d",
    "Flatten",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "Network",
    "InferencePlan",
    "Adam",
    "SGD",
    "INPUT_SHAPE",
    "DETECTION_OUTPUTS",
    "build_mini_alexnet",
    "build_mini_fasterm",
    "build_mini_faster16",
    "build_network",
    "split_detection_output",
    "classification_accuracy",
    "get_trained_network",
    "train_classifier",
    "train_detector",
]
