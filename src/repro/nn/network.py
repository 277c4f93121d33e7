"""Sequential CNN container with the prefix/suffix split AMC needs.

AMC (paper §II-A) splits a network at a *target layer*: the prefix (input →
target) runs only on key frames; the suffix (target → output) runs on every
frame. :class:`Network` supports running arbitrary layer ranges so the AMC
executor can invoke exactly those two pieces, and exposes the structural
queries the paper's target-layer policy uses ("last spatial layer", "layer
after the first pooling layer").
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .layers import Layer, MaxPool2d

__all__ = ["Network"]


class Network:
    """An ordered list of uniquely-named layers."""

    def __init__(self, name: str, layers: Sequence[Layer], input_shape: Tuple[int, int, int]):
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate layer names in network {name}: {names}")
        self.name = name
        self.layers: List[Layer] = list(layers)
        self.input_shape = tuple(input_shape)
        self._index: Dict[str, int] = {layer.name: i for i, layer in enumerate(layers)}
        # Validate shape propagation eagerly so bad architectures fail at
        # construction, not mid-experiment.
        self.layer_input_shapes = self._propagate_shapes()
        #: compiled inference plans keyed by dtype name (capacity grows in
        #: place); see :meth:`inference_plan`.
        self._plans: Dict[str, "InferencePlan"] = {}
        #: monotonically increasing weight snapshot id.  Bumped whenever
        #: cached derived state becomes stale (``invalidate_plans``, hit
        #: by ``load_state_dict``), so content-addressed caches keyed on
        #: it invalidate across live weight swaps without draining.
        self.weight_version = 0

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    def _propagate_shapes(self) -> List[Tuple[int, ...]]:
        shapes = []
        shape: Tuple[int, ...] = self.input_shape
        for layer in self.layers:
            shapes.append(shape)
            shape = layer.output_shape(shape)
        self.output_shape = shape
        return shapes

    def index_of(self, layer_name: str) -> int:
        if layer_name not in self._index:
            raise KeyError(f"no layer named {layer_name!r} in network {self.name}")
        return self._index[layer_name]

    def layer_output_shape(self, layer_name: str) -> Tuple[int, ...]:
        """Shape of the activation produced by ``layer_name`` (no batch dim)."""
        idx = self.index_of(layer_name)
        return self.layers[idx].output_shape(self.layer_input_shapes[idx])

    def last_spatial_layer(self) -> str:
        """Name of the last layer that still has 2D structure.

        Spatial structure, once destroyed by a non-spatial layer (Flatten,
        Linear), never returns, so this is the layer just before the first
        non-spatial one — the paper's default (late) AMC target (§II-C5).
        """
        spatial = self.spatial_layers()
        if not spatial:
            raise ValueError(f"network {self.name} has no spatial layers")
        return spatial[-1]

    def first_post_pool_layer(self) -> str:
        """Name of the first pooling layer — the paper's *early* target."""
        for layer in self.layers:
            if isinstance(layer, MaxPool2d):
                return layer.name
        raise ValueError(f"network {self.name} has no pooling layers")

    def spatial_layers(self) -> List[str]:
        """Names of the leading run of spatial layers (valid AMC targets)."""
        names: List[str] = []
        for layer in self.layers:
            if not layer.is_spatial:
                break
            names.append(layer.name)
        return names

    def prefix_layers(self, target: str) -> List[Layer]:
        """Layers from the input through ``target`` inclusive."""
        return self.layers[: self.index_of(target) + 1]

    def suffix_layers(self, target: str) -> List[Layer]:
        """Layers strictly after ``target``."""
        return self.layers[self.index_of(target) + 1 :]

    def validate_target(self, target: str) -> None:
        """Ensure every prefix layer is spatial (AMC's warping requirement)."""
        for layer in self.prefix_layers(target):
            if not layer.is_spatial:
                raise ValueError(
                    f"target {target!r} places non-spatial layer {layer.name!r} "
                    "in the AMC prefix; warping is undefined there"
                )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """Run the whole network."""
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def forward_prefix(self, x: np.ndarray, target: str, train: bool = False) -> np.ndarray:
        """Run input → target layer inclusive (key-frame path)."""
        for layer in self.prefix_layers(target):
            x = layer.forward(x, train=train)
        return x

    def forward_suffix(
        self, activation: np.ndarray, target: str, train: bool = False
    ) -> np.ndarray:
        """Run the layers after ``target`` on a (possibly warped) activation."""
        x = activation
        for layer in self.suffix_layers(target):
            x = layer.forward(x, train=train)
        return x

    def inference_plan(self, max_batch: int = 1, dtype="float64"):
        """The compiled forward-only executor for this network.

        One plan is cached per dtype; geometry compiles once and the
        scratch capacity grows on demand (never shrinks here — callers
        that want memory back use :meth:`InferencePlan.shrink` and the
        cache regrows it when needed).  The AMC executor at occupancy 1,
        the lockstep runtime at workload width, and the serving runtime
        at fluctuating occupancy therefore all share one plan per
        network.  See :class:`repro.nn.inference.InferencePlan`.
        """
        from .inference import InferencePlan, resolve_plan_dtype

        key = resolve_plan_dtype(dtype)
        plan = self._plans.get(key)
        if plan is None:
            plan = InferencePlan(self, max_batch=max_batch, dtype=dtype)
            self._plans[key] = plan
        elif plan.max_batch < max_batch:
            plan.reserve(max_batch)
        return plan

    def __getstate__(self):
        """Pickle without compiled inference plans (scratch, snapshots).

        Plans rebuild on demand from :meth:`inference_plan`, so a network
        shipped to a worker process arrives light and compiles its own —
        the plan-per-worker ownership rule of the sharded serving layer.
        """
        state = self.__dict__.copy()
        state["_plans"] = {}
        return state

    def invalidate_plans(self) -> None:
        """Drop cached inference plans (needed after parameter rebinding;
        float32 plans also snapshot weights at compile time) and bump the
        weight version so content-addressed activation caches expire."""
        self._plans.clear()
        self.weight_version += 1

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Backprop through the whole network (after a train-mode forward)."""
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def backward_suffix(self, grad_out: np.ndarray, target: str) -> np.ndarray:
        """Backprop through the suffix only (Table III suffix fine-tuning)."""
        for layer in reversed(self.suffix_layers(target)):
            grad_out = layer.backward(grad_out)
        return grad_out

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def parameters(self):
        """Yield (layer, key, array) triples for every trainable tensor."""
        for layer in self.layers:
            for key in layer.params:
                yield layer, key, layer.params[key]

    def param_count(self) -> int:
        return sum(layer.param_count() for layer in self.layers)

    def macs_per_layer(self) -> Dict[str, int]:
        """MAC count of every layer for one input frame (hardware model)."""
        return {
            layer.name: layer.macs(shape)
            for layer, shape in zip(self.layers, self.layer_input_shapes)
        }

    def prefix_macs(self, target: str) -> int:
        """Total MACs in the AMC prefix — the work predicted frames skip."""
        idx = self.index_of(target)
        return sum(
            layer.macs(shape)
            for layer, shape in zip(self.layers[: idx + 1], self.layer_input_shapes)
        )

    def suffix_macs(self, target: str) -> int:
        """Total MACs in the AMC suffix — the work every frame pays."""
        idx = self.index_of(target)
        return sum(
            layer.macs(shape)
            for layer, shape in zip(
                self.layers[idx + 1 :], self.layer_input_shapes[idx + 1 :]
            )
        )

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat copy of all parameters, keyed ``layer.param``."""
        return {
            f"{layer.name}.{key}": layer.params[key].copy()
            for layer in self.layers
            for key in layer.params
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        for layer in self.layers:
            for key in layer.params:
                full = f"{layer.name}.{key}"
                if full not in state:
                    raise KeyError(f"state dict missing {full}")
                if state[full].shape != layer.params[key].shape:
                    raise ValueError(
                        f"shape mismatch for {full}: "
                        f"{state[full].shape} vs {layer.params[key].shape}"
                    )
                layer.params[key] = state[full].copy()
        # Parameter arrays were rebound (and float32 plans snapshot
        # weights), so compiled plans must not serve stale tensors.
        self.invalidate_plans()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network({self.name}, {len(self.layers)} layers)"
