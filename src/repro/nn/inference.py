"""Planned CNN inference — the execution engine behind AMC's hot path.

Training needs autograd caches and tolerates allocation churn; inference
runs the same prefix/suffix every frame of every clip and should not.  An
:class:`InferencePlan` is compiled once per (network, batch capacity,
dtype) and then executes layer ranges against preallocated scratch:

* **one read-in per convolution, no index arrays** — every conv reads
  its input in one pass that applies the pooling and padding between it
  and the previous conv as it reads.  Float convolutions run one sample
  at a time (:class:`_FloatChain`): the read-in also adds the previous
  conv's bias and applies the ReLU, and the last conv of a range writes
  the owned result.  Integer convolutions read the previous conv's raws
  for the whole batch through one direct im2col
  (:func:`~repro.core.sad_kernel.im2col_compiled`, or its NumPy twin;
  see :class:`_QuantConvStep`).  :meth:`InferencePlan._schedule` folds
  the neighbours for every family, inside the executed range only.
* **float64 convolutions in BLAS's own summation order** — numpy's BLAS
  sums each element of the training path's ``cols @ w_mat.T`` in a
  fixed order per GEMM shape.  At compile time a byte-level probe
  (:func:`_conv_order`) recognises it per conv: one FMA chain over the
  reduction (``sequential``) or eight interleaved ones (``k-residue``).
  A chain whose every conv is recognised runs as one compiled
  ``conv_chain_f64`` call per batch that convolves straight from small
  zero-padded input planes in that order -- no column matrix, no GEMM
  call, the GIL released throughout.  Any other chain (another BLAS or
  CPU, float32, no compiled kernel) writes each sample's im2col rows
  into L2-resident scratch for a serial-shape GEMM.
* **per-sample GEMMs** — BLAS does not guarantee that one matmul over
  ``B`` stacked samples is bitwise equal to ``B`` single-sample matmuls
  (it is not for this repo's FC shapes), and AMC's contract is that
  batched execution reproduces the serial pipeline exactly.  Float
  convolutions therefore always compute the serial shape; the FC layers,
  on the first call at each batch size, probe whether the fused batched
  GEMM is bitwise identical on this host and, if it is, take it.
* **no training caches** — forward-only; pooling skips the argmax (a
  first-maximum scan picks the same element), and a ReLU or pool that
  cannot fold allocates its output per call instead of holding scratch.
* **opt-in float32** — ``dtype="float32"`` snapshots casted weights at
  compile time for roughly half the memory traffic.  float64 remains the
  default and is bit-identical to :meth:`repro.nn.network.Network.forward`.
* **quantized lanes** — ``dtype="int8"`` and ``dtype="q16"`` compile the
  paper's accuracy-for-throughput trade into the plan itself: per-layer
  Q-formats calibrated over a seeded sample set
  (:func:`repro.nn.quantize.calibrate_layer`), quantized weight
  snapshots, im2col over int8/int16 activations, and integer-exact
  GEMMs with per-layer requantization.  See the "quantized plans" notes
  on :class:`InferencePlan` for the execution scheme and the tolerance
  contract that replaces bit-identity for these lanes.

Plans are obtained through :meth:`Network.inference_plan`, which caches
one plan per dtype and grows its capacity on demand; calls with any batch
size up to the capacity reuse the same scratch through leading-axis
views, and :meth:`InferencePlan.reserve` / :meth:`InferencePlan.shrink`
resize the scratch without recompiling geometry — the mechanism the
serving runtime uses to track occupancy without ever rebuilding a plan.
A float plan's convolutions hold per-sample scratch only, which no
capacity change touches.

Ownership: arrays returned by ``run``/``run_prefix``/``run_suffix`` are
fresh copies, safe to store (the executor stores key activations, the
runtime stores per-frame outputs).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.sad_kernel import (
    DirectConv,
    addr,
    blas_conv_order,
    direct_chain_geometry,
    direct_pointers,
    first_max_pool,
    get_kernel,
    im2col_compiled,
    im2col_geometry,
    im2col_numpy,
)
from ..hardware.fixed_point import QFormat, QuantSavings, estimate_quantized_savings
from . import functional as F
from .layers import Conv2d, Flatten, Layer, Linear, MaxPool2d, ReLU
from .quantize import (
    CALIBRATION_SAMPLES,
    CALIBRATION_SEED,
    LayerCalibration,
    QuantTolerance,
    calibrate_layer,
)

__all__ = [
    "InferencePlan",
    "resolve_plan_dtype",
    "quantized_savings",
    "QUANT_DTYPES",
]

_DTYPES = {"float64": np.float64, "float32": np.float32}


class _QuantSpec:
    """Per-family constants of a quantized plan lane.

    ``conv_bits`` sizes convolution weights *and* activations — for the
    int8 family both ride in one byte, which is where the speed lives:
    the im2col columns (with the GEMM, the planned engine's dominant
    memory traffic) take a quarter of float32's bytes, and the 8-bit
    operands feed the AVX512-VNNI integer GEMM when the host kernel has
    it.
    ``linear_bits`` sizes the fully-connected layers: they carry under
    2% of the MACs, so the int8 family keeps them at 16 bits — logit
    accuracy is nearly free while the convolutions still move the
    narrow operands (the same asymmetry EVA2 exploits: narrow where the
    traffic is).  The systematic part of the 8-bit rounding error is
    folded back into the quantized biases at compile time
    (:func:`_fold_bias_correction`), which is what keeps the lane's
    top-1 agreement at the contract bound despite the one-byte
    activations.

    The widths are fixed per family, never derived from host kernel
    availability: every process — VNNI, plain C, or the
    ``REPRO_FORCE_NUMPY`` lane — must pick identical Q-formats and
    produce bit-identical raws.  Storage and GEMM dtypes are derived
    per layer from the calibrated formats (:func:`_storage_for`,
    :func:`_gemm_dtype_for`).
    """

    def __init__(self, name, conv_bits, linear_bits):
        self.name = name
        self.conv_bits = conv_bits
        self.linear_bits = linear_bits

    def weight_bits(self, layer) -> int:
        return self.linear_bits if isinstance(layer, Linear) else self.conv_bits

    def act_in_bits(self, layer) -> int:
        """Width of the activation feeding ``layer``'s GEMM."""
        return self.linear_bits if isinstance(layer, Linear) else self.conv_bits


QUANT_DTYPES = ("int8", "q16")

_QUANT_SPECS = {
    "int8": _QuantSpec("int8", 8, 16),
    "q16": _QuantSpec("q16", 16, 16),
}


def _storage_for(fmt: QFormat) -> np.dtype:
    """Integer dtype that holds raws of ``fmt`` between steps."""
    return np.dtype(np.int8) if fmt.total_bits <= 8 else np.dtype(np.int16)


def _gemm_dtype_for(in_fmt: QFormat, w_fmts, terms: int) -> np.dtype:
    """Float dtype whose mantissa makes the integer GEMM *exact*.

    A product of raws needs ``(in_bits-1) + (w_bits-1)`` bits, a
    reduction over ``terms`` of them adds ``ceil(log2(terms))``, and one
    more bit covers the folded-in quantized bias.  When that fits
    float32's 24-bit mantissa the GEMM runs in float32 (full sgemm
    throughput); otherwise float64 — still exact (53 bits), still
    order-independent, still fused.
    """
    w_bits = max(f.total_bits for f in w_fmts)
    bits = (
        (in_fmt.total_bits - 1)
        + (w_bits - 1)
        + math.ceil(math.log2(max(terms, 2)))
        + 1
    )
    return np.dtype(np.float32) if bits <= 24 else np.dtype(np.float64)

#: Safety factor on the calibration-set error when sizing a quantized
#: plan's ``max_abs_error`` bound.  The headroom covers two effects the
#: calibration pass cannot see: live traffic is only *sampled* by the
#: seeded calibration set, and under AMC the plan's prefix error is
#: amplified before it reaches the output — predicted frames warp the
#: quantized prefix activations and re-enter the suffix, compounding the
#: per-pass error severalfold.  Measured across the serving workloads,
#: end-to-end error stays within ~6x the single-pass calibration error;
#: 16x promises comfortably past that while still rejecting
#: wrong-by-construction outputs.
_TOLERANCE_SAFETY = 16.0

#: Absolute floor of the ``max_abs_error`` bound (a plan whose
#: calibration error rounds to zero still promises a non-trivial bound).
_TOLERANCE_FLOOR = 1e-6

#: Top-1 agreement fraction a quantized lane promises against the
#: float64 reference — the second leg of the tolerance contract.
_TOP1_BOUND = 0.98


def _dtype_error(dtype) -> ValueError:
    supported = sorted((*_DTYPES, *QUANT_DTYPES))
    return ValueError(f"dtype must be one of {supported}, got {dtype!r}")


def resolve_plan_dtype(dtype) -> str:
    """Canonical plan-family name for ``dtype``: ``"float64"``,
    ``"float32"``, ``"int8"``, or ``"q16"``.

    Accepts the family names as strings plus anything ``np.dtype``
    resolves to one of the float families.  This name keys the
    per-network plan cache and the prefix-service content cache, so two
    spellings of the same family must always map to one string.
    """
    if isinstance(dtype, str):
        if dtype in _DTYPES or dtype in _QUANT_SPECS:
            return dtype
        raise _dtype_error(dtype)
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        raise _dtype_error(dtype) from None
    for name, np_type in _DTYPES.items():
        if resolved == np.dtype(np_type):
            return name
    raise _dtype_error(dtype)


def _resolve_dtype(dtype) -> np.dtype:
    """The numpy dtype a plan family exchanges with its callers.

    Float families compute in their own dtype; the quantized families
    hold integers internally but accept and return float32 at the plan
    boundary (inputs are quantized on entry, outputs dequantized on
    exit), so their external dtype is float32.
    """
    name = resolve_plan_dtype(dtype)
    if name in _DTYPES:
        return np.dtype(_DTYPES[name])
    return np.dtype(np.float32)


def quantized_savings(network, dtype) -> Optional[QuantSavings]:
    """Estimated MAC-energy / memory-traffic savings of a quantized lane.

    Pure shape arithmetic over the network's weighted layers and the
    family's fixed bit widths — no compiled plan needed, because the
    widths are family constants, not calibration outputs.  Returns
    ``None`` for the float families (there is nothing to compare).
    Surfaced on ``WorkloadResult`` / ``ServingReport`` so a serving run
    reports the hardware story (what an EVA2-style datapath at these
    widths would save) next to the measured host throughput.
    """
    name = resolve_plan_dtype(dtype)
    spec = _QUANT_SPECS.get(name)
    if spec is None:
        return None
    rows = []
    for layer, in_shape in zip(network.layers, network.layer_input_shapes):
        if not isinstance(layer, (Conv2d, Linear)):
            continue
        rows.append((
            int(layer.macs(in_shape)),
            int(np.prod(in_shape)),
            int(layer.params["weight"].size),
            spec.weight_bits(layer),
            spec.act_in_bits(layer),
        ))
    return estimate_quantized_savings(rows)


class _Step:
    """One compiled layer: preallocated scratch plus a forward method."""

    def __init__(self, layer: Layer):
        self.layer = layer

    def run(self, x: np.ndarray, batch: int) -> np.ndarray:
        raise NotImplementedError

    def resize(self, capacity: int) -> None:
        """Reallocate scratch for a new batch capacity.

        Only leading-axis scratch changes; compiled geometry (weight
        snapshots, fused-GEMM probe results, per-sample conv scratch) is
        capacity-independent and survives every resize.
        """


class _ConvStep(_Step):
    """A float convolution, run one sample at a time.

    float64 convolutions whose order :func:`_conv_order` recognises run
    *direct*: the compiled ``conv_chain_f64`` reads the sample's input
    into the zero-padded ``plane`` and convolves straight from it into
    ``raw`` -- this conv's output for that sample, NHWC, bias not yet
    added -- in the order numpy's BLAS sums the training path's GEMM,
    so no column matrix exists.  Every other float convolution (float32,
    an unrecognised order, no compiled kernel) writes the sample's im2col
    rows into ``cols`` in the training path's (c, ky, kx) order
    (:func:`~repro.core.sad_kernel.im2col_compiled` or its NumPy twin),
    and the sample's GEMM -- the serial shape, with the training path's
    weight operand -- reads them straight from L2 into ``raw``.  Either
    way the next read-in adds the bias, applies the ReLU and max-pool in
    between, and pads, all as it reads (:class:`_FloatChain`), so no
    padded copy, index array or batch-wide buffer exists, and the scratch
    does not grow with capacity.  float64 reads the live layer
    parameters on every call; float32 uses the compile-time snapshot
    ``weights``.
    """

    def __init__(self, layer: Conv2d, in_shape, dtype,
                 weights: Optional[Tuple[np.ndarray, np.ndarray]]):
        super().__init__(layer)
        c, h, w = in_shape
        k = layer.kernel
        self.out_h = F.conv_output_size(h, k, layer.stride, layer.pad)
        self.out_w = F.conv_output_size(w, k, layer.stride, layer.pad)
        self.out_c = layer.out_channels
        self.rows = self.out_h * self.out_w
        self.ckk = c * k * k
        self.dtype = np.dtype(dtype)
        self._weights = weights  # None = read live float64 params
        ck = get_kernel()
        self.kernel = ck if ck is not None and ck.has_float_im2col else None
        #: the direct kernel's geometry and summation order, or None: the
        #: read-in + GEMM path
        self.direct: Optional[DirectConv] = None
        if (self.kernel is not None and self.kernel.has_float_direct
                and self.dtype == np.float64 and weights is None):
            conv = DirectConv(c, h, w, k, layer.stride, layer.pad,
                              self.out_c, "sequential")
            order = _conv_order(self.kernel, conv)
            if order is not None:
                self.direct = conv._replace(order=order)
        self.cols: Optional[np.ndarray] = None
        if self.direct is None:
            self.raw = np.empty((self.rows, self.out_c), self.dtype)
            self.use_cols()
        else:
            (self.scratch, self.plane, self.raw, self.panel,
             self.parts) = self.direct.scratch()
        #: ``raw`` as the (1, C, H, W) source of the next read-in
        self.raw_nchw = self.raw.reshape(
            1, self.out_h, self.out_w, self.out_c
        ).transpose(0, 3, 1, 2)
        self._alone: Optional[_FloatChain] = None

    def use_cols(self) -> None:
        """Allocate the column scratch of the read-in + GEMM path."""
        if self.cols is None:
            self.cols = np.empty((self.rows, self.ckk), self.dtype)

    def operands(self):
        """``(w_t, bias)``: float64 passes the training path's ``w_mat.T``
        view itself (a contiguous copy of it changes output bits)."""
        if self._weights is not None:
            return self._weights
        w_mat = self.layer.params["weight"].reshape(self.out_c, -1)
        return w_mat.T, self.layer.params["bias"]

    def run(self, x: np.ndarray, batch: int) -> np.ndarray:
        """This conv alone, bias added: a fresh NCHW array."""
        if self._alone is None:
            self._alone = _FloatChain([self], [(False, None)], (False, None))
        return self._alone(x, batch)


#: :func:`~repro.core.sad_kernel.blas_conv_order` per conv geometry, for
#: this process
_ORDERS: Dict[DirectConv, Optional[str]] = {}


def _conv_order(kernel, conv: DirectConv) -> Optional[str]:
    """The summation order numpy's BLAS uses for ``conv``'s GEMM, when
    the direct kernel computes it (``"sequential"`` or ``"k-residue"``),
    else None: probed once per geometry per process."""
    key = conv._replace(order="sequential")
    if key not in _ORDERS:
        _ORDERS[key] = blas_conv_order(kernel, key)
    return _ORDERS[key]


class _FloatChain:
    """Consecutive float convolutions with their folded neighbours, run
    one sample at a time -- the float lanes' step runner.

    ``links[i]`` is the ``(relu, pool)`` read in before ``convs[i]``: for
    ``i = 0`` from the range's input, for ``i > 0`` from ``convs[i-1]``'s
    raw output, whose bias the read-in adds first.  ``tail`` is the
    ``(relu, pool)`` applied as the last conv's raw output is written,
    bias added, into the owned NCHW result.  Each sample passes through
    every conv before the next sample starts, so its activations stay in
    L2 from one conv to the next read-in.

    When every conv runs direct (``self.direct``), the whole batch is one
    compiled ``conv_chain_f64`` call, which releases the GIL; otherwise
    -- one unrecognised order is enough -- the chain keeps the per-conv
    read-in + GEMM path (``_run_compiled``, or ``_run_numpy`` without the
    compiled read-in).
    """

    def __init__(self, convs, links, tail):
        self.convs = convs
        self.links = links
        self.tail = tail
        last = convs[-1]
        out_h, out_w = last.out_h, last.out_w
        if tail[1] is not None:
            field, step = tail[1]
            out_h = F.conv_output_size(out_h, field, step, 0)
            out_w = F.conv_output_size(out_w, field, step, 0)
        self.out_shape = (last.out_c, out_h, out_w)
        self.dtype = last.dtype
        self.kernel = convs[0].kernel
        self.direct = all(conv.direct is not None for conv in convs)
        if self.direct:
            # Scratch never moves: its addresses are bound once.  The
            # geometry follows the input's strides, bound on first sight
            # of each; weights and biases are bound when their arrays
            # change (``_live``).
            self._table = direct_pointers(
                [None] * len(convs), [None] * len(convs),
                [(conv.scratch, conv.plane, conv.raw, conv.panel, conv.parts)
                 for conv in convs],
            )
            self._table_at = addr(self._table)
            self._live: List[np.ndarray] = []
            self._direct: Dict[tuple, np.ndarray] = {}
            return
        for conv in convs:
            conv.use_cols()
        if self.kernel is not None:
            # Every read-in but the first reads the previous conv's raw
            # buffer, which never moves: geometry and addresses are bound
            # once.  The first read-in's geometry follows the input's
            # strides, bound on first sight of each.
            self._geometry = [
                self._bind(prev.raw_nchw, link, conv)
                for prev, link, conv in zip(convs, links[1:], convs[1:])
            ] + [self._bind(last.raw_nchw, tail, None)]
            self._geometry_at = [addr(g) for g in self._geometry]
            self._cols_at = [addr(conv.cols) for conv in convs]
            self._raw_at = [addr(conv.raw) for conv in convs]
            self._first: Dict[tuple, np.ndarray] = {}

    def _bind(self, src, link, conv) -> np.ndarray:
        """Read-in geometry from ``src`` into ``conv``'s columns, or
        (``conv`` None, the tail) into the NCHW result."""
        relu, pool = link
        item = src.itemsize
        k, stride, pad, ld = (0, 1, 0, 0) if conv is None else (
            conv.layer.kernel, conv.layer.stride, conv.layer.pad, conv.ckk
        )
        return im2col_geometry(
            src.shape, [s // item for s in src.strides], item, pool,
            k, stride, pad, item, ld, relu,
        )

    def __call__(self, x: np.ndarray, batch: int) -> np.ndarray:
        out = np.empty((batch,) + self.out_shape, self.dtype)
        if self.direct:
            self._run_direct(x, batch, out)
            return out
        operands = [conv.operands() for conv in self.convs]
        w_ts = [w_t for w_t, _ in operands]
        biases = [
            np.ascontiguousarray(bias, self.dtype) for _, bias in operands
        ]
        if self.kernel is None:
            self._run_numpy(x, batch, w_ts, biases, out)
        else:
            self._run_compiled(x, batch, w_ts, biases, out)
        return out

    def _bind_live(self) -> None:
        """Point the table at each conv's live weight and bias.  Arrays
        the kernel can read in place are bound until the layer holds
        another array; any other is copied, and rebound, on every call."""
        live = [
            array for conv in self.convs
            for array in (conv.layer.params["weight"],
                          conv.layer.params["bias"])
        ]
        if len(live) == len(self._live) and all(
            a is b for a, b in zip(live, self._live)
        ):
            return
        for conv, weight, bias in zip(self.convs, live[0::2], live[1::2]):
            d = conv.direct  # the kernel reads these extents unchecked
            if weight.shape != (d.n, d.c, d.k, d.k) or bias.shape != (d.n,):
                raise ValueError(
                    f"{conv.layer.name}: weight {weight.shape} and bias "
                    f"{bias.shape} do not fit the compiled geometry"
                )
        bound = [np.ascontiguousarray(a, np.float64) for a in live]
        table = self._table.reshape(-1, 6)
        table[:, 0] = [addr(a) for a in bound[0::2]]
        table[:, 1] = [addr(a) for a in bound[1::2]]
        in_place = all(a is b for a, b in zip(live, bound))
        self._live = live if in_place else []
        self._bound = bound  # the copies stay alive while bound

    def _run_direct(self, x, batch, out) -> None:
        if min(x.strides) < 0 or any(s % x.itemsize for s in x.strides):
            x = np.ascontiguousarray(x)
        geometry = self._direct.get(x.strides)
        if geometry is None:
            geometry = self._direct[x.strides] = direct_chain_geometry(
                [s // x.itemsize for s in x.strides],
                [conv.direct for conv in self.convs], self.links, self.tail,
            )
        self._bind_live()
        if self.kernel.conv_chain_f64(addr(x), batch, addr(geometry),
                                      self._table_at, addr(out)):
            raise MemoryError("conv_chain_f64 could not allocate its scratch")

    def _run_compiled(self, x, batch, w_ts, biases, out) -> None:
        convs = self.convs
        if min(x.strides) < 0 or any(s % x.itemsize for s in x.strides):
            x = np.ascontiguousarray(x)
        first = self._first.get(x.strides)
        if first is None:
            first = self._first[x.strides] = self._bind(
                x[:1], self.links[0], convs[0]
            )
        geometry = [addr(first)] + self._geometry_at
        bias_at = [addr(bias) for bias in biases]
        cols_at, raw_at = self._cols_at, self._raw_at
        x_at, out_at = addr(x), addr(out)
        im2col, n = self.kernel.im2col, len(convs)
        for b in range(batch):
            src, bias = x_at + b * x.strides[0], None
            for i in range(n):
                if im2col(src, geometry[i], bias, cols_at[i]):
                    raise MemoryError("im2col could not allocate its row ring")
                np.matmul(convs[i].cols, w_ts[i], out=convs[i].raw)
                src, bias = raw_at[i], bias_at[i]
            if im2col(src, geometry[n], bias, out_at + b * out.strides[0]):
                raise MemoryError("im2col could not allocate its row ring")

    def _run_numpy(self, x, batch, w_ts, biases, out) -> None:
        for b in range(batch):
            src, bias = x[b : b + 1], None
            for conv, (relu, pool), w_t, conv_bias in zip(
                self.convs, self.links, w_ts, biases
            ):
                layer = conv.layer
                im2col_numpy(src, pool, layer.kernel, layer.stride,
                             layer.pad, conv.cols, bias, relu)
                np.matmul(conv.cols, w_t, out=conv.raw)
                src, bias = conv.raw_nchw, conv_bias
            relu, pool = self.tail
            im2col_numpy(src, pool, 0, 1, 0, out[b : b + 1], bias, relu)


class _LinearStep(_Step):
    """A fully-connected layer: one GEMM per sample by default.

    One GEMM per sample is exactly the shapes the serial pipeline
    issues, hence bitwise equal to it by construction.  On first
    encountering a batch size, a probe on synthetic full-range random
    data (never the live activations, which could be degenerate — e.g.
    mostly zero after a ReLU — and pass by coincidence) compares the
    fused single GEMM against the per-sample loop: when BLAS produces
    identical bits for the stacked shape (shape-dependent, so probed per
    host), the fused call serves all later calls at that batch size.
    """

    def __init__(self, layer: Linear, capacity: int, dtype,
                 weights: Optional[Tuple[np.ndarray, np.ndarray]]):
        super().__init__(layer)
        self._fused_ok: Dict[int, bool] = {}
        self.out = np.empty((capacity, layer.out_features), dtype=dtype)
        self._weights = weights

    def resize(self, capacity: int) -> None:
        self.out = np.empty((capacity,) + self.out.shape[1:], dtype=self.out.dtype)

    def _operands(self):
        if self._weights is not None:
            return self._weights
        return self.layer.params["weight"].T, self.layer.params["bias"]

    def _probe_fused(self, w_t: np.ndarray, batch: int) -> bool:
        rng = np.random.default_rng(0x5EED + batch)
        a = rng.standard_normal((batch, w_t.shape[0])).astype(
            w_t.dtype, copy=False
        )
        fused = a @ w_t
        looped = np.empty_like(fused)
        for s in range(batch):
            np.matmul(a[s : s + 1], w_t, out=looped[s : s + 1])
        return bool(np.array_equal(fused, looped))

    def run(self, x: np.ndarray, batch: int) -> np.ndarray:
        flat = x.reshape(batch, -1)
        out = self.out[:batch]
        w_t, bias = self._operands()
        fused = batch == 1 or self._fused_ok.get(batch)
        if fused is None:
            fused = self._fused_ok[batch] = self._probe_fused(w_t, batch)
        if fused:
            np.matmul(flat, w_t, out=out)
        else:
            for s in range(batch):
                np.matmul(flat[s : s + 1], w_t, out=out[s : s + 1])
        np.add(out, bias, out=out)
        return out


class _ReLUStep(_Step):
    """A ReLU the schedule could not fold into a conv's read-in or
    requant clamp (a range that starts at it, or one after a Linear).

    Both forms keep the input's memory layout (an NHWC-backed view stays
    one, so each pass runs over contiguous memory) and allocate their
    output per call: a folded ReLU never needs scratch.
    """

    def __init__(self, layer: ReLU, dtype):
        super().__init__(layer)
        self.dtype = np.dtype(dtype)

    def run(self, x: np.ndarray, batch: int) -> np.ndarray:
        if self.dtype.kind in "iu":
            # Integer raws have no signed zeros: one max pass is exact.
            return np.maximum(x, 0)
        # x * (x > 0), exactly as the training path computes it (bitwise
        # including signed zeros).
        return x * (x > 0)


class _MaxPoolStep(_Step):
    """A max-pool the schedule could not fold into a conv's read-in.

    Keeps each window's first maximum, as the training path's argmax
    (:func:`~repro.core.sad_kernel.first_max_pool`): on a ``-0.0``/``0.0``
    tie ``np.maximum`` would flip the sign of the pooled zero.
    """

    def __init__(self, layer: MaxPool2d, dtype):
        super().__init__(layer)
        self.field, self.stride = layer.field, layer.stride
        self.dtype = np.dtype(dtype)

    def run(self, x: np.ndarray, batch: int) -> np.ndarray:
        return first_max_pool(x, self.field, self.stride)


class _FlattenStep(_Step):
    def run(self, x: np.ndarray, batch: int) -> np.ndarray:
        return x.reshape(batch, -1)


class _GenericStep(_Step):
    """Fallback for layer types the planner does not specialise."""

    def run(self, x: np.ndarray, batch: int) -> np.ndarray:
        return self.layer.forward(x, train=False)


# --------------------------------------------------------------------- #
# quantized-lane steps
# --------------------------------------------------------------------- #
def _quantize_raws(x: np.ndarray, fmt: QFormat, storage: np.dtype) -> np.ndarray:
    """Float activations → raw integers in ``fmt`` (round, saturate).

    The compiled one-pass quantize serves C-contiguous float32 input
    (the plan boundary's dtype); the scale is a power of two, so its
    float32 multiply is as exact as the NumPy chain's float64 one.
    """
    ck = get_kernel()
    if ck is not None and x.dtype == np.float32 and x.flags["C_CONTIGUOUS"]:
        raw = np.empty(x.shape, storage)
        quantize = ck.quantize_q8 if storage == np.int8 else ck.quantize_q16
        quantize(addr(x), x.size, float(fmt.scale), float(fmt.min_raw),
                 float(fmt.max_raw), addr(raw))
        return raw
    raw = np.rint(np.asarray(x, dtype=np.float64) * fmt.scale)
    np.clip(raw, fmt.min_raw, fmt.max_raw, out=raw)
    return raw.astype(storage)


def _quantize_operands(w_t, bias, cal, in_fmt, out_fmt, gemm_dtype):
    """Quantized GEMM operands for one Conv/Linear layer.

    ``w_t`` is the (in, out)-shaped transposed weight matrix; each
    output column gets its own calibrated scale
    (``cal.weight_channel_formats``).  Returns
    ``(w_q, bias_q, acc_scales, out_scale, requant_mult)`` — the last
    two are per-channel vectors, one of which is None depending on
    whether the layer requantizes (mid-plan) or dequantizes (final
    layer); ``acc_scales`` (float64, value→accumulator units) is kept
    for the calibration-time bias correction.  Every scale involved is
    a power of two, so the requant/dequant multiplies stay exact.
    """
    w_fmts = cal.weight_channel_formats
    w_scales = np.array([f.scale for f in w_fmts], dtype=np.float64)
    w_raw = np.rint(np.asarray(w_t, dtype=np.float64) * w_scales[None, :])
    np.clip(w_raw, w_fmts[0].min_raw, w_fmts[0].max_raw, out=w_raw)
    w_q = np.ascontiguousarray(w_raw.astype(gemm_dtype))
    acc_scales = float(in_fmt.scale) * w_scales
    bias_q = np.rint(bias * acc_scales).astype(gemm_dtype)
    if out_fmt is None:
        return w_q, bias_q, acc_scales, (1.0 / acc_scales).astype(gemm_dtype), None
    return (
        w_q, bias_q, acc_scales, None,
        (out_fmt.scale / acc_scales).astype(gemm_dtype),
    )


def _fold_bias_correction(step, out, ref, axes) -> None:
    """Shift ``step.bias_q`` by the mean (ref - quantized output) error.

    ``out`` is the step's raw (or final-layer float) output over the
    calibration samples; the per-channel mean deviation is rounded into
    accumulator units, so the folded bias stays integer-valued and the
    GEMM stays exact.
    """
    if step.out_fmt is not None:
        deq = np.asarray(out, dtype=np.float64) / step.out_fmt.scale
    else:
        deq = np.asarray(out, dtype=np.float64)
    delta = np.mean(np.asarray(ref, dtype=np.float64) - deq, axis=axes)
    corr = np.rint(delta * step.acc_scales)
    step.bias_q += corr.astype(step.bias_q.dtype)


def _requant_gemm_out(out2d, mult, lo, hi, store) -> None:
    """Rescale integer-exact GEMM output into the next format's raws.

    ``mult`` is a power of two (both scales are), so the multiply only
    shifts exponents and stays exact; ``np.rint`` then resolves exact
    .5 ties deterministically (half-to-even) and the clip saturates —
    the same round/saturate semantics as :meth:`QFormat.quantize`.
    """
    np.multiply(out2d, mult, out=out2d)
    np.rint(out2d, out=out2d)
    np.clip(out2d, lo, hi, out=out2d)
    np.copyto(store, out2d, casting="unsafe")


class _QuantConvStep(_Step):
    """A convolution over raw integer activations.

    The input arrives as integer raws in any layout — normally an NCHW
    view of the previous conv's NHWC GEMM output — and one im2col pass
    (:func:`~repro.core.sad_kernel.im2col_compiled`, or its NumPy twin)
    reads it straight into the GEMM operand: zero padding, the +128
    VNNI offset or the widening to the GEMM dtype, and an optional
    max-pool all happen as it reads, so no padded copy and no index
    array exist.  Its columns come out in (ky, kx, c) order, and the
    GEMM weights are permuted to match once at compile time; the GEMM
    is integer-exact (see ``_QuantSpec``), so column order, like batch
    fusion, cannot change a bit.  The accumulator (scale ``in_fmt.scale
    * w_fmt.scale``) absorbs the quantized bias and is requantized to
    ``out_fmt`` — clamped at 0 as well when a ReLU follows, which on
    integer raws is exactly that ReLU — or dequantized to float32 when
    this is the plan's final compute layer (``out_fmt is None``).

    ``run(x, batch, pool, relu)`` takes the folded neighbours from the
    plan's schedule (:meth:`InferencePlan._schedule`); with neither it
    is the plain per-layer step the calibration walk runs.
    """

    def __init__(self, layer: Conv2d, in_shape, capacity: int, spec,
                 cal: LayerCalibration, in_fmt: Optional[QFormat],
                 out_fmt: Optional[QFormat]):
        super().__init__(layer)
        c, h, w = in_shape
        k = layer.kernel
        self.out_h = F.conv_output_size(h, k, layer.stride, layer.pad)
        self.out_w = F.conv_output_size(w, k, layer.stride, layer.pad)
        self.out_c = layer.out_channels
        self.rows = self.out_h * self.out_w
        self.ckk = c * k * k
        self.in_fmt = in_fmt if in_fmt is not None else cal.input_format
        self.quantize_input = in_fmt is None
        self.out_fmt = out_fmt
        self.storage = _storage_for(self.in_fmt)
        self.gemm_dtype = _gemm_dtype_for(
            self.in_fmt, cal.weight_channel_formats, self.ckk
        )
        w_mat = layer.params["weight"].reshape(self.out_c, -1).T
        (self.w_q, self.bias_q, self.acc_scales, self.out_scale,
         self.requant_mult) = (
            _quantize_operands(
                w_mat, layer.params["bias"], cal, self.in_fmt, out_fmt,
                self.gemm_dtype,
            )
        )
        # The GEMM operand in the im2col's (ky, kx, c) row order; w_q
        # keeps the layer's (c, ky, kx) order.
        self._w_cols = np.ascontiguousarray(
            self.w_q.reshape(c, k, k, self.out_c).transpose(1, 2, 0, 3)
            .reshape(self.ckk, self.out_c)
        )
        ck = get_kernel()
        self._kernel = ck
        self._im2col_kernel = ck if ck is not None and ck.has_im2col else None
        out_storage = None if out_fmt is None else _storage_for(out_fmt)
        # Single-pass bias-fold + requantize; the NumPy fallback adds
        # the bias separately first.
        self._requant_fn = None if ck is None else {
            (np.float32, np.int8): ck.requant_rows_q8,
            (np.float32, np.int16): ck.requant_rows_q16f,
            (np.float64, np.int16): ck.requant_rows_q16,
        }.get((self.gemm_dtype, out_storage))
        if out_fmt is not None:
            #: requant clamp bounds without / with a folded ReLU
            self._clamp = {
                False: (float(out_fmt.min_raw), float(out_fmt.max_raw)),
                True: (max(float(out_fmt.min_raw), 0.0),
                       float(out_fmt.max_raw)),
            }
        # AVX512-VNNI route: with one-byte operands and a requantized
        # output, the GEMM reads the im2col's uint8 columns (raw + 128)
        # and requantizes in the same call — no float column matrix, no
        # separate requant pass.  ckk <= 512 keeps the offset
        # accumulator and the offset-corrected bias inside float32's
        # 24-bit mantissa, so the kernel is bitwise the sgemm/NumPy
        # chain it replaces.
        self._vnni = (
            ck is not None
            and ck.has_vnni
            and self.storage == np.int8
            and out_storage is not None
            and max(f.total_bits for f in cal.weight_channel_formats) <= 8
            and self.out_c <= 32
            and self.ckk <= 512
        )
        if self._vnni:
            self._gemm_fn = (
                ck.gemm_requant_u8s8 if out_storage == np.int8
                else ck.gemm_requant_u8s8_o16
            )
            self._kp = -(-self.ckk // 4) * 4
            w_raw = np.ascontiguousarray(self._w_cols.T).astype(np.int8)
            # One ZMM of channels per row when they fit, else two.
            lanes = 16 if self.out_c <= 16 else 32
            wt_pad = np.zeros((lanes, self._kp), dtype=np.int8)
            wt_pad[: self.out_c, : self.ckk] = w_raw
            self._w_packed = np.ascontiguousarray(
                wt_pad.reshape(lanes, self._kp // 4, 4).transpose(1, 0, 2)
            )
            self._w_colsum = w_raw.sum(axis=1, dtype=np.float64)  # exact
            self._pack_vnni_operands()
        elif self._requant_fn is not None:
            # bias_q is only ever updated in place (bias correction), so
            # its address holds for the plan's life.
            self._requant_consts = {
                relu: (addr(self.bias_q), addr(self.requant_mult), lo, hi)
                for relu, (lo, hi) in self._clamp.items()
            }
        self._alloc(capacity)

    def _bind(self) -> None:
        """Addresses of the scratch the kernels touch, retaken on every
        reallocation (``_alloc``)."""
        if self._kernel is None:
            return
        self._cols_addr = addr(self.cols)
        if not self._vnni:
            self._out2d_addr = addr(self.out2d)
        if self.out_fmt is not None:
            self._out_q_addr = addr(self.out_q)

    def _pack_vnni_operands(self) -> None:
        """32-padded bias/mult vectors for the VNNI kernel.

        The +128 activation offset adds ``128 * sum_k(w)`` to each
        channel's accumulator; subtracting it from the quantized bias
        restores the true sum.  Re-run after any ``bias_q`` update (the
        calibration-time bias correction mutates it).
        """
        bias_eff = np.zeros(32, dtype=np.float32)
        bias_eff[: self.out_c] = (
            self.bias_q.astype(np.float64) - 128.0 * self._w_colsum
        ).astype(np.float32)
        mult = np.zeros(32, dtype=np.float32)
        mult[: self.out_c] = self.requant_mult
        self._vnni_bias = bias_eff
        self._vnni_mult = mult
        self._vnni_consts = {
            relu: (addr(self._w_packed), self.out_c, addr(bias_eff),
                   addr(mult), lo, hi)
            for relu, (lo, hi) in self._clamp.items()
        }

    def _alloc(self, capacity: int) -> None:
        if self._vnni:
            # One byte per operand; the kp-ckk pad columns are never
            # written and meet zero packed weights, so they stay inert.
            self.cols = np.zeros(
                (capacity * self.rows, self._kp), dtype=np.uint8
            )
            self.out2d = None
        else:
            self.cols = np.empty(
                (capacity * self.rows, self.ckk), dtype=self.gemm_dtype
            )
            self.out2d = np.empty(
                (capacity * self.rows, self.out_c), dtype=self.gemm_dtype
            )
        shape = (capacity, self.out_h, self.out_w, self.out_c)
        if self.out_fmt is None:
            self.out_f = np.empty(shape, np.float32)
        else:
            self.out_q = np.empty(shape, dtype=_storage_for(self.out_fmt))
        self._bind()

    def resize(self, capacity: int) -> None:
        self._alloc(capacity)

    def run(self, x: np.ndarray, batch: int, pool=None,
            relu: bool = False) -> np.ndarray:
        """Convolve ``x`` (a max-pool ``(field, stride)`` of it when
        ``pool`` is given), then apply ReLU when ``relu``."""
        if self.quantize_input:
            x = _quantize_raws(x, self.in_fmt, self.storage)
        cols = self.cols[: batch * self.rows]
        layer = self.layer
        if self._im2col_kernel is not None:
            im2col_compiled(
                self._im2col_kernel, x, pool, layer.kernel, layer.stride,
                layer.pad, cols,
            )
        else:
            im2col_numpy(x, pool, layer.kernel, layer.stride, layer.pad, cols)
        if self._vnni:
            self._gemm_fn(
                self._cols_addr, batch * self.rows, self._kp // 4,
                *self._vnni_consts[relu], self._out_q_addr, self.out_c,
            )
            return self.out_q[:batch].transpose(0, 3, 1, 2)
        out2d = self.out2d[: batch * self.rows]
        # Integer-exact, hence order-independent: always fused.
        np.matmul(cols, self._w_cols, out=out2d)
        if self.out_fmt is None:
            np.add(out2d, self.bias_q, out=out2d)
            out4 = out2d.reshape(batch, self.out_h, self.out_w, self.out_c)
            out = self.out_f[:batch]
            np.multiply(out4, self.out_scale, out=out, casting="unsafe")
            return out.transpose(0, 3, 1, 2)
        store = self.out_q[:batch]
        if self._requant_fn is not None:
            # The kernel folds the bias into its single requant pass.
            self._requant_fn(
                self._out2d_addr, batch * self.rows, self.out_c,
                *self._requant_consts[relu], self._out_q_addr,
            )
        else:
            np.add(out2d, self.bias_q, out=out2d)
            lo, hi = self._clamp[relu]
            _requant_gemm_out(
                out2d, self.requant_mult, lo, hi,
                store.reshape(batch * self.rows, self.out_c),
            )
        return store.transpose(0, 3, 1, 2)

    def apply_bias_correction(self, x, ref, batch: int) -> None:
        _fold_bias_correction(self, self.run(x, batch), ref, (0, 2, 3))
        if self._vnni:
            self._pack_vnni_operands()


class _QuantLinearStep(_Step):
    """A fully-connected layer over raw integer activations.

    Same integer-exact GEMM scheme as :class:`_QuantConvStep`, minus the
    im2col (the flattened raws are the operand, widened into a staging
    buffer).  The plan's final layer dequantizes instead of requantizing
    so the network outputs keep full float32 resolution.
    """

    def __init__(self, layer: Linear, capacity: int, spec,
                 cal: LayerCalibration, in_fmt: Optional[QFormat],
                 out_fmt: Optional[QFormat]):
        super().__init__(layer)
        self.in_fmt = in_fmt if in_fmt is not None else cal.input_format
        self.quantize_input = in_fmt is None
        self.out_fmt = out_fmt
        self.in_features = layer.in_features
        self.out_features = layer.out_features
        self.gemm_dtype = _gemm_dtype_for(
            self.in_fmt, cal.weight_channel_formats, self.in_features
        )
        (self.w_q, self.bias_q, self.acc_scales, self.out_scale,
         self.requant_mult) = (
            _quantize_operands(
                layer.params["weight"].T, layer.params["bias"], cal,
                self.in_fmt, out_fmt, self.gemm_dtype,
            )
        )
        self._alloc(capacity)

    def _alloc(self, capacity: int) -> None:
        self.operand = np.empty(
            (capacity, self.in_features), dtype=self.gemm_dtype
        )
        self.out2d = np.empty(
            (capacity, self.out_features), dtype=self.gemm_dtype
        )
        if self.out_fmt is None:
            self.out_f = np.empty((capacity, self.out_features), np.float32)
        else:
            self.out_q = np.empty(
                (capacity, self.out_features), dtype=_storage_for(self.out_fmt)
            )

    def resize(self, capacity: int) -> None:
        self._alloc(capacity)

    def run(self, x: np.ndarray, batch: int) -> np.ndarray:
        flat = x.reshape(batch, -1)
        operand = self.operand[:batch]
        if self.quantize_input:
            np.multiply(flat, self.in_fmt.scale, out=operand, casting="unsafe")
            np.rint(operand, out=operand)
            np.clip(operand, self.in_fmt.min_raw, self.in_fmt.max_raw,
                    out=operand)
        else:
            np.copyto(operand, flat, casting="unsafe")
        out2d = self.out2d[:batch]
        np.matmul(operand, self.w_q, out=out2d)
        np.add(out2d, self.bias_q, out=out2d)
        if self.out_fmt is None:
            out = self.out_f[:batch]
            np.multiply(out2d, self.out_scale, out=out, casting="unsafe")
            return out
        store = self.out_q[:batch]
        _requant_gemm_out(
            out2d, self.requant_mult,
            self.out_fmt.min_raw, self.out_fmt.max_raw, store,
        )
        return store

    def apply_bias_correction(self, x, ref, batch: int) -> None:
        _fold_bias_correction(self, self.run(x, batch), ref, (0,))


class _DequantWrapStep(_Step):
    """Dequantize raw integer input, then run a float step.

    Wraps the float-fallback layers of a quantized plan (calibration
    saturated, or a layer type with no integer path) so the steps list
    stays one-per-layer — ``run_prefix``/``run_suffix`` slice by layer
    index and must keep doing so.
    """

    def __init__(self, inner: _Step, fmt: QFormat, in_shape, capacity: int):
        super().__init__(inner.layer)
        self.inner = inner
        self.fmt = fmt
        self._in_shape = tuple(in_shape)
        self._alloc(capacity)

    def _alloc(self, capacity: int) -> None:
        self.buf = np.empty((capacity,) + self._in_shape, dtype=np.float32)

    def resize(self, capacity: int) -> None:
        self._alloc(capacity)
        self.inner.resize(capacity)

    def run(self, x: np.ndarray, batch: int) -> np.ndarray:
        buf = self.buf[:batch]
        np.multiply(x, np.float32(1.0 / self.fmt.scale), out=buf,
                    casting="unsafe")
        return self.inner.run(buf, batch)


class InferencePlan:
    """Forward-only executor for one network at one batch capacity.

    ``max_batch`` is a capacity: any call with ``1 <= batch <= max_batch``
    reuses the same scratch through leading-axis views.  With the default
    float64 dtype the plan reads the live layer parameters on every call
    (so in-place weight updates are picked up); ``float32`` snapshots
    casted copies at compile time — recompile (or let
    :meth:`Network.load_state_dict` invalidate the cache) after retraining.

    **Quantized plans** (``dtype="int8"`` / ``dtype="q16"``) compile a
    calibration pass first: :data:`~repro.nn.quantize.CALIBRATION_SAMPLES`
    seeded frames run through the float64 reference path and size one
    :class:`~repro.nn.quantize.LayerCalibration` per Conv/Linear layer
    (``self.calibration``).  Weights are quantized and snapshotted at
    compile time; activations flow between steps as raw int8/int16 and
    every GEMM multiplies integer-valued float operands whose products
    and partial sums fit the mantissa exactly — integer arithmetic with
    BLAS throughput, order-independent, so quantized plans are bitwise
    deterministic across batch sizes, batch capacities, and processes.
    Layers whose calibration saturates fall back to float32 snapshots
    inside the plan (``self.quant_fallback_layers``).  The accuracy
    contract is ``self.tolerance`` (a
    :class:`~repro.nn.quantize.QuantTolerance` sized from the measured
    calibration error) instead of bit-identity with the float64 path.
    """

    def __init__(self, network, max_batch: int = 1, dtype="float64"):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.network = network
        self.max_batch = int(max_batch)
        self.dtype_name = resolve_plan_dtype(dtype)
        self.dtype = _resolve_dtype(dtype)
        self._quant = _QUANT_SPECS.get(self.dtype_name)
        #: For quantized plans: the Q-format of the activation *after*
        #: each step (None = float).  ``_execute`` consults it to
        #: quantize a float activation entering mid-plan (``run_suffix``)
        #: and to dequantize raws leaving mid-plan (``run_prefix``) —
        #: the plan boundary always exchanges float.
        self._boundary: List[Optional[QFormat]] = []
        self.calibration: Dict[str, LayerCalibration] = {}
        self.tolerance: Optional[QuantTolerance] = None
        self.calibration_top1: Optional[float] = None
        self._steps: List[_Step] = []
        self._schedules: Dict[Tuple[int, int], List[Callable]] = {}
        if self._quant is not None:
            samples, refs, reference = self._calibrate()
        current: Optional[QFormat] = None
        layers = list(zip(network.layers, network.layer_input_shapes))
        for i, (layer, in_shape) in enumerate(layers):
            if self._quant is None:
                self._steps.append(self._compile(layer, in_shape))
            else:
                step, current = self._compile_quant(
                    layer, in_shape, current, last=(i == len(layers) - 1)
                )
                self._steps.append(step)
                self._boundary.append(current)
        if self._quant is not None:
            self._bias_correct(samples, refs)
            self._measure_tolerance(samples, reference)

    @property
    def quant_fallback_layers(self) -> Tuple[str, ...]:
        """Names of layers calibration sent back to float execution."""
        return tuple(
            name for name, cal in self.calibration.items() if cal.fallback
        )

    # ------------------------------------------------------------------ #
    def _float_snapshot(self, layer, dt):
        out_features = (
            layer.out_channels if isinstance(layer, Conv2d)
            else layer.out_features
        )
        w_t = np.ascontiguousarray(
            layer.params["weight"].reshape(out_features, -1).T, dtype=dt
        )
        return (w_t, layer.params["bias"].astype(dt))

    def _compile(self, layer: Layer, in_shape) -> _Step:
        cap, dt = self.max_batch, self.dtype
        snapshot = None
        if dt == np.float32 and isinstance(layer, (Conv2d, Linear)):
            snapshot = self._float_snapshot(layer, dt)
        if isinstance(layer, Conv2d):
            return _ConvStep(layer, in_shape, dt, snapshot)
        if isinstance(layer, Linear):
            return _LinearStep(layer, cap, dt, snapshot)
        if isinstance(layer, ReLU):
            return _ReLUStep(layer, dt)
        if isinstance(layer, MaxPool2d):
            return _MaxPoolStep(layer, dt)
        if isinstance(layer, Flatten):
            return _FlattenStep(layer)
        return _GenericStep(layer)

    # ------------------------------------------------------------------ #
    # quantized plans
    # ------------------------------------------------------------------ #
    def _calibrate(self):
        """Seeded sample forward pass: per-layer formats + float64 reference.

        Uses the training-path ``layer.forward`` (pure NumPy, bit-exact
        in both kernel lanes) so two processes that compile the same
        network at the same dtype derive identical Q-formats, identical
        quantized weight snapshots, and an identical tolerance bound.
        """
        rng = np.random.default_rng(CALIBRATION_SEED)
        shape = (CALIBRATION_SAMPLES,) + tuple(
            self.network.layer_input_shapes[0]
        )
        samples = rng.random(shape)
        # Each activation is one layer's output and the next GEMM's
        # input, so its width is the *consumer's* accumulator budget:
        # layer k requantizes to act_in_bits(k+1).  The last weighted
        # layer's pre-dequant accumulator gets the family envelope.
        weighted = [
            layer for layer in self.network.layers
            if isinstance(layer, (Conv2d, Linear))
        ]
        out_bits = {
            layer.name: self._quant.act_in_bits(nxt)
            for layer, nxt in zip(weighted, weighted[1:])
        }
        refs: Dict[str, np.ndarray] = {}
        x = samples
        for layer in self.network.layers:
            y = layer.forward(x, train=False)
            if isinstance(layer, (Conv2d, Linear)):
                refs[layer.name] = y
                self.calibration[layer.name] = calibrate_layer(
                    layer.name, x, y, layer.params["weight"],
                    max(self._quant.conv_bits, self._quant.linear_bits),
                    weight_bits=self._quant.weight_bits(layer),
                    in_bits=self._quant.act_in_bits(layer),
                    out_bits=out_bits.get(layer.name),
                )
            x = y
        return samples, refs, x

    def _bias_correct(self, samples, refs) -> None:
        """Fold the calibration-set mean quantization error into biases.

        Weight and activation rounding inject a *systematic* per-channel
        shift (the classic post-training-quantization bias shift), which
        downstream layers then amplify.  Walking the compiled steps over
        the calibration samples, each weighted layer's mean deviation
        from its float64 reference is rounded into accumulator units and
        absorbed into ``bias_q`` — sequentially, so every layer is
        corrected against the *already-corrected* prefix.  The
        correction is an integer in the accumulator's scale, so the
        integer-exact GEMM contract (and with it batch invariance and
        cross-process determinism — the samples are seeded) is
        untouched.
        """
        n = samples.shape[0]
        orig = self.max_batch
        self.reserve(n)
        x = np.ascontiguousarray(samples, dtype=self.dtype)
        for step in self._steps:
            if isinstance(step, (_QuantConvStep, _QuantLinearStep)):
                step.apply_bias_correction(x, refs[step.layer.name], n)
            x = step.run(x, n)
        if orig < n:
            self.shrink(orig)

    def _compile_quant(self, layer, in_shape, current, last):
        """Compile one layer of a quantized plan.

        ``current`` is the Q-format of the incoming activation (None =
        float); returns ``(step, format-after-this-step)``.  Conv/Linear
        layers whose calibration flagged saturation fall back to float32
        snapshots (dequantizing first when raws arrive); the final layer
        dequantizes its accumulator directly so network outputs keep
        full float32 resolution.
        """
        cap, spec = self.max_batch, self._quant
        if isinstance(layer, (Conv2d, Linear)):
            cal = self.calibration[layer.name]
            if cal.fallback:
                snapshot = self._float_snapshot(layer, np.float32)
                if isinstance(layer, Conv2d):
                    step = _ConvStep(layer, in_shape, np.float32, snapshot)
                else:
                    step = _LinearStep(layer, cap, np.float32, snapshot)
                if current is not None:
                    step = _DequantWrapStep(step, current, in_shape, cap)
                return step, None
            out_fmt = None if last else cal.output_format
            if isinstance(layer, Conv2d):
                step = _QuantConvStep(
                    layer, in_shape, cap, spec, cal, current, out_fmt
                )
            else:
                step = _QuantLinearStep(layer, cap, spec, cal, current, out_fmt)
            return step, out_fmt
        if isinstance(layer, ReLU):
            dt = _storage_for(current) if current is not None else np.float32
            return _ReLUStep(layer, dt), current
        if isinstance(layer, MaxPool2d):
            # Max is monotone and the scale positive: max over raws is
            # the raw of the max — runs on integers unchanged.
            dt = _storage_for(current) if current is not None else np.float32
            return _MaxPoolStep(layer, dt), current
        if isinstance(layer, Flatten):
            return _FlattenStep(layer), current
        # No integer path (unspecialised layers): float.
        step = _GenericStep(layer)
        if current is not None:
            step = _DequantWrapStep(step, current, in_shape, cap)
        return step, None

    def _schedule(self, start: int, stop: int) -> List[Callable]:
        """Step runners for ``steps[start:stop]``, every plan family.

        Float convolutions run as :class:`_FloatChain` runners: a chain
        takes a float ReLU and max-pool before its first conv (read in
        from the range's input), the ReLU and pool between consecutive
        convs (read in with the previous conv's bias) and the ReLU and
        pool after its last conv (applied as the result is written).  An
        integer conv absorbs the max-pool right before it (read in by its
        im2col) and the ReLU right after it (its requant clamp).  Either
        way only neighbours inside the range fold; one outside it runs
        as its own step, so every split point returns exactly the
        activation its layer names: ``run_prefix(x, "conv2")`` is
        pre-ReLU, a ``pool1`` target is pooled.  Cached per range; steps
        keep their identity across ``reserve``/``shrink``, so the cache
        does too.
        """
        runners = self._schedules.get((start, stop))
        if runners is not None:
            return runners
        runners = []
        steps = self._steps
        i = start
        while i < stop:
            chain = self._float_chain(i, stop)
            if chain is not None:
                runner, i = chain
                runners.append(runner)
                continue
            step, pool = steps[i], None
            nxt = steps[i + 1] if i + 1 < stop else None
            if (
                isinstance(step, _MaxPoolStep)
                and isinstance(nxt, _QuantConvStep)
                and not nxt.quantize_input
            ):
                pool = (step.field, step.stride)
                i += 1
                step, nxt = nxt, steps[i + 1] if i + 1 < stop else None
            if isinstance(step, _QuantConvStep):
                relu = step.out_fmt is not None and isinstance(nxt, _ReLUStep)
                runners.append(functools.partial(step.run, pool=pool, relu=relu))
                i += 1 + relu
            else:
                runners.append(step.run)
                i += 1
        self._schedules[(start, stop)] = runners
        return runners

    def _float_fold(self, i: int, stop: int):
        """``(relu, pool, j)``: the float ReLU and then max-pool that
        ``steps[i:stop]`` opens with, and the index after them."""
        steps = self._steps

        def floating(j, kind):
            return (
                j < stop and isinstance(steps[j], kind)
                and steps[j].dtype.kind == "f"
            )

        relu = floating(i, _ReLUStep)
        i += relu
        pool = None
        if floating(i, _MaxPoolStep):
            pool = (steps[i].field, steps[i].stride)
            i += 1
        return relu, pool, i

    def _float_chain(self, i: int, stop: int):
        """``(chain, next index)`` of the float chain that starts at
        ``steps[i]``, or None when no float conv follows its folds."""
        relu, pool, j = self._float_fold(i, stop)
        convs, links = [], []
        while j < stop and isinstance(self._steps[j], _ConvStep):
            convs.append(self._steps[j])
            links.append((relu, pool))
            relu, pool, j = self._float_fold(j + 1, stop)
        if not convs:
            return None
        return _FloatChain(convs, links, (relu, pool)), j

    def _measure_tolerance(self, samples, reference):
        """Run the calibration set through the compiled plan and size
        the :class:`QuantTolerance` contract from the measured error."""
        outs = np.stack(
            [self.run(samples[i : i + 1])[0] for i in range(samples.shape[0])]
        )
        err = float(np.max(np.abs(outs.astype(np.float64) - reference)))
        flat_q = outs.reshape(samples.shape[0], -1)
        flat_r = np.asarray(reference).reshape(samples.shape[0], -1)
        self.calibration_top1 = float(
            np.mean(flat_q.argmax(axis=1) == flat_r.argmax(axis=1))
        )
        self.tolerance = QuantTolerance(
            max_abs_error=max(_TOLERANCE_SAFETY * err, _TOLERANCE_FLOOR),
            top1_agreement=_TOP1_BOUND,
        )

    def _execute(self, x: np.ndarray, start: int, stop: int) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim == 0 or x.shape[0] == 0:
            raise ValueError("inference batch must contain at least one sample")
        batch = x.shape[0]
        if batch > self.max_batch:
            raise ValueError(
                f"batch {batch} exceeds plan capacity {self.max_batch}"
            )
        if start < len(self._steps):
            expected = tuple(self.network.layer_input_shapes[start])
            where = f"layer {self.network.layers[start].name!r}"
        else:
            expected = tuple(self.network.output_shape)
            where = "the network output"
        if tuple(x.shape[1:]) != expected:
            raise ValueError(
                f"expected input shape {expected} for {where}, "
                f"got {tuple(x.shape[1:])}"
            )
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)
        if start >= stop:
            return np.array(x, order="C")
        # The quantized plans' boundary exchanges float32; raws live only
        # between steps.  Entering mid-plan (run_suffix) re-quantizes into
        # the boundary format, leaving mid-plan dequantizes below.  The
        # round trip is lossless: raws fit float32's mantissa and the
        # scales are powers of two.
        fmts = self._boundary if self._quant is not None else None
        if fmts and start > 0 and fmts[start - 1] is not None:
            fmt = fmts[start - 1]
            x = _quantize_raws(x, fmt, _storage_for(fmt))
        runners = self._schedule(start, stop)
        for run in runners:
            x = run(x, batch)
        if fmts and fmts[stop - 1] is not None:
            out = np.empty(x.shape, np.float32)
            np.multiply(x, np.float32(1.0 / fmts[stop - 1].scale), out=out,
                        casting="unsafe")
            return out
        if isinstance(runners[-1], _FloatChain):
            return x  # a chain writes its result into a fresh array
        # Hand back an owned copy: every scratch buffer is reused on the
        # next call, and callers (executor, runtime) store results.  A
        # view (ascontiguousarray of contiguous scratch is a no-op) would
        # silently mutate previously returned frames.
        return np.array(x, order="C")

    # ------------------------------------------------------------------ #
    def reserve(self, capacity: int) -> "InferencePlan":
        """Grow batch capacity to at least ``capacity`` without recompiling.

        Only the leading-axis scratch buffers reallocate; conv geometry,
        weight snapshots, and fused-GEMM probe results are untouched, so a
        grown plan stays bit-identical at every occupancy it already
        served.  The serving runtime uses this to widen a lane when
        traffic exceeds the capacity the plan was first compiled for.
        No-op when the plan is already large enough.
        """
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if capacity > self.max_batch:
            self._resize(capacity)
        return self

    def shrink(self, capacity: int = 1) -> "InferencePlan":
        """Release scratch down to ``capacity`` (grows back on demand).

        The reverse of :meth:`reserve`, for long-lived deployments whose
        peak occupancy has passed; numerics are unaffected because batch
        semantics depend on occupancy, never on capacity.
        """
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if capacity < self.max_batch:
            self._resize(capacity)
        return self

    def _resize(self, capacity: int) -> None:
        for step in self._steps:
            step.resize(capacity)
        self.max_batch = capacity

    # ------------------------------------------------------------------ #
    def run(self, x: np.ndarray) -> np.ndarray:
        """Whole-network forward pass for a (B, ...) batch."""
        return self._execute(x, 0, len(self._steps))

    def run_prefix(self, x: np.ndarray, target: str) -> np.ndarray:
        """Input through ``target`` inclusive — the key-frame path."""
        return self._execute(x, 0, self.network.index_of(target) + 1)

    def run_suffix(self, activation: np.ndarray, target: str) -> np.ndarray:
        """Layers after ``target`` — the every-frame path."""
        return self._execute(
            activation, self.network.index_of(target) + 1, len(self._steps)
        )
