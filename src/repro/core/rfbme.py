"""Receptive Field Block Motion Estimation (RFBME) — paper §II-C1, §III-A.

RFBME is block matching at receptive-field granularity: it produces one
motion vector per *target-layer activation coordinate*, by matching that
coordinate's receptive field in the new frame against a search window in
the stored key frame.

The hardware trick (and the reason the paper's first-order model comes out
four orders of magnitude below the CNN prefix) is tile reuse: receptive
fields overlap heavily, so the image is cut into ``stride`` x ``stride``
tiles, tile-level absolute differences are computed once per (tile, search
offset) pair by the *diff tile producer*, and the *diff tile consumer*
assembles receptive-field differences from tile differences with rolling
add/subtract updates.

Four host implementations ("backends") are provided, all reporting the
same adder-operation counts for the hardware energy model:

* ``"batched"`` — fully vectorized NumPy: the producer walks the search
  offsets with strided tile views and a preallocated scratch block, the
  consumer uses integral images over the tile axes with no per-field
  Python loop.  Handles stacks of frame pairs in one call
  (:meth:`RFBMEEngine.estimate_batch`, which the runtime layer calls
  once per step to run many clips in lockstep).
* ``"kernel"`` — one compiled call per batch
  (:mod:`repro.core.sad_kernel` ``rfbme_batch``) that releases the GIL,
  checks every pixel finite, reads both frames of every pair in place and
  runs the producer (subtract/abs/reduce fused into one pass) into one
  pair-sized block and the consumer over it at once.  Bit-identical to
  ``"batched"`` (enforced by a load-time self-check) and used
  automatically when available.
* ``"loop"`` — the reference implementation: one Python iteration per
  search offset in the producer and per receptive field in the consumer.
  The vectorized backends are regression-tested to match it *bit for
  bit* — same match errors, fields, and op counts.
* ``"faithful"`` (``faithful=True``) — the hardware producer/consumer
  pipeline that walks tiles and receptive fields exactly as Fig. 8
  describes — including the past-sum memory, the rolling column updates,
  and the min-check register — with exact rather than analytic op counts.

All tile sums share one canonical summation order (sequential per tile
column, then numpy's pairwise combine of the column sums) so that backend
choice never changes a single output bit.  Every result carries its two
key-frame signals, the total match error and the total motion magnitude,
reduced once per batch, so the policies and frame records read them
instead of reducing again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..motion.vector_field import VectorField
from .receptive_field import ReceptiveField
from .sad_kernel import KernelFallbackWarning, addr, get_kernel, producer_bounds

__all__ = [
    "RFBMEConfig",
    "OpCounts",
    "RFBMEResult",
    "RFBMEEngine",
    "estimate_motion",
    "default_backend",
]

#: Non-faithful backend names, in preference order.
BACKENDS = ("kernel", "batched", "loop")


@dataclass(frozen=True)
class RFBMEConfig:
    """Search parameters for RFBME (paper §III-A1).

    ``search_radius`` must be a multiple of ``search_stride`` so the zero
    offset is always a candidate — it is the fallback that guarantees every
    receptive field has at least one valid (fully in-bounds) match.
    """

    search_radius: int = 12
    search_stride: int = 2

    def __post_init__(self):
        if self.search_radius < 0 or self.search_stride < 1:
            raise ValueError(f"invalid RFBME config {self}")
        if self.search_radius % self.search_stride != 0:
            raise ValueError(
                "search_radius must be a multiple of search_stride so the "
                f"zero offset is searched; got {self}"
            )

    def offsets(self) -> np.ndarray:
        """1D array of per-axis search offsets (includes 0)."""
        return np.arange(-self.search_radius, self.search_radius + 1, self.search_stride)


@dataclass(frozen=True)
class OpCounts:
    """Adder operations spent by one RFBME invocation."""

    producer_adds: int
    consumer_adds: int

    @property
    def total(self) -> int:
        return self.producer_adds + self.consumer_adds


@dataclass
class RFBMEResult:
    """Output of one motion estimation between a key frame and a new frame."""

    #: backward vectors, one per target-activation coordinate, pixel units.
    field: VectorField
    #: per-receptive-field minimum match error (mean abs diff per pixel).
    match_errors: np.ndarray
    #: adder-op accounting for the hardware model.
    ops: OpCounts
    #: aggregate block-match error, ``float(match_errors.sum())`` — the
    #: key-frame-choice signal.  Engines reduce it once per batch; left
    #: out, it is reduced here.
    total_match_error: Optional[float] = None
    #: total motion magnitude, ``field.total_magnitude()``, likewise.
    total_motion_magnitude: Optional[float] = None

    def __post_init__(self):
        if self.total_match_error is None:
            self.total_match_error = float(self.match_errors.sum())
        if self.total_motion_magnitude is None:
            self.total_motion_magnitude = self.field.total_magnitude()


def default_backend() -> str:
    """The fastest backend available on this host."""
    return "kernel" if get_kernel() is not None else "batched"


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #
def _tile_sums(blocks: np.ndarray) -> np.ndarray:
    """Canonical tile reduction: blocks (..., tile, tile) -> (...).

    Sequential accumulation down each tile column, then numpy's pairwise
    combine of the column sums.  Every backend — including the C kernel —
    reproduces exactly this order, which is what makes backends
    bit-interchangeable.
    """
    return blocks.sum(axis=-2).sum(axis=-1)


def _valid_tiles(
    height: int, width: int, tile: int, offsets: np.ndarray
) -> np.ndarray:
    """(n_off, n_off, n_ty, n_tx) mask: tile fully inside the overlap of
    the shifted key frame, i.e. the comparison never reads out of bounds
    (out-of-bounds candidates are skipped, §III-A1)."""
    n_ty, n_tx = height // tile, width // tile

    def axis_ok(extent: int, count: int) -> np.ndarray:
        lo = np.maximum(0, -offsets)
        hi = np.minimum(extent, extent - offsets)
        first = -(-lo // tile)
        last = hi // tile
        index = np.arange(count)
        return (index[None, :] >= first[:, None]) & (index[None, :] < last[:, None])

    row_ok = axis_ok(height, n_ty)
    col_ok = axis_ok(width, n_tx)
    return row_ok[:, None, :, None] & col_ok[None, :, None, :]


# --------------------------------------------------------------------- #
# Producer backends
# --------------------------------------------------------------------- #
def _tile_diffs_loop(
    key: np.ndarray,
    new: np.ndarray,
    tile: int,
    offsets: np.ndarray,
) -> np.ndarray:
    """Reference producer: one Python iteration per search offset.

    Returns (n_ty, n_tx, n_off, n_off) with NaN marking (tile, offset)
    pairs whose shifted window leaves the key frame.
    """
    height, width = new.shape
    n_ty, n_tx = height // tile, width // tile
    n_off = len(offsets)
    diffs = np.full((n_ty, n_tx, n_off, n_off), np.nan)

    for oi, dy in enumerate(offsets):
        y0 = max(0, -dy)
        y1 = min(height, height - dy)
        if y1 - y0 < tile:
            continue
        for oj, dx in enumerate(offsets):
            x0 = max(0, -dx)
            x1 = min(width, width - dx)
            if x1 - x0 < tile:
                continue
            absdiff = np.abs(
                new[y0:y1, x0:x1] - key[y0 + dy : y1 + dy, x0 + dx : x1 + dx]
            )
            # Tile-aligned valid region: tiles fully inside the overlap.
            ty0 = -(-y0 // tile)
            tx0 = -(-x0 // tile)
            ty1 = y1 // tile
            tx1 = x1 // tile
            if ty1 <= ty0 or tx1 <= tx0:
                continue
            region = absdiff[
                ty0 * tile - y0 : ty1 * tile - y0, tx0 * tile - x0 : tx1 * tile - x0
            ]
            blocks = np.ascontiguousarray(
                region.reshape(ty1 - ty0, tile, tx1 - tx0, tile).transpose(0, 2, 1, 3)
            )
            diffs[ty0:ty1, tx0:tx1, oi, oj] = _tile_sums(blocks)
    return diffs


class _ProducerWorkspace:
    """Preallocated buffers for the NumPy 'batched' producer.

    Reused across frames by :class:`RFBMEEngine` so the hot path never
    touches the allocator; one workspace serves one (frame shape, config)
    pair.  ``pad`` holds the zero-padded key frame; ``scratch`` one
    dy-row of absolute differences, sized to stay cache-resident rather
    than streaming a full offset cube.
    """

    def __init__(self, shape: Tuple[int, int], tile: int, offsets: np.ndarray):
        height, width = shape
        self.shape = shape
        self.tile = tile
        self.offsets = offsets
        self.radius = int(offsets[-1]) if len(offsets) else 0
        self.n_ty, self.n_tx = height // tile, width // tile
        self.pad = np.zeros((height + 2 * self.radius, width + 2 * self.radius))
        self.scratch = np.empty(
            (len(offsets), self.n_ty * tile, self.n_tx * tile)
        )

    def load_key(self, key: np.ndarray) -> None:
        radius = self.radius
        if radius:
            self.pad[radius:-radius, radius:-radius] = key
        else:
            self.pad[:, :] = key


def _tile_diffs_batched_grid(
    ws: _ProducerWorkspace, new: np.ndarray, out: np.ndarray
) -> None:
    """Vectorized producer: strided shift views + scratch-row reduction.

    For each vertical offset ``dy`` a single strided view exposes the key
    frame under every horizontal offset at once; one subtract/abs pass
    into a cache-resident scratch block and a two-step reduction (rows
    within a tile, then the canonical pairwise combine across tile
    columns) produce that whole dy-row of tile differences.  Fills
    ``out`` (n_ty, n_tx, n_off, n_off) — the consumer workspace's native
    layout; out-of-bounds entries hold padding junk and are masked by
    the engine's precomputed validity.
    """
    tile, offsets, radius = ws.tile, ws.offsets, ws.radius
    n_off = len(offsets)
    crop_h, crop_w = ws.n_ty * tile, ws.n_tx * tile
    pad = ws.pad
    s0, s1 = pad.strides
    crop = new[:crop_h, :crop_w]
    step = int(offsets[1] - offsets[0]) if n_off > 1 else 1
    for oi, dy in enumerate(offsets):
        # key_rows[oj, y, x] = pad[radius+dy+y, radius+offsets[oj]+x]
        key_rows = as_strided(
            pad[radius + dy :, :],
            shape=(n_off, crop_h, crop_w),
            strides=(step * s1, s0, s1),
        )
        np.subtract(crop[None], key_rows, out=ws.scratch)
        np.abs(ws.scratch, out=ws.scratch)
        blocks = ws.scratch.reshape(n_off, ws.n_ty, tile, ws.n_tx, tile)
        # sum rows within each tile (sequential), then the canonical
        # pairwise combine across the tile's column sums — the same
        # association as _tile_sums — stored as out[ty, tx, oi, oj].
        out[:, :, oi, :] = blocks.sum(axis=2).sum(axis=-1).transpose(1, 2, 0)


class _ConsumerWorkspace:
    """Preallocated buffers for the fast paths.

    One workspace serves one engine; ``ensure_kernel`` and
    ``ensure_numpy`` grow it to the largest lockstep batch seen, so
    repeated :meth:`RFBMEEngine.estimate_batch` calls never touch the
    allocator, and each path allocates only what it touches.

    The compiled entry point takes raw buffer addresses (``*_addr``),
    bound here on every (re)allocation: a stale address would not raise,
    it would silently write freed memory.
    """

    def __init__(self):
        self._kernel_ready = 0
        self._numpy_ready = 0

    def ensure_kernel(
        self,
        batch: int,
        dims: Tuple[int, int, int],
        grid_shape: Tuple[int, int],
        geometry_ptrs: Tuple[int, ...],
    ) -> None:
        """The compiled path's buffers: one pair's SAD block and the
        consumer's integral-image plane, reused pair after pair; the
        batch's fields and errors (each call hands out copies of its
        rows); the frame address array; and the pointer table
        ``rfbme_batch`` reads the geometry and all of these through."""
        if batch <= self._kernel_ready:
            return
        n_ty, n_tx, n_off = dims
        if not self._kernel_ready:
            # Entries outside a tile's offset window are never written;
            # the consumer masks them, and zeros keep them defined.
            self.sad = np.zeros(n_ty * n_tx * n_off * n_off)
            self.ci = np.empty((n_ty + 1) * (n_tx + 1) * n_off * n_off)
        self._kernel_ready = batch
        out_h, out_w = grid_shape
        self.fields = np.empty((batch, out_h, out_w, 2))
        self.errors = np.empty((batch, out_h, out_w))
        self.frames = np.empty(2 * batch, dtype=np.uintp)
        self.frames_addr = addr(self.frames)
        buffers = (self.sad, self.ci, self.fields, self.errors)
        self.table = np.array(
            [*geometry_ptrs, *map(addr, buffers)], dtype=np.uintp
        )
        self.table_addr = addr(self.table)

    def ensure_numpy(
        self, batch: int, dims: Tuple[int, int, int], n_fields: int
    ) -> None:
        """Buffers only the NumPy 'batched' path needs: the producer's
        output for the whole batch (grid-major, so the consumer reads it
        without a transpose, and zeroed at invalid entries in place), the
        integral images and the costs."""
        if batch <= self._numpy_ready:
            return
        self._numpy_ready = batch
        n_ty, n_tx, n_off = dims
        self.sums = np.zeros((batch, n_ty, n_tx, n_off, n_off))
        self.cost_int = np.zeros((batch, n_ty + 1, n_tx + 1, n_off, n_off))
        self.costs = np.empty((batch, n_fields, n_off * n_off))
        # Non-candidate entries must read +inf in the argmin; they are
        # written once here and never touched again (the candidate set is
        # pure geometry).
        self.masked = np.full((batch, n_fields, n_off * n_off), np.inf)


def _producer_op_count(diffs: np.ndarray, tile: int) -> int:
    """Adds spent by the producer: one |a-b| + accumulate per pixel of every
    valid (tile, offset) comparison."""
    valid_pairs = int((~np.isnan(diffs)).sum())
    return valid_pairs * tile * tile


# --------------------------------------------------------------------- #
# Consumer backends
# --------------------------------------------------------------------- #
def _field_ranges(
    rf: ReceptiveField, grid_shape: Tuple[int, int], n_ty: int, n_tx: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-output-coordinate half-open tile ranges, (out_h, 2) and (out_w, 2)."""
    out_h, out_w = grid_shape
    rows = np.array([rf.full_tiles(i, n_ty) for i in range(out_h)]).reshape(out_h, 2)
    cols = np.array([rf.full_tiles(j, n_tx) for j in range(out_w)]).reshape(out_w, 2)
    return rows, cols


def _consumer_loop(
    diffs: np.ndarray,
    rf: ReceptiveField,
    grid_shape: Tuple[int, int],
    offsets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference consumer: integral images over tile axes, one Python
    iteration per receptive field.

    Returns (field (H, W, 2), match_errors (H, W)). An offset is a valid
    candidate for a receptive field only when every constituent tile is
    valid there; the zero offset always qualifies.
    """
    n_ty, n_tx = diffs.shape[:2]
    out_h, out_w = grid_shape
    tile = rf.stride

    valid = ~np.isnan(diffs)
    filled = np.where(valid, diffs, 0.0)
    # Integral images along the two tile axes, per offset.
    cost_int = np.zeros((n_ty + 1, n_tx + 1) + diffs.shape[2:])
    cost_int[1:, 1:] = filled.cumsum(axis=0).cumsum(axis=1)
    count_int = np.zeros_like(cost_int)
    count_int[1:, 1:] = valid.astype(np.float64).cumsum(axis=0).cumsum(axis=1)

    field = np.zeros((out_h, out_w, 2))
    errors = np.zeros((out_h, out_w))
    n_off = len(offsets)

    row_ranges, col_ranges = _field_ranges(rf, grid_shape, n_ty, n_tx)

    for i in range(out_h):
        ty0, ty1 = row_ranges[i]
        if ty1 <= ty0:
            continue
        for j in range(out_w):
            tx0, tx1 = col_ranges[j]
            if tx1 <= tx0:
                continue
            def box(integral, ty0=ty0, ty1=ty1, tx0=tx0, tx1=tx1):
                return (
                    integral[ty1, tx1]
                    - integral[ty0, tx1]
                    - integral[ty1, tx0]
                    + integral[ty0, tx0]
                )
            costs = box(cost_int)
            counts = box(count_int)
            n_tiles = (ty1 - ty0) * (tx1 - tx0)
            candidate = counts == n_tiles
            if not candidate.any():  # pragma: no cover - zero offset always valid
                continue
            costs = np.where(candidate, costs, np.inf)
            flat = int(np.argmin(costs))
            oi, oj = flat // n_off, flat % n_off
            field[i, j] = (offsets[oi], offsets[oj])
            errors[i, j] = costs[oi, oj] / (n_tiles * tile * tile)
    return field, errors


def _consumer_incremental(
    diffs: np.ndarray,
    rf: ReceptiveField,
    grid_shape: Tuple[int, int],
    offsets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Hardware-faithful consumer: rolling column updates + min-check.

    Walks receptive fields left to right within each row, maintaining the
    previous block sum and updating it by adding the entering tile column
    and subtracting the leaving one (Fig. 8) whenever both fields span the
    same tile rows and have equal width. Returns the field, errors, and the
    exact number of adder operations spent.
    """
    n_ty, n_tx = diffs.shape[:2]
    out_h, out_w = grid_shape
    tile = rf.stride
    n_off = len(offsets)
    field = np.zeros((out_h, out_w, 2))
    errors = np.zeros((out_h, out_w))
    adds = 0

    valid = ~np.isnan(diffs)
    filled = np.where(valid, diffs, 0.0)

    for i in range(out_h):
        ty0, ty1 = rf.full_tiles(i, n_ty)
        if ty1 <= ty0:
            continue
        prev_sum: Optional[np.ndarray] = None
        prev_count: Optional[np.ndarray] = None
        prev_range: Optional[Tuple[int, int]] = None
        for j in range(out_w):
            tx0, tx1 = rf.full_tiles(j, n_tx)
            if tx1 <= tx0:
                prev_range = None
                continue
            reusable = (
                prev_range is not None
                and prev_range[1] - prev_range[0] == tx1 - tx0
                and prev_range != (tx0, tx1)
            )
            if reusable:
                # Rolling update: add entering columns, subtract leaving.
                old_x0, old_x1 = prev_range
                entering = slice(old_x1, tx1)
                leaving = slice(old_x0, tx0)
                add_cost = filled[ty0:ty1, entering].sum(axis=(0, 1))
                add_count = valid[ty0:ty1, entering].sum(axis=(0, 1))
                sub_cost = filled[ty0:ty1, leaving].sum(axis=(0, 1))
                sub_count = valid[ty0:ty1, leaving].sum(axis=(0, 1))
                cost = prev_sum + add_cost - sub_cost
                count = prev_count + add_count - sub_count
                cols = (tx1 - old_x1) + (tx0 - old_x0)
                adds += n_off * n_off * (cols * (ty1 - ty0) + 2)
            elif prev_range == (tx0, tx1) and prev_sum is not None:
                cost, count = prev_sum, prev_count  # identical field: free
            else:
                cost = filled[ty0:ty1, tx0:tx1].sum(axis=(0, 1))
                count = valid[ty0:ty1, tx0:tx1].sum(axis=(0, 1))
                adds += n_off * n_off * (ty1 - ty0) * (tx1 - tx0)
            prev_sum, prev_count, prev_range = cost, count, (tx0, tx1)

            n_tiles = (ty1 - ty0) * (tx1 - tx0)
            candidate = count == n_tiles
            masked = np.where(candidate, cost, np.inf)
            flat = int(np.argmin(masked))
            oi, oj = flat // n_off, flat % n_off
            field[i, j] = (offsets[oi], offsets[oj])
            errors[i, j] = masked[oi, oj] / (n_tiles * tile * tile)
    return field, errors, adds


def _consumer_op_estimate(
    rf: ReceptiveField, grid_shape: Tuple[int, int], n_offsets_sq: int
) -> int:
    """Analytic consumer adds for the non-faithful paths (matches the
    paper's second term plus rolling updates): ~ (R/S)^2 per field per
    offset for the first field of a row, 2*(R/S) afterwards."""
    out_h, out_w = grid_shape
    tiles = rf.tiles_per_field()
    if out_w == 0 or out_h == 0:
        return 0
    per_row = tiles * tiles + max(out_w - 1, 0) * (2 * tiles + 2)
    return n_offsets_sq * out_h * per_row


# --------------------------------------------------------------------- #
# Engine and public entry points
# --------------------------------------------------------------------- #
_FLOAT64 = np.dtype(np.float64)


def _non_finite(index: int, which: str) -> ValueError:
    return ValueError(
        f"pair {index}: {which} frame has non-finite pixels (NaN or inf)"
    )


def _validate_pair(
    key_frame: np.ndarray, new_frame: np.ndarray, tile: int, index: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate pair ``index`` of a batch and coerce it to float64.

    All backends compute in float64 (the compiled kernel reinterprets raw
    buffers, and bit-identity across backends is only defined for one
    dtype), so other dtypes are converted up front — a no-op for the
    video substrate's native float64 frames.  Non-finite pixels are
    rejected: the integral-image backends would turn one NaN into NaN
    match errors for the whole frame (which no key-frame threshold ever
    exceeds), where ``loop`` stays local, so no backend accepts them.
    """
    key_frame = np.asarray(key_frame)
    new_frame = np.asarray(new_frame)
    if key_frame.shape != new_frame.shape:
        raise ValueError(
            f"frame shape mismatch {key_frame.shape} vs {new_frame.shape}"
        )
    if key_frame.ndim != 2:
        raise ValueError(f"frames must be 2D grayscale, got {key_frame.shape}")
    if min(key_frame.shape) < tile:
        raise ValueError(
            f"frame {key_frame.shape} smaller than one tile ({tile})"
        )
    for which, frame in (("key", key_frame), ("new", new_frame)):
        if not np.isfinite(frame).all():
            raise _non_finite(index, which)
    if key_frame.dtype != np.float64:
        key_frame = key_frame.astype(np.float64)
    if new_frame.dtype != np.float64:
        new_frame = new_frame.astype(np.float64)
    return key_frame, new_frame


class RFBMEEngine:
    """Reusable RFBME evaluator bound to one (frame shape, target, config).

    Owns the preallocated producer workspace and every geometry-derived
    constant of the consumer — validity masks, candidate sets, field tile
    ranges, error denominators, op counts — none of which depend on frame
    content.  Repeated calls, the per-frame hot path of
    :class:`~repro.core.pipeline.EVA2Pipeline` and the lockstep batches of
    :class:`~repro.runtime.BatchedPipeline`, therefore spend their time on
    actual pixel math.  All backends produce bit-identical results;
    ``backend`` mainly exists for benchmarking and regression tests.
    """

    def __init__(
        self,
        frame_shape: Tuple[int, int],
        rf: ReceptiveField,
        grid_shape: Tuple[int, int],
        config: Optional[RFBMEConfig] = None,
        backend: Optional[str] = None,
    ):
        self.config = config or RFBMEConfig()
        self.rf = rf
        self.grid_shape = grid_shape
        self.frame_shape = tuple(frame_shape)
        requested = backend
        if backend is None:
            backend = default_backend()
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if backend == "kernel":
            kernel = get_kernel()
            if kernel is None or not kernel.supports(rf.stride):
                backend = "batched"
                if requested == "kernel":
                    # Results are bit-identical either way, but anyone
                    # explicitly benchmarking "kernel" should know they
                    # are measuring the NumPy path.
                    warnings.warn(
                        "compiled SAD kernel unavailable for this "
                        "configuration; falling back to the 'batched' "
                        "backend (results are identical)",
                        KernelFallbackWarning,
                        stacklevel=2,
                    )
        self.backend = backend
        self._offsets = self.config.offsets()
        height, width = frame_shape
        tile = rf.stride
        self._n_ty, self._n_tx = height // tile, width // tile
        self._workspace = (
            _ProducerWorkspace(frame_shape, tile, self._offsets)
            if backend == "batched"
            else None
        )
        #: the shape the compiled path reads frames of in place; None
        #: when a frame of the bound shape holds no whole tile, which
        #: only the coercing checks can reject.
        self._in_place_shape = (
            self.frame_shape if min(self.frame_shape) >= tile else None
        )
        self._consumer_ops = _consumer_op_estimate(
            rf, grid_shape, len(self._offsets) ** 2
        )
        self._cws = _ConsumerWorkspace()
        if self.backend != "loop":
            # The loop path derives validity from its NaN-marked diffs and
            # never touches the precomputed consumer geometry.
            self._precompute_geometry(height, width, tile)

    def _precompute_geometry(self, height: int, width: int, tile: int) -> None:
        """Constants of the consumer that depend only on geometry.

        Mirrors exactly the per-frame arithmetic of :func:`_consumer_loop`
        over the validity mask (the count integral image, candidate test,
        and per-field tile counts), so the fast path can skip recomputing
        them for every frame without changing a bit of output.
        """
        offsets = self._offsets
        n_ty, n_tx, n_off = self._n_ty, self._n_tx, len(offsets)
        out_h, out_w = self.grid_shape
        valid = _valid_tiles(height, width, tile, offsets)
        # (n_ty, n_tx, n_off, n_off), the consumer's native layout.
        self._valid = np.moveaxis(valid, (0, 1), (2, 3)).copy()
        #: the op counts every result of this engine shares.
        self._ops = OpCounts(
            producer_adds=int(valid.sum()) * tile * tile,
            consumer_adds=self._consumer_ops,
        )

        count_int = np.zeros((n_ty + 1, n_tx + 1, n_off, n_off))
        count_int[1:, 1:] = (
            self._valid.astype(np.float64).cumsum(axis=0).cumsum(axis=1)
        )
        rows, cols = _field_ranges(self.rf, self.grid_shape, n_ty, n_tx)
        ty0, ty1 = rows[:, 0], rows[:, 1]
        tx0, tx1 = cols[:, 0], cols[:, 1]
        counts = (
            count_int[ty1[:, None], tx1[None, :]]
            - count_int[ty0[:, None], tx1[None, :]]
            - count_int[ty1[:, None], tx0[None, :]]
            + count_int[ty0[:, None], tx0[None, :]]
        )
        n_tiles = (ty1 - ty0)[:, None] * (tx1 - tx0)[None, :]  # (out_h, out_w)
        #: offsets fully in-bounds for each receptive field.
        self._candidate = counts == n_tiles[:, :, None, None]
        cell_ok = (ty1 > ty0)[:, None] & (tx1 > tx0)[None, :]
        #: fields with a nonempty tile range and at least one candidate.
        self._ok = cell_ok & self._candidate.reshape(out_h, out_w, -1).any(axis=2)
        denom = (n_tiles * tile * tile).astype(np.float64)
        self._denom = np.where(self._ok, denom, 1.0)

        # Fast-consumer constants: flat positions of the invalid producer
        # entries (zeroed in place each call) and the four integral-image
        # corners of every receptive field as flat gather indices into
        # cost_int's (n_ty+1)*(n_tx+1) tile plane.
        self._invalid_flat = np.flatnonzero(~self._valid)
        def corner(ty, tx):
            return (ty[:, None] * (n_tx + 1) + tx[None, :]).ravel()

        self._idx_corners = np.concatenate(
            [corner(ty1, tx1), corner(ty0, tx1), corner(ty1, tx0), corner(ty0, tx0)]
        )
        self._cand_flat = np.ascontiguousarray(
            self._candidate.reshape(out_h * out_w, n_off * n_off)
        )
        # Compiled-path constants (uint8 masks, int64 ranges) and the
        # producer's valid offset windows.
        self._valid_u8 = np.ascontiguousarray(self._valid, dtype=np.uint8)
        self._cand_u8 = np.ascontiguousarray(self._cand_flat, dtype=np.uint8)
        self._ok_u8 = np.ascontiguousarray(self._ok.reshape(-1), dtype=np.uint8)
        self._denom_flat = np.ascontiguousarray(self._denom.reshape(-1))
        def as_i64(a):
            return np.ascontiguousarray(a, dtype=np.int64)

        self._row_ranges = (as_i64(ty0), as_i64(ty1))
        self._col_ranges = (as_i64(tx0), as_i64(tx1))
        self._prod_bounds = producer_bounds(
            (height, width), tile, self._offsets
        )
        self._offsets_i64 = as_i64(offsets)
        self._geometry = as_i64(
            [height, width, n_ty, n_tx, tile, n_off, out_h, out_w]
        )
        if self.backend == "kernel":
            self._bind_geometry()

    def _bind_geometry(self) -> None:
        """``rfbme_batch``'s geometry addresses (see its C comment),
        bound once: the arrays they point into live as long as the engine
        and never reallocate."""
        self._geometry_addr = addr(self._geometry)
        self._geometry_ptrs = tuple(
            addr(array)
            for array in (
                self._offsets_i64, *self._prod_bounds, self._valid_u8,
                *self._row_ranges, *self._col_ranges, self._cand_u8,
                self._ok_u8, self._denom_flat,
            )
        )

    def __getstate__(self):
        """Pickle (and copy) without kernel addresses: they point into
        this engine's buffers.  The copy starts an empty consumer
        workspace and binds its own geometry in ``__setstate__``."""
        state = self.__dict__.copy()
        state["_cws"] = _ConsumerWorkspace()
        state.pop("_geometry_addr", None)
        state.pop("_geometry_ptrs", None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if self.backend == "kernel":
            self._bind_geometry()

    # ------------------------------------------------------------------ #
    def _consumer_fast(self, batch: int) -> Tuple[np.ndarray, np.ndarray]:
        """Workspace consumer over the producer outputs in ``_cws.sums``.

        Performs the same integral-image box sums, candidate masking, and
        argmin as :func:`_consumer_loop` — bit-identical results — but
        against preallocated buffers: invalid entries are zeroed in place,
        the integral images accumulate into a persistent block, box sums
        gather through precomputed flat corner indices, and non-candidate
        costs stay +inf from allocation time.  Returns fields
        (B, out_h, out_w, 2) and errors (B, out_h, out_w).
        """
        ws = self._cws
        n_ty, n_tx = self._n_ty, self._n_tx
        out_h, out_w = self.grid_shape
        n_off = len(self._offsets)

        filled = ws.sums[:batch]
        filled.reshape(batch, -1)[:, self._invalid_flat] = 0.0
        ci = ws.cost_int[:batch]
        interior = ci[:, 1:, 1:]
        # Integral images as explicit slice adds: the same left-to-right
        # accumulation np.cumsum performs (bit-identical), but each pass
        # is one large vectorised add instead of cumsum's generic
        # strided inner loop.
        np.copyto(interior, filled)
        for ty in range(1, n_ty):
            np.add(interior[:, ty], interior[:, ty - 1], out=interior[:, ty])
        for tx in range(1, n_tx):
            np.add(
                interior[:, :, tx], interior[:, :, tx - 1],
                out=interior[:, :, tx],
            )

        flat_ci = ci.reshape(batch, (n_ty + 1) * (n_tx + 1), n_off * n_off)
        costs = ws.costs[:batch]
        # One fused gather of all four box corners, then
        # ((A - B) - C) + D — the loop consumer's box-sum order.
        g = flat_ci[:, self._idx_corners].reshape(
            batch, 4, -1, n_off * n_off
        )
        np.subtract(g[:, 0], g[:, 1], out=costs)
        np.subtract(costs, g[:, 2], out=costs)
        np.add(costs, g[:, 3], out=costs)

        masked = ws.masked[:batch]
        np.copyto(masked, costs, where=self._cand_flat[None])
        best = masked.argmin(axis=2)
        chosen = np.take_along_axis(masked, best[:, :, None], axis=2)[..., 0]
        oi, oj = best // n_off, best % n_off

        ok = self._ok.reshape(-1)
        fields = np.empty((batch, out_h, out_w, 2))
        fields[..., 0] = np.where(ok, self._offsets[oi], 0.0).reshape(
            batch, out_h, out_w
        )
        fields[..., 1] = np.where(ok, self._offsets[oj], 0.0).reshape(
            batch, out_h, out_w
        )
        errors = np.where(ok, chosen / self._denom.reshape(-1), 0.0).reshape(
            batch, out_h, out_w
        )
        return fields, errors

    def _package(
        self, fields: np.ndarray, errors: np.ndarray
    ) -> List[RFBMEResult]:
        """One result per row of a batch's stacked fields (B, out_h,
        out_w, 2) and errors (B, out_h, out_w), which the results own.

        Both summaries are reduced once for the whole batch: each row's
        sum runs over that row alone in numpy's pairwise order, so it
        equals the per-result reduction bit for bit.
        """
        batch = len(errors)
        match = errors.reshape(batch, -1).sum(axis=1).tolist()
        motion = (
            np.hypot(fields[..., 0], fields[..., 1])
            .reshape(batch, -1).sum(axis=1).tolist()
        )
        ops = self._ops
        return [
            RFBMEResult(VectorField(fields[i]), errors[i], ops, match[i], motion[i])
            for i in range(batch)
        ]

    def estimate(self, key: np.ndarray, new: np.ndarray) -> RFBMEResult:
        """RFBME between one key frame and one new frame."""
        return self.estimate_batch([(key, new)])[0]

    def estimate_batch(
        self, pairs: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> List[RFBMEResult]:
        """RFBME for many (key, new) pairs in lockstep.

        Bit-identical to calling :meth:`estimate` per pair.  The kernel
        backend runs the whole batch in one compiled call; the batched
        producer reuses one scratch workspace across items and its
        consumer handles the whole stack in a single vectorized pass.
        """
        if not pairs:
            return []
        if self.backend == "kernel":
            return self._estimate_compiled(get_kernel(), pairs)
        pairs = self._validated(pairs)
        if self.backend == "loop":
            results = []
            for key, new in pairs:
                diffs = _tile_diffs_loop(key, new, self.rf.stride, self._offsets)
                field, errors = _consumer_loop(
                    diffs, self.rf, self.grid_shape, self._offsets
                )
                results.append(
                    RFBMEResult(
                        field=VectorField(field),
                        match_errors=errors,
                        ops=OpCounts(
                            producer_adds=_producer_op_count(
                                diffs, self.rf.stride
                            ),
                            consumer_adds=self._consumer_ops,
                        ),
                    )
                )
            return results
        batch = len(pairs)
        ws = self._cws
        out_h, out_w = self.grid_shape
        ws.ensure_numpy(
            batch, (self._n_ty, self._n_tx, len(self._offsets)), out_h * out_w
        )
        for i, (key, new) in enumerate(pairs):
            self._workspace.load_key(key)
            _tile_diffs_batched_grid(self._workspace, new, ws.sums[i])
        return self._package(*self._consumer_fast(batch))

    def _validated(
        self, pairs: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Every pair checked and coerced by :func:`_validate_pair`, in
        order, then held to the engine's bound frame shape."""
        pairs = [
            _validate_pair(key, new, self.rf.stride, i)
            for i, (key, new) in enumerate(pairs)
        ]
        for key, _ in pairs:
            # Workspace buffers and precomputed geometry are bound to one
            # frame shape; reject others identically on every backend.
            if key.shape != self.frame_shape:
                raise ValueError(
                    f"engine is bound to frames of shape {self.frame_shape}, "
                    f"got {key.shape}"
                )
        return pairs

    def _estimate_compiled(
        self, kernel, pairs: Sequence[Tuple[np.ndarray, np.ndarray]]
    ) -> List[RFBMEResult]:
        """The kernel backend: one ``rfbme_batch`` call per batch, which
        releases the GIL once, checks every pixel finite and reads both
        frames of every pair in place.

        Frames already float64, C-contiguous and of the bound shape go
        straight in by address; a batch holding any other frame takes
        :meth:`_validated`'s coercing path first, which raises exactly
        what the other backends raise.
        """
        batch = len(pairs)
        ws = self._cws
        ws.ensure_kernel(
            batch,
            (self._n_ty, self._n_tx, len(self._offsets)),
            self.grid_shape,
            self._geometry_ptrs,
        )
        frames = [frame for pair in pairs for frame in pair]
        shape = self._in_place_shape
        if not all(
            isinstance(frame, np.ndarray)
            and frame.dtype is _FLOAT64
            and frame.flags.c_contiguous
            and frame.shape == shape
            for frame in frames
        ):
            frames = [
                np.ascontiguousarray(frame)
                for pair in self._validated(pairs)
                for frame in pair
            ]
        ws.frames[: 2 * batch] = [frame.ctypes.data for frame in frames]
        bad = kernel.rfbme_batch(
            batch, ws.frames_addr, self._geometry_addr, ws.table_addr
        )
        if bad >= 0:
            raise _non_finite(bad // 2, ("key", "new")[bad % 2])
        return self._package(
            ws.fields[:batch].copy(), ws.errors[:batch].copy()
        )


def estimate_motion(
    key_frame: np.ndarray,
    new_frame: np.ndarray,
    rf: ReceptiveField,
    grid_shape: Tuple[int, int],
    config: Optional[RFBMEConfig] = None,
    faithful: bool = False,
    backend: Optional[str] = None,
) -> RFBMEResult:
    """Run RFBME between ``key_frame`` and ``new_frame``.

    ``rf`` is the target layer's receptive field; ``grid_shape`` is the
    spatial shape of the target activation (one output vector per
    coordinate). With ``faithful=True`` the incremental producer/consumer
    pipeline is used and op counts are exact rather than analytic.
    ``backend`` picks one of :data:`BACKENDS` (default: fastest available);
    all backends return bit-identical results.
    """
    if config is None:
        config = RFBMEConfig()
    if faithful:
        if backend is not None:
            raise ValueError(
                "faithful=True runs the hardware pipeline; it cannot be "
                f"combined with backend={backend!r}"
            )
        key_frame, new_frame = _validate_pair(key_frame, new_frame, rf.stride)
        offsets = config.offsets()
        diffs = _tile_diffs_loop(key_frame, new_frame, rf.stride, offsets)
        field, errors, consumer_adds = _consumer_incremental(
            diffs, rf, grid_shape, offsets
        )
        return RFBMEResult(
            field=VectorField(field),
            match_errors=errors,
            ops=OpCounts(
                producer_adds=_producer_op_count(diffs, rf.stride),
                consumer_adds=consumer_adds,
            ),
        )
    key_frame, new_frame = _validate_pair(key_frame, new_frame, rf.stride)
    engine = RFBMEEngine(key_frame.shape, rf, grid_shape, config, backend)
    return engine.estimate(key_frame, new_frame)

