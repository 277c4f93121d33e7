"""Optional compiled tile-SAD kernel for the RFBME producer — paper §III-A1.

The RFBME producer's inner loop (one absolute tile difference per
(tile, search offset) pair, Fig. 8 "diff tile producer") is pure
element-wise arithmetic and dominates host runtime.  NumPy needs three
memory passes (subtract, abs, reduce); the C kernels here fuse them into
one.  This module compiles the kernels with the system C compiler on first
use and loads them through :mod:`ctypes`.

The entry points share one shared object:

* ``rfbme_batch`` — the whole of RFBME over a lockstep batch of frame
  pairs, in one call with the GIL released: it reads both frames of
  every pair in place through an array of their addresses, checks every
  pixel finite, and per pair runs the producer into one pair-sized SAD
  block and the consumer (integral images, box sums, candidate-masked
  argmin, match errors) over it at once.  The producer keeps the current
  frame's tile rows in registers across every search offset (8-wide
  AVX-512 column accumulators where the ISA allows, the same scalar loop
  elsewhere), computes only each tile's in-bounds offset window — so it
  never reads outside the key frame and needs no padded copy — and
  writes *grid-major* output, ``sad[ty][tx][oi][oj]``, which is exactly
  the layout the consumer reads.
* ``im2col`` — every convolution's read-in, with no index array.  It
  reads a source of any layout (the previous conv's NHWC GEMM output,
  normally), applies a max-pool and the zero padding as it reads, and
  writes the GEMM operand directly.  Integer raws become the +128 uint8
  VNNI operand or float32/float64 columns in (ky, kx, c) order; a float
  source also takes the previous conv's pending bias and ReLU and keeps
  the training path's (c, ky, kx) order, one sample at a time for the
  float lanes, or writes a range's last layer as NCHW.  Its NumPy twin
  is :func:`im2col_numpy`.  The quantized lanes' requantize,
  entry-quantize and AVX512-VNNI GEMM entry points live here too.
* ``conv_chain_f64`` — a float64 chain of convolutions over a whole
  batch in one call: per sample, each conv's read-in (the same pending
  bias, ReLU and first-max pool as ``im2col``) fills a zero-padded input
  plane, and the conv sums straight from it in the order numpy's BLAS
  uses for the training path's GEMM -- one FMA chain per element
  (``sequential``) or eight interleaved ones (``k-residue``), which
  :func:`blas_conv_order` probes per conv shape.  Blocks of output
  pixels x eight-channel groups in AVX-512 or AVX2, a scalar ``fma``
  loop on other ISAs: the same bits on each.
* ``warp_bilinear_f64`` / ``warp_bilinear_f32`` — the bilinear AMC warp
  (§III-B) of :func:`repro.core.warp.warp_activation_batch`'s float
  path, which at batch 1 is otherwise all NumPy dispatch.

The kernels are *accelerators, not semantics changes*: they reproduce
their NumPy twins bit-for-bit (for the direct convolution, the BLAS GEMM
of the order it was probed for; for the SAD producer, per tile one
sequential accumulator per column, then numpy's pairwise combine of the
column sums — for the AVX-512 path each ZMM lane is one column
accumulator, and the final combine is the same tree, eight search
offsets at a time across vector lanes; for the warp, the same
double-precision operations in the same order, built with
``-ffp-contract=off`` so no multiply-add fuses).  A self-check at load
time compares every entry point against its NumPy reference on random
probes, so every caller can treat "kernel" and "batched" results as
interchangeable.  ``rfbme_batch`` is checked end to end against the
NumPy engine on four geometries, three with pixels outside the
tile-aligned crop: fields and errors bit for bit, the last pair's SAD
block against :func:`_numpy_reference` inside every tile's offset
window, and the index of the first non-finite frame, from a pixel inside
the crop or outside it.

Calling convention: every entry point takes its arrays as raw base
addresses (:func:`addr`) through ``c_void_p``.  Building a ctypes
pointer costs microseconds per array, which at batch 1 rivals the
arithmetic, so callers take the addresses of their persistent buffers
when they allocate them and retake them on every reallocation.

Gating: no compiler, any compile/load error, a failed self-check, or
``REPRO_SAD_KERNEL=0`` in the environment all make :func:`get_kernel`
return ``None`` and callers fall back to the NumPy path.
``REPRO_FORCE_NUMPY=1`` does the same without even attempting a compile —
the knob CI's NumPy lane uses to prove the pure-NumPy paths stay green
(the kernel lane conversely asserts :func:`kernel_available`,
``has_warp``, ``has_im2col``, ``has_float_im2col`` and
``has_float_direct``, so a fallback can never masquerade as kernel
coverage).  The warp, the integer im2col, the float read-in and the
direct float64 convolution check on their own -- the last against an
exact, BLAS-independent reference in both orders (:func:`_fma_exact`):
when one fails, :func:`get_kernel` keeps every other entry point and
only its flag is false.  Every failure — build, load, self-check, or
one of those four — emits one :class:`KernelFallbackWarning` per
process naming what failed; the deliberate opt-outs and a host without
a compiler stay silent.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from typing import NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "DIRECT_ORDERS",
    "DirectConv",
    "KernelFallbackWarning",
    "SADKernel",
    "addr",
    "blas_conv_order",
    "conv_chain_compiled",
    "get_kernel",
    "im2col_compiled",
    "im2col_numpy",
    "kernel_available",
    "producer_bounds",
]

#: Tiles wider than this fall back to NumPy (the C column buffer is fixed).
MAX_TILE = 8

_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdlib.h>
#include <string.h>
#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

/* Tile SADs of one (key, new) frame pair, both read in place.
 *
 * For every tile (ty, tx) and search offset pair (offs[oi], offs[oj]),
 * the sum over the (tile x tile) block of |new - shifted key|.  Summation
 * order is bit-identical to the NumPy reference (see
 * repro.core.rfbme._tile_sums): each column v accumulates sequentially
 * over rows u; the `tile` column sums then combine with numpy's pairwise
 * order (a tree for tile == 8, sequential below 8).
 */

#if defined(__AVX512F__)
/* One tile==8 comparison: the eight column accumulators, each summing
 * |cur - key| down its column (rows in order, as the NumPy reference). */
static inline __m512d tile_cols8(const __m512d a[8], const double *b,
                                 long w)
{
    const __m512d sign = _mm512_set1_pd(-0.0);
    __m512d acc = _mm512_andnot_pd(sign, _mm512_sub_pd(a[0], _mm512_loadu_pd(b)));
    for (int u = 1; u < 8; ++u)
        acc = _mm512_add_pd(
            acc,
            _mm512_andnot_pd(
                sign, _mm512_sub_pd(a[u], _mm512_loadu_pd(b + u * w))));
    return acc;
}

/* The pairwise combine ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7)) of eight
 * column-accumulator vectors at once: lane j of the result is the tile
 * sum of s[j].  Every add pairs the same two partial sums as the scalar
 * tree, so each lane is bitwise the scalar result. */
static inline __m512d tree8(const __m512d s[8])
{
    __m512d u[4], w[2];
    for (int k = 0; k < 4; ++k)   /* lanes: c0+c1, c2+c3, c4+c5, c6+c7 */
        u[k] = _mm512_add_pd(_mm512_unpacklo_pd(s[2 * k], s[2 * k + 1]),
                             _mm512_unpackhi_pd(s[2 * k], s[2 * k + 1]));
    for (int k = 0; k < 2; ++k)   /* (c0+c1)+(c2+c3), (c4+c5)+(c6+c7) */
        w[k] = _mm512_add_pd(_mm512_shuffle_f64x2(u[2 * k], u[2 * k + 1], 0x88),
                             _mm512_shuffle_f64x2(u[2 * k], u[2 * k + 1], 0xDD));
    return _mm512_add_pd(_mm512_shuffle_f64x2(w[0], w[1], 0x88),
                         _mm512_shuffle_f64x2(w[0], w[1], 0xDD));
}
#endif

/* The geometry of one RFBME engine, fixed for its lifetime, and its
 * workspace (see rfbme_batch for the layout it is unpacked from). */
typedef struct {
    long w, n_ty, n_tx, tile, n_off, out_h, out_w;
    const long *offs, *row_lo, *row_hi, *col_lo, *col_hi;
    const unsigned char *valid;
    const long *ty0, *ty1, *tx0, *tx1;
    const unsigned char *cand, *ok;
    const double *denom;
    double *sad, *ci, *fields, *errors;
} rfbme_geometry;

/* The producer: grid-major output sad[ty][tx][oi][oj], which is exactly
 * the layout the consumer reads, so no transpose pass sits between
 * them.  The current frame's tile rows load once per tile and stay in
 * registers across every offset; with AVX-512, one ZMM holds the eight
 * column accumulators of a tile==8 block, and eight horizontal offsets
 * at a time reduce together (tree8) into one vector store.  Only the
 * in-bounds offset window of each tile is computed -- oi in
 * [row_lo[ty], row_hi[ty]) and oj in [col_lo[tx], col_hi[tx]) -- so
 * every key pixel read lies inside the frame; entries outside the
 * window are left untouched (the consumer masks them by the same
 * validity geometry). */
static void tile_sads(const double *key, const double *cur,
                      const rfbme_geometry *g)
{
    long w = g->w, n_tx = g->n_tx, tile = g->tile, n_off = g->n_off;
    const long *offs = g->offs;
#if defined(__AVX512F__)
    if (tile == 8) {
        for (long ty = 0; ty < g->n_ty; ++ty) {
            for (long tx = 0; tx < n_tx; ++tx) {
                const double *cur_tile = cur + ty * 8 * w + tx * 8;
                __m512d a[8];
                for (int u = 0; u < 8; ++u)
                    a[u] = _mm512_loadu_pd(cur_tile + u * w);
                double *o = g->sad + (ty * n_tx + tx) * n_off * n_off;
                long lo = g->col_lo[tx], hi = g->col_hi[tx];
                for (long oi = g->row_lo[ty]; oi < g->row_hi[ty]; ++oi) {
                    const double *brow = key + (offs[oi] + ty * 8) * w + tx * 8;
                    for (long oj = lo; oj < hi; oj += 8) {
                        long r = hi - oj < 8 ? hi - oj : 8;
                        __m512d s[8];
                        for (int j = 0; j < 8; ++j)
                            s[j] = j < r
                                ? tile_cols8(a, brow + offs[oj + j], w)
                                : _mm512_setzero_pd();
                        _mm512_mask_storeu_pd(o + oi * n_off + oj,
                                              (__mmask8) ((1u << r) - 1),
                                              tree8(s));
                    }
                }
            }
        }
        return;
    }
#endif
    double col[8];
    for (long ty = 0; ty < g->n_ty; ++ty) {
        for (long tx = 0; tx < n_tx; ++tx) {
            const double *a = cur + ty * tile * w + tx * tile;
            double *o = g->sad + (ty * n_tx + tx) * n_off * n_off;
            for (long oi = g->row_lo[ty]; oi < g->row_hi[ty]; ++oi) {
                for (long oj = g->col_lo[tx]; oj < g->col_hi[tx]; ++oj) {
                    const double *b =
                        key + (offs[oi] + ty * tile) * w + offs[oj] + tx * tile;
                    for (long v = 0; v < tile; ++v)
                        col[v] = 0.0;
                    for (long u = 0; u < tile; ++u) {
                        const double *ar = a + u * w;
                        const double *br = b + u * w;
                        for (long v = 0; v < tile; ++v)
                            col[v] += fabs(ar[v] - br[v]);
                    }
                    double total;
                    if (tile == 8)
                        total = ((col[0] + col[1]) + (col[2] + col[3]))
                              + ((col[4] + col[5]) + (col[6] + col[7]));
                    else {
                        total = col[0];
                        for (long v = 1; v < tile; ++v)
                            total += col[v];
                    }
                    o[oi * n_off + oj] = total;
                }
            }
        }
    }
}

/* The consumer: one pair's producer block into its fields (out_h,
 * out_w, 2) and match errors (out_h, out_w).
 *
 * Reproduces, add for add, the vectorized NumPy consumer (see
 * repro.core.rfbme.RFBMEEngine._consumer_fast): a 2-D integral image per
 * offset (row pass then column pass of sequential binary adds) over the
 * valid entries, box sums in ((A - B) - C) + D order, first-minimum
 * argmin over the candidate offsets of each receptive field, and error =
 * cost / denom.  Fields with no valid tile range write zeros, exactly
 * like the NumPy path.  Geometry: valid (n_ty, n_tx, F) 0/1 tile
 * validity; ty0/ty1 (out_h) and tx0/tx1 (out_w) tile ranges per field;
 * cand (out_h*out_w, F) 0/1 candidate offsets; ok (out_h*out_w) 0/1
 * field has candidates; denom (out_h*out_w) error denominators; ci is
 * scratch of (n_ty+1) * (n_tx+1) * F doubles. */
static void consume(const rfbme_geometry *g, double *fields, double *errors)
{
    long n_ty = g->n_ty, n_tx = g->n_tx, n_off = g->n_off;
    long F = n_off * n_off;
    long ci_w = (n_tx + 1) * F;
    const double *s = g->sad;
    double *ci = g->ci;
    /* zero the top row and left column margins */
    for (long k = 0; k < ci_w; ++k)
        ci[k] = 0.0;
    for (long ty = 0; ty < n_ty; ++ty)
        for (long k = 0; k < F; ++k)
            ci[(ty + 1) * ci_w + k] = 0.0;
    /* row pass: interior[ty] = filled[ty] + interior[ty-1] */
    for (long ty = 0; ty < n_ty; ++ty) {
        const double *prev = ci + ty * ci_w + F;
        double *row = ci + (ty + 1) * ci_w + F;
        for (long tx = 0; tx < n_tx; ++tx) {
            const double *sv = s + (ty * n_tx + tx) * F;
            const unsigned char *vv = g->valid + (ty * n_tx + tx) * F;
            double *cell = row + tx * F;
            const double *up = prev + tx * F;
            for (long k = 0; k < F; ++k)
                cell[k] = (vv[k] ? sv[k] : 0.0) + up[k];
        }
    }
    /* column pass: interior[:, tx] += interior[:, tx-1] */
    for (long ty = 0; ty < n_ty; ++ty) {
        double *row = ci + (ty + 1) * ci_w + F;
        for (long tx = 1; tx < n_tx; ++tx) {
            double *cell = row + tx * F;
            const double *left = cell - F;
            for (long k = 0; k < F; ++k)
                cell[k] += left[k];
        }
    }
    /* box sums, candidate-masked first-minimum argmin, errors */
    for (long i = 0; i < g->out_h; ++i) {
        for (long j = 0; j < g->out_w; ++j) {
            long f = i * g->out_w + j;
            double *fv = fields + f * 2;
            if (!g->ok[f]) {
                fv[0] = 0.0;
                fv[1] = 0.0;
                errors[f] = 0.0;
                continue;
            }
            const double *r11 = ci + g->ty1[i] * ci_w + g->tx1[j] * F;
            const double *r01 = ci + g->ty0[i] * ci_w + g->tx1[j] * F;
            const double *r10 = ci + g->ty1[i] * ci_w + g->tx0[j] * F;
            const double *r00 = ci + g->ty0[i] * ci_w + g->tx0[j] * F;
            const unsigned char *cf = g->cand + f * F;
            long best = -1;
            double best_cost = 0.0;
            for (long k = 0; k < F; ++k) {
                if (!cf[k])
                    continue;
                double cost = ((r11[k] - r01[k]) - r10[k]) + r00[k];
                if (best < 0 || cost < best_cost) {
                    best = k;
                    best_cost = cost;
                }
            }
            fv[0] = (double) g->offs[best / n_off];
            fv[1] = (double) g->offs[best % n_off];
            errors[f] = best_cost / g->denom[f];
        }
    }
}

/* 1 when none of the n doubles is NaN or infinite. */
static int all_finite(const double *x, long n)
{
    int bad = 0;
    for (long i = 0; i < n; ++i)
        bad |= !(fabs(x[i]) <= DBL_MAX);
    return !bad;
}

/* RFBME over a lockstep batch of frame pairs: the one call an engine
 * makes per step, with the GIL released for all of it.
 *
 * frames: 2 * n_pairs addresses, the key then the new frame of each
 *         pair, each a C-contiguous (height, width) float64 frame that
 *         is read in place.
 * g:      height, width, n_ty, n_tx, tile, n_off, out_h, out_w.
 * p:      offs, row_lo, row_hi, col_lo, col_hi (the producer's offset
 *         windows); valid, ty0, ty1, tx0, tx1, cand, ok, denom (the
 *         consumer's geometry); then the workspace: sad (one pair's
 *         n_ty * n_tx * n_off * n_off block), ci (the consumer's
 *         scratch), fields (n_pairs, out_h, out_w, 2) and errors
 *         (n_pairs, out_h, out_w).
 *
 * Per pair: every pixel of the key frame, then of the new frame, must
 * be finite -- rows and columns outside the tile-aligned crop too --
 * then the producer fills the SAD block and the consumer turns it into
 * the pair's fields and errors at once.  Returns -1 when every frame
 * was finite, else 2 * pair + (0 key, 1 new) of the first that was not,
 * with that pair and the ones after it left unwritten. */
long rfbme_batch(long n_pairs, const double *const *frames, const long *g,
                 void *const *p)
{
    rfbme_geometry geo = {
        g[1], g[2], g[3], g[4], g[5], g[6], g[7],
        p[0], p[1], p[2], p[3], p[4],
        p[5], p[6], p[7], p[8], p[9], p[10], p[11], p[12],
        p[13], p[14], p[15], p[16],
    };
    long pixels = g[0] * g[1], cells = geo.out_h * geo.out_w;
    for (long q = 0; q < n_pairs; ++q) {
        const double *key = frames[2 * q], *cur = frames[2 * q + 1];
        if (!all_finite(key, pixels))
            return 2 * q;
        if (!all_finite(cur, pixels))
            return 2 * q + 1;
        tile_sads(key, cur, &geo);
        consume(&geo, geo.fields + q * cells * 2, geo.errors + q * cells);
    }
    return -1;
}

/* Quantized-lane requantization: fold the quantized bias into an
 * integer-exact GEMM output and scale it into the next layer's raws.
 * bias/mult are per output channel (the GEMM output's last axis);
 * rint semantics match np.rint (round half to even — the default FP
 * rounding mode) and the bias add is integer-exact, so one pass here
 * is bitwise the NumPy add/multiply/rint/clip/cast chain it replaces.
 *
 * The per-channel operands repeat with period `cols` (8-32 for the
 * repo's conv layers) — too short a trip count to vectorize.  The
 * fast path therefore expands them into REQUANT_UNROLL repetitions on
 * the stack and walks the output flat, so the hot loop runs a few
 * hundred iterations of contiguous loads and vectorizes (AVX-512
 * vrndscaleps on the build hosts this repo targets). */
#define REQUANT_UNROLL 16
#define REQUANT_MAX_COLS 256

void requant_rows_q8(const float *src, long rows, long cols,
                     const float *bias, const float *mult,
                     float lo, float hi, signed char *out)
{
    if (cols <= REQUANT_MAX_COLS) {
        float bpat[REQUANT_MAX_COLS * REQUANT_UNROLL];
        float mpat[REQUANT_MAX_COLS * REQUANT_UNROLL];
        long plen = cols * REQUANT_UNROLL;
        for (long j = 0; j < plen; ++j) {
            bpat[j] = bias[j % cols];
            mpat[j] = mult[j % cols];
        }
        long n = rows * cols, i = 0;
        for (; i + plen <= n; i += plen) {
            const float *s = src + i;
            signed char *o = out + i;
            for (long j = 0; j < plen; ++j) {
                float v = rintf((s[j] + bpat[j]) * mpat[j]);
                v = v < lo ? lo : (v > hi ? hi : v);
                o[j] = (signed char) v;
            }
        }
        for (; i < n; ++i) {
            float v = rintf((src[i] + bias[i % cols]) * mult[i % cols]);
            v = v < lo ? lo : (v > hi ? hi : v);
            out[i] = (signed char) v;
        }
        return;
    }
    for (long r = 0; r < rows; ++r) {
        const float *s = src + r * cols;
        signed char *o = out + r * cols;
        for (long c = 0; c < cols; ++c) {
            float v = rintf((s[c] + bias[c]) * mult[c]);
            v = v < lo ? lo : (v > hi ? hi : v);
            o[c] = (signed char) v;
        }
    }
}

void requant_rows_q16f(const float *src, long rows, long cols,
                       const float *bias, const float *mult,
                       float lo, float hi, short *out)
{
    if (cols <= REQUANT_MAX_COLS) {
        float bpat[REQUANT_MAX_COLS * REQUANT_UNROLL];
        float mpat[REQUANT_MAX_COLS * REQUANT_UNROLL];
        long plen = cols * REQUANT_UNROLL;
        for (long j = 0; j < plen; ++j) {
            bpat[j] = bias[j % cols];
            mpat[j] = mult[j % cols];
        }
        long n = rows * cols, i = 0;
        for (; i + plen <= n; i += plen) {
            const float *s = src + i;
            short *o = out + i;
            for (long j = 0; j < plen; ++j) {
                float v = rintf((s[j] + bpat[j]) * mpat[j]);
                v = v < lo ? lo : (v > hi ? hi : v);
                o[j] = (short) v;
            }
        }
        for (; i < n; ++i) {
            float v = rintf((src[i] + bias[i % cols]) * mult[i % cols]);
            v = v < lo ? lo : (v > hi ? hi : v);
            out[i] = (short) v;
        }
        return;
    }
    for (long r = 0; r < rows; ++r) {
        const float *s = src + r * cols;
        short *o = out + r * cols;
        for (long c = 0; c < cols; ++c) {
            float v = rintf((s[c] + bias[c]) * mult[c]);
            v = v < lo ? lo : (v > hi ? hi : v);
            o[c] = (short) v;
        }
    }
}

void requant_rows_q16(const double *src, long rows, long cols,
                      const double *bias, const double *mult,
                      double lo, double hi, short *out)
{
    if (cols <= REQUANT_MAX_COLS) {
        double bpat[REQUANT_MAX_COLS * REQUANT_UNROLL];
        double mpat[REQUANT_MAX_COLS * REQUANT_UNROLL];
        long plen = cols * REQUANT_UNROLL;
        for (long j = 0; j < plen; ++j) {
            bpat[j] = bias[j % cols];
            mpat[j] = mult[j % cols];
        }
        long n = rows * cols, i = 0;
        for (; i + plen <= n; i += plen) {
            const double *s = src + i;
            short *o = out + i;
            for (long j = 0; j < plen; ++j) {
                double v = rint((s[j] + bpat[j]) * mpat[j]);
                v = v < lo ? lo : (v > hi ? hi : v);
                o[j] = (short) v;
            }
        }
        for (; i < n; ++i) {
            double v = rint((src[i] + bias[i % cols]) * mult[i % cols]);
            v = v < lo ? lo : (v > hi ? hi : v);
            out[i] = (short) v;
        }
        return;
    }
    for (long r = 0; r < rows; ++r) {
        const double *s = src + r * cols;
        short *o = out + r * cols;
        for (long c = 0; c < cols; ++c) {
            double v = rint((s[c] + bias[c]) * mult[c]);
            v = v < lo ? lo : (v > hi ? hi : v);
            o[c] = (short) v;
        }
    }
}

/* Entry quantization: float32 activations to raws in one pass (scale
 * is a power of two, so the multiply is exact in any precision). */
void quantize_q8(const float *src, long n, float scale,
                 float lo, float hi, signed char *out)
{
    for (long i = 0; i < n; ++i) {
        float v = rintf(src[i] * scale);
        v = v < lo ? lo : (v > hi ? hi : v);
        out[i] = (signed char) v;
    }
}

void quantize_q16(const float *src, long n, float scale,
                  float lo, float hi, short *out)
{
    for (long i = 0; i < n; ++i) {
        float v = rintf(src[i] * scale);
        v = v < lo ? lo : (v > hi ? hi : v);
        out[i] = (short) v;
    }
}

/* Direct im2col for every convolution lane.
 *
 * src holds one activation per sample -- int8 or int16 raws, or float32
 * or float64 values -- of any layout, addressed through element strides
 * sb, sy, sx, sc (batch, row, column, channel): the previous conv's
 * NHWC GEMM output, a pool's NCHW output or a caller's array alike.  A
 * float source may carry the previous conv's pending bias and ReLU:
 * each element read becomes v + bias[c] (bias may be NULL), then
 * v * (v > 0) when relu is set -- the training path's expressions.  With
 * pf > 1 the logical input is then its pf x pf, stride-ps max-pool (h x
 * w x c is the pooled grid), computed as the rows are read.  The pool
 * keeps the first maximum of each window's row-major scan: a later
 * element replaces the running one only when strictly greater, or when
 * it is the window's first NaN -- the training path's argmax pick, which
 * decides the sign of a pooled zero (on integers it is plain max).
 *
 * Output row (b*out_h + oy) * out_w + ox, row stride ld, holds the k x k
 * window at (oy, ox), zero padding outside the grid.  Integer sources
 * emit (ky, kx, c) order -- c contiguous values per tap, which the
 * caller matches by permuting the GEMM weights -- converted per out_size:
 * 1 = the uint8 VNNI operand (raw + 128, i.e. the sign bit flipped; int8
 * only), 4 = float32, 8 = float64.  Float sources emit the training
 * path's (c, ky, kx) order, in their own type: float sums depend on
 * order, so their columns cannot be permuted.  Columns k*k*c to ld - 1
 * are never written.  k == 0 (float only) writes the logical input
 * itself to out as contiguous NCHW: a range's last layer.
 *
 * Each needed input row is read once per sample into a ring of k
 * zero-bordered rows -- pixel-major for integers, channel-major for
 * floats -- so every tap (a (pixel, ky) segment of k*c values, or a
 * (pixel, c, ky) segment of k) is one contiguous copy.  Conversion,
 * bias, ReLU and pool are the same operations in the same order as the
 * NumPy twin, so the result equals it bit for bit (no index array
 * either way).  Returns -1 on an unsupported type pair or a failed
 * allocation, else 0. */
static inline void copy_span(unsigned char *d, const unsigned char *s,
                             long n)
{
    /* exact-length copy from fixed-size moves (the last one overlaps) */
    if (n >= 32) {
        long j = 0;
        for (; j + 32 <= n; j += 32)
            memcpy(d + j, s + j, 32);
        if (j < n)
            memcpy(d + n - 32, s + n - 32, 32);
    } else if (n >= 16) {
        long j = 0;
        for (; j + 16 <= n; j += 16)
            memcpy(d + j, s + j, 16);
        if (j < n)
            memcpy(d + n - 16, s + n - 16, 16);
    } else if (n >= 8) {
        memcpy(d, s, 8);
        memcpy(d + n - 8, s + n - 8, 8);
    } else if (n >= 4) {
        memcpy(d, s, 4);
        memcpy(d + n - 4, s + n - 4, 4);
    } else {
        for (long j = 0; j < n; ++j)
            d[j] = s[j];
    }
}

/* One output pixel row: ntaps segments of nb bytes per pixel.  With
 * CH >= nb every segment but the last is one CH-byte move that spills
 * into the next segment (CH <= 2 nb keeps the spill inside the row; the
 * spilled bytes are written next); the last one is two HALF-byte moves
 * ending exactly at nb.  Constant move sizes keep the loop free of size
 * dispatch. */
#define EMIT_TAPS(CH, HALF)                                                 \
    for (long ox = 0; ox < out_w; ++ox, o += ld) {                          \
        unsigned char *ob = (unsigned char *) o;                            \
        long off = ox * step;                                               \
        for (long t = 0; t + 1 < ntaps; ++t)                                \
            memcpy(ob + t * nb, taps[t] + off, CH);                         \
        const unsigned char *sl =                                           \
            (const unsigned char *) (taps[ntaps - 1] + off);                \
        unsigned char *dl = ob + (ntaps - 1) * nb;                          \
        memcpy(dl, sl, HALF);                                               \
        memcpy(dl + nb - HALF, sl + nb - HALF, HALF);                       \
    }

/* first maximum of a row-major scan (NaN wins once, as np.argmax) */
#define TAKE(v, m) (!((v) <= (m)) & ((m) == (m)))
#define TO_U8(v) ((unsigned char) ((v) ^ 0x80))
#define TO_F32(v) ((float) (v))
#define TO_F64(v) ((double) (v))
#define AS_IS(v) (v)
/* a float source's pending operations, as the training path writes
 * them: the previous conv's bias b, then the ReLU x * (x > 0) */
#define XF_B(v, b) ((v) + (b))
#define XF_R(v, b) ((v) * ((v) > 0))
#define XF_BR(v, b) XF_R(XF_B(v, b), b)

static inline long round64(long n) { return (n + 63) & ~63L; }

/* dst[j] = the pending operations applied to src[j], j < n; bias[j] is
 * the bias of j's channel */
#define PENDING(dst, src, n)                                                \
    if (bias != NULL && relu)                                               \
        for (long j = 0; j < (n); ++j)                                      \
            dst[j] = XF_BR(src[j], pattern[j]);                             \
    else if (bias != NULL)                                                  \
        for (long j = 0; j < (n); ++j)                                      \
            dst[j] = XF_B(src[j], pattern[j]);                              \
    else if (relu)                                                          \
        for (long j = 0; j < (n); ++j)                                      \
            dst[j] = XF_R(src[j], 0);                                       \
    else                                                                    \
        for (long j = 0; j < (n); ++j)                                      \
            dst[j] = src[j];

/* line[ix * c + ci] <- element (IY, ix, ci) of the logical input: the
 * source through its pending operations, max-pooled -- the first
 * maximum over each window's row-major scan, so per source row first
 * over the pf column shifts, then over the rows.  Rows stored
 * contiguously (NHWC) take whole-row passes that vectorize: every
 * shift at once, then every ps-th pixel. */
#define READ_LINE(IY, SRC_T)                                                \
    for (long fy = 0; fy < pf; ++fy) {                                      \
        const SRC_T *restrict x = sample + ((IY) * ps + fy) * sy;           \
        SRC_T *restrict t = fy == 0 ? line : hrow;                          \
        if (dense) {                                                        \
            if (pf == 1) {                                                  \
                PENDING(t, x, w * c)                                        \
            } else {                                                        \
                if (bias != NULL || relu) {                                 \
                    PENDING(xrow, x, span)                                  \
                    x = xrow;                                               \
                }                                                           \
                for (long j = 0; j < hspan; ++j)                            \
                    hmax[j] = x[j];                                         \
                for (long fx = 1; fx < pf; ++fx)                            \
                    for (long j = 0; j < hspan; ++j) {                      \
                        SRC_T v = x[fx * c + j];                            \
                        hmax[j] = TAKE(v, hmax[j]) ? v : hmax[j];           \
                    }                                                       \
                for (long ix = 0; ix < w; ++ix)                             \
                    memcpy(t + ix * c, hmax + ix * ps * c,                  \
                           c * sizeof(SRC_T));                              \
            }                                                               \
        } else {                                                            \
            for (long ix = 0; ix < w; ++ix)                                 \
                for (long ci = 0; ci < c; ++ci) {                           \
                    const SRC_T *p = x + ix * ps * sx + ci * sc;            \
                    SRC_T m = 0;                                            \
                    for (long fx = 0; fx < pf; ++fx) {                      \
                        SRC_T v = p[fx * sx];                               \
                        if (bias != NULL)                                   \
                            v = XF_B(v, bias[ci]);                          \
                        if (relu)                                           \
                            v = XF_R(v, 0);                                 \
                        m = fx == 0 || TAKE(v, m) ? v : m;                  \
                    }                                                       \
                    t[ix * c + ci] = m;                                     \
                }                                                           \
        }                                                                   \
        if (fy > 0)                                                         \
            for (long j = 0; j < w * c; ++j)                                \
                line[j] = TAKE(hrow[j], line[j]) ? hrow[j] : line[j];       \
    }

#define IM2COL(NAME, SRC_T, DST_T, CONV, FLOAT)                             \
static long NAME(const SRC_T *src, long sb, long sy, long sx, long sc,      \
                 long pf, long ps, long h, long w, long c,                  \
                 long k, long stride, long pad, long out_h, long out_w,     \
                 long batch, long ld, DST_T *out,                           \
                 const SRC_T *bias, long relu)                              \
{                                                                           \
    long wp = w + 2 * pad, nring = k > 0 ? k : 1;                           \
    /* ring rows carry 64 bytes of slack for EMIT_TAPS' spilling reads */   \
    long rw = wp * c + 64 / sizeof(DST_T);                                  \
    long ntaps = FLOAT ? c * k : k;                                         \
    long nb = (FLOAT ? k : k * c) * sizeof(DST_T);                          \
    long step = FLOAT ? stride : stride * c;                                \
    long chunk = nb <= 4 ? 0 : nb <= 8 ? 8 : nb <= 16 ? 16                  \
               : nb <= 32 ? 32 : nb <= 64 ? 64 : 0;                         \
    /* rows stored contiguously (NHWC): whole-row passes that vectorize */  \
    int dense = (sc == 1 || c == 1) && sx == c;                             \
    long span = ((w - 1) * ps + pf) * c, hspan = ((w - 1) * ps + 1) * c;    \
    long sizes[] = {                                                        \
        nring * (long) sizeof(long), nring * (long) sizeof(DST_T *),        \
        (ntaps + 1) * (long) sizeof(DST_T *),                               \
        (nring + 1) * rw * (long) sizeof(DST_T),                            \
        span * (long) sizeof(SRC_T), span * (long) sizeof(SRC_T),           \
        hspan * (long) sizeof(SRC_T), w * c * (long) sizeof(SRC_T),         \
        w * c * (long) sizeof(SRC_T),                                       \
    };                                                                      \
    long total = 0;                                                         \
    for (int j = 0; j < 9; ++j)                                             \
        total += round64(sizes[j]);                                         \
    unsigned char *mem = malloc(total), *cursor = mem;                      \
    if (mem == NULL)                                                        \
        return -1;                                                          \
    void *piece[9];                                                         \
    for (int j = 0; j < 9; ++j) {                                           \
        piece[j] = cursor;                                                  \
        cursor += round64(sizes[j]);                                        \
    }                                                                       \
    long *held = piece[0];                                                  \
    const DST_T **rows = piece[1], **taps = piece[2];                       \
    DST_T *zero = piece[3], *ring = zero + rw;                              \
    SRC_T *restrict pattern = piece[4], *restrict xrow = piece[5];          \
    SRC_T *restrict hmax = piece[6], *restrict line = piece[7];             \
    SRC_T *restrict hrow = piece[8];                                        \
    if (bias != NULL)                                                       \
        for (long j = 0; j < span; ++j)                                     \
            pattern[j] = bias[j % c];                                       \
    for (long j = 0; j < (nring + 1) * rw; ++j)                             \
        zero[j] = CONV((SRC_T) 0);                                          \
    for (long b = 0; b < batch; ++b) {                                      \
        const SRC_T *sample = src + b * sb;                                 \
        if (k == 0) {                                                       \
            DST_T *o = out + b * c * h * w;                                 \
            for (long iy = 0; iy < h; ++iy) {                               \
                READ_LINE(iy, SRC_T)                                        \
                for (long ci = 0; ci < c; ++ci)                             \
                    for (long ix = 0; ix < w; ++ix)                         \
                        o[(ci * h + iy) * w + ix] = CONV(line[ix * c + ci]);\
            }                                                               \
            continue;                                                       \
        }                                                                   \
        for (long j = 0; j < k; ++j)                                        \
            held[j] = -1 - pad;  /* no row held */                          \
        for (long oy = 0; oy < out_h; ++oy) {                               \
            for (long ky = 0; ky < k; ++ky) {                               \
                long iy = oy * stride + ky - pad;                           \
                if (iy < 0 || iy >= h) {                                    \
                    rows[ky] = zero;                                        \
                    continue;                                               \
                }                                                           \
                long slot = (iy + pad) % k;                                 \
                DST_T *row = ring + slot * rw;                              \
                rows[ky] = row;                                             \
                if (held[slot] == iy)                                       \
                    continue;                                               \
                held[slot] = iy;                                            \
                if (!FLOAT && pf == 1 && dense) {                           \
                    const SRC_T *s = sample + iy * sy;                      \
                    DST_T *d = row + pad * c;                               \
                    for (long j = 0; j < w * c; ++j)                        \
                        d[j] = CONV(s[j]);                                  \
                    continue;                                               \
                }                                                           \
                READ_LINE(iy, SRC_T)                                        \
                if (FLOAT) {                                                \
                    for (long ci = 0; ci < c; ++ci)                         \
                        for (long ix = 0; ix < w; ++ix)                     \
                            row[ci * wp + pad + ix] =                       \
                                CONV(line[ix * c + ci]);                    \
                } else {                                                    \
                    for (long j = 0; j < w * c; ++j)                        \
                        row[pad * c + j] = CONV(line[j]);                   \
                }                                                           \
            }                                                               \
            for (long t = 0; t < ntaps; ++t)                                \
                taps[t] = FLOAT ? rows[t % k] + (t / k) * wp : rows[t];     \
            DST_T *o = out + (b * out_h + oy) * out_w * ld;                 \
            switch (chunk) {                                                \
            case 8: EMIT_TAPS(8, 4); break;                                 \
            case 16: EMIT_TAPS(16, 8); break;                               \
            case 32: EMIT_TAPS(32, 16); break;                              \
            case 64: EMIT_TAPS(64, 32); break;                              \
            default:                                                        \
                for (long ox = 0; ox < out_w; ++ox, o += ld)                \
                    for (long t = 0; t < ntaps; ++t)                        \
                        copy_span((unsigned char *) o + t * nb,             \
                                  (const unsigned char *)                   \
                                      (taps[t] + ox * step), nb);           \
            }                                                               \
        }                                                                   \
    }                                                                       \
    free(mem);                                                              \
    return 0;                                                               \
}

IM2COL(im2col_q8u, signed char, unsigned char, TO_U8, 0)
IM2COL(im2col_q8f, signed char, float, TO_F32, 0)
IM2COL(im2col_q8d, signed char, double, TO_F64, 0)
IM2COL(im2col_q16f, short, float, TO_F32, 0)
IM2COL(im2col_q16d, short, double, TO_F64, 0)
IM2COL(im2col_f32, float, float, AS_IS, 1)
IM2COL(im2col_f64, double, double, AS_IS, 1)

/* The one im2col entry point.  g holds the geometry: src item size (1 =
 * int8, 2 = int16, 4 = float32, 8 = float64), out item size, then sb,
 * sy, sx, sc, pf, ps, h, w, c, k, stride, pad, out_h, out_w, batch, ld
 * and relu.  bias (float sources only) may be NULL.  Four arguments keep
 * the per-sample calls of the float lanes cheap. */
long im2col(const void *src, const long *g, const void *bias, void *out)
{
    long src_size = g[0], out_size = g[1];
#define IM2COL_ARGS g[2], g[3], g[4], g[5], g[6], g[7], g[8], g[9], g[10], \
                    g[11], g[12], g[13], g[14], g[15], g[16], g[17]
    if (src_size == 8 && out_size == 8)
        return im2col_f64(src, IM2COL_ARGS, out, bias, g[18]);
    if (src_size == 4 && out_size == 4)
        return im2col_f32(src, IM2COL_ARGS, out, bias, g[18]);
    if (g[11] == 0 || bias != NULL || g[18])
        return -1;  /* rows mode, bias and ReLU read floats only */
    if (src_size == 1 && out_size == 1)
        return im2col_q8u(src, IM2COL_ARGS, out, NULL, 0);
    if (src_size == 1 && out_size == 4)
        return im2col_q8f(src, IM2COL_ARGS, out, NULL, 0);
    if (src_size == 1 && out_size == 8)
        return im2col_q8d(src, IM2COL_ARGS, out, NULL, 0);
    if (src_size == 2 && out_size == 4)
        return im2col_q16f(src, IM2COL_ARGS, out, NULL, 0);
    if (src_size == 2 && out_size == 8)
        return im2col_q16d(src, IM2COL_ARGS, out, NULL, 0);
#undef IM2COL_ARGS
    return -1;
}

/* Direct float64 convolution: a chain of convs, one call per batch.
 *
 * Each output element is one of the two summation orders numpy's BLAS
 * uses for the training path's cols @ w_mat.T (the caller probes which,
 * per conv):
 *   order 0, sequential: one FMA chain over k = (c, ky, kx) from +0.0;
 *   order 1, k-residue: eight FMA chains, chain l summing k = l (mod 8)
 *     in k order from +0.0, combined ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)).
 * A chain started at +0.0 is never -0.0, so a zero sum is +0.0 in both.
 *
 * Per sample, each conv reads its logical input -- the range input, or
 * the previous conv's raw (M, n) output through that conv's pending bias,
 * the ReLU v * (v > 0) and the first-max pool (READ_LINE, as the im2col
 * read-in does) -- into a zero-padded (h + 2 pad, w + 2 pad, c) plane,
 * and convolves straight from it into its raw output, bias not yet
 * added.  The tail writes the last raw output through its bias, ReLU
 * and pool as the sample's NCHW result. */
static void read_input(const double *sample, long sy, long sx, long sc,
                       long pf, long ps, long h, long w, long c,
                       const double *bias, long relu, double *tmp,
                       double *dst, long pad, int nchw)
{
    long span = ((w - 1) * ps + pf) * c, hspan = ((w - 1) * ps + 1) * c;
    int dense = (sc == 1 || c == 1) && sx == c;
    double *restrict pattern = tmp, *restrict xrow = pattern + span;
    double *restrict hmax = xrow + span, *restrict hrow = hmax + hspan;
    long wp = w + 2 * pad;
    if (bias != NULL)
        for (long j = 0; j < span; ++j)
            pattern[j] = bias[j % c];
    for (long iy = 0; iy < h; ++iy) {
        /* a plane row takes the line as it is read; NCHW transposes it */
        double *restrict line =
            nchw ? hrow + w * c : dst + ((iy + pad) * wp + pad) * c;
        READ_LINE(iy, double)
        if (nchw)
            for (long ci = 0; ci < c; ++ci)
                for (long ix = 0; ix < w; ++ix)
                    dst[(ci * h + iy) * w + ix] = line[ix * c + ci];
    }
}

#if defined(__AVX512F__)
/* P pixels x G groups of eight channels, one accumulator vector each:
 * per tap, G weight vectors and P broadcast plane values.  Every lane
 * is one element's FMA chain over the taps in order, from +0.0.  The
 * last group stores the lanes in `last` only (a channel tail). */
#define DIRECT_BLOCK(G, P)                                                  \
static inline void direct_##G##_##P(                                        \
    const double *plane, const long *pix, const long *taps, long t0,       \
    long tstep, long kk, const double *wp, long npad, double *out,         \
    long ld, __mmask8 last)                                                \
{                                                                           \
    __m512d acc[P][G];                                                      \
    const double *base[P];                                                  \
    _Pragma("GCC unroll 8")                                                 \
    for (int p = 0; p < P; ++p) {                                           \
        base[p] = plane + pix[p];                                           \
        _Pragma("GCC unroll 4")                                             \
        for (int g = 0; g < G; ++g)                                         \
            acc[p][g] = _mm512_setzero_pd();                                \
    }                                                                       \
    for (long t = t0; t < kk; t += tstep) {                                 \
        const double *w = wp + t * npad;                                    \
        long off = taps[t];                                                 \
        __m512d wv[G];                                                      \
        _Pragma("GCC unroll 4")                                             \
        for (int g = 0; g < G; ++g)                                         \
            wv[g] = _mm512_loadu_pd(w + 8 * g);                             \
        _Pragma("GCC unroll 8")                                             \
        for (int p = 0; p < P; ++p) {                                       \
            __m512d xb = _mm512_set1_pd(base[p][off]);                      \
            _Pragma("GCC unroll 4")                                         \
            for (int g = 0; g < G; ++g)                                     \
                acc[p][g] = _mm512_fmadd_pd(xb, wv[g], acc[p][g]);          \
        }                                                                   \
    }                                                                       \
    _Pragma("GCC unroll 8")                                                 \
    for (int p = 0; p < P; ++p) {                                           \
        _Pragma("GCC unroll 4")                                             \
        for (int g = 0; g + 1 < G; ++g)                                     \
            _mm512_storeu_pd(out + p * ld + 8 * g, acc[p][g]);              \
        _mm512_mask_storeu_pd(out + p * ld + 8 * (G - 1), last,             \
                              acc[p][G - 1]);                               \
    }                                                                       \
}

DIRECT_BLOCK(1, 8)
DIRECT_BLOCK(1, 1)
DIRECT_BLOCK(2, 8)
DIRECT_BLOCK(2, 1)
DIRECT_BLOCK(3, 8)
DIRECT_BLOCK(3, 1)
DIRECT_BLOCK(4, 4)
DIRECT_BLOCK(4, 1)
#elif defined(__AVX2__) && defined(__FMA__)
/* The AVX2 block: P pixels x one group of eight channels, as two
 * four-lane halves -- the same chains as the AVX-512 blocks.  A partial
 * group goes through a stack row and stores its `lanes` channels. */
#define DIRECT_BLOCK2(P)                                                    \
static inline void direct2_##P(                                             \
    const double *plane, const long *pix, const long *taps, long t0,       \
    long tstep, long kk, const double *wp, long npad, double *out,         \
    long ld, long lanes)                                                   \
{                                                                           \
    __m256d lo[P], hi[P];                                                   \
    const double *base[P];                                                  \
    _Pragma("GCC unroll 8")                                                 \
    for (int p = 0; p < P; ++p) {                                           \
        base[p] = plane + pix[p];                                           \
        lo[p] = hi[p] = _mm256_setzero_pd();                                \
    }                                                                       \
    for (long t = t0; t < kk; t += tstep) {                                 \
        const double *w = wp + t * npad;                                    \
        __m256d wl = _mm256_loadu_pd(w), wh = _mm256_loadu_pd(w + 4);       \
        long off = taps[t];                                                 \
        _Pragma("GCC unroll 8")                                             \
        for (int p = 0; p < P; ++p) {                                       \
            __m256d xb = _mm256_broadcast_sd(base[p] + off);                \
            lo[p] = _mm256_fmadd_pd(xb, wl, lo[p]);                         \
            hi[p] = _mm256_fmadd_pd(xb, wh, hi[p]);                         \
        }                                                                   \
    }                                                                       \
    for (int p = 0; p < P; ++p) {                                           \
        double row[8];                                                      \
        double *o = lanes == 8 ? out + p * ld : row;                        \
        _mm256_storeu_pd(o, lo[p]);                                         \
        _mm256_storeu_pd(o + 4, hi[p]);                                     \
        if (lanes < 8)                                                      \
            memcpy(out + p * ld, row, lanes * sizeof(double));              \
    }                                                                       \
}

DIRECT_BLOCK2(6)
DIRECT_BLOCK2(1)
#endif

/* out[m * ld + j], pixel m < npix, channel j < n: the FMA chain over taps
 * t = t0, t0 + tstep, ... < kk of plane[pix[m] + taps[t]] * wp[t * npad +
 * j], from +0.0.  wp holds npad >= n channels per tap, zero past n. */
static void conv_taps(const double *plane, const long *pix, long npix,
                      const long *taps, long t0, long tstep, long kk,
                      const double *wp, long n, long npad, double *out,
                      long ld)
{
#if defined(__AVX512F__)
    long groups = npad / 8;
    for (long g0 = 0; g0 < groups; g0 += 4) {
        long G = groups - g0 < 4 ? groups - g0 : 4;
        long rest = n - (g0 + G - 1) * 8;
        __mmask8 last = rest >= 8 ? 0xFF : (__mmask8) ((1u << rest) - 1);
        const double *w = wp + g0 * 8;
        double *o = out + g0 * 8;
        long m = 0;
#define RUN_BLOCKS(G, P)                                                    \
        for (; m + P <= npix; m += P)                                       \
            direct_##G##_##P(plane, pix + m, taps, t0, tstep, kk, w, npad,  \
                             o + m * ld, ld, last);
        switch (G) {
        case 1: RUN_BLOCKS(1, 8) RUN_BLOCKS(1, 1) break;
        case 2: RUN_BLOCKS(2, 8) RUN_BLOCKS(2, 1) break;
        case 3: RUN_BLOCKS(3, 8) RUN_BLOCKS(3, 1) break;
        default: RUN_BLOCKS(4, 4) RUN_BLOCKS(4, 1) break;
        }
#undef RUN_BLOCKS
    }
#elif defined(__AVX2__) && defined(__FMA__)
    for (long g0 = 0; g0 < npad; g0 += 8) {
        long lanes = n - g0 < 8 ? n - g0 : 8, m = 0;
        for (; m + 6 <= npix; m += 6)
            direct2_6(plane, pix + m, taps, t0, tstep, kk, wp + g0, npad,
                      out + m * ld + g0, ld, lanes);
        for (; m < npix; ++m)
            direct2_1(plane, pix + m, taps, t0, tstep, kk, wp + g0, npad,
                      out + m * ld + g0, ld, lanes);
    }
#else
    for (long m = 0; m < npix; ++m)
        for (long j = 0; j < n; ++j) {
            double acc = 0.0;
            for (long t = t0; t < kk; t += tstep)
                acc = fma(plane[pix[m] + taps[t]], wp[t * npad + j], acc);
            out[m * ld + j] = acc;
        }
#endif
}

/* panel[t * npad + j] = weight[j * kk + t]: the (n, kk) weights as
 * (kk, npad) panels, in 8 x 8 transposed blocks where AVX-512 allows */
static void pack_panel(const double *weight, long n, long kk, double *panel,
                       long npad)
{
    long j0 = 0;
#if defined(__AVX512F__)
    const __m512i lo2 = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
    const __m512i hi2 = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
    const __m512i lo4 = _mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0);
    const __m512i hi4 = _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4);
    for (; j0 + 8 <= n; j0 += 8) {
        long t0 = 0;
        for (; t0 + 8 <= kk; t0 += 8) {
            __m512d r[8], u[8];
            for (int l = 0; l < 8; ++l)
                r[l] = _mm512_loadu_pd(weight + (j0 + l) * kk + t0);
            for (int l = 0; l < 8; l += 2) {  /* pairs of rows */
                u[l] = _mm512_unpacklo_pd(r[l], r[l + 1]);
                u[l + 1] = _mm512_unpackhi_pd(r[l], r[l + 1]);
            }
            for (int l = 0; l < 8; l += 4) {  /* quads of rows */
                r[l] = _mm512_permutex2var_pd(u[l], lo2, u[l + 2]);
                r[l + 1] = _mm512_permutex2var_pd(u[l + 1], lo2, u[l + 3]);
                r[l + 2] = _mm512_permutex2var_pd(u[l], hi2, u[l + 2]);
                r[l + 3] = _mm512_permutex2var_pd(u[l + 1], hi2, u[l + 3]);
            }
            for (int l = 0; l < 4; ++l) {  /* columns l and l + 4 */
                _mm512_storeu_pd(panel + (t0 + l) * npad + j0,
                                 _mm512_permutex2var_pd(r[l], lo4, r[l + 4]));
                _mm512_storeu_pd(panel + (t0 + l + 4) * npad + j0,
                                 _mm512_permutex2var_pd(r[l], hi4, r[l + 4]));
            }
        }
        for (; t0 < kk; ++t0)
            for (long j = j0; j < j0 + 8; ++j)
                panel[t0 * npad + j] = weight[j * kk + t0];
    }
#endif
    for (long t = 0; t < kk; ++t)
        for (long j = j0; j < n; ++j)
            panel[t * npad + j] = weight[j * kk + t];
}

/* g: nconv, the input's sample stride, the output's sample stride, then
 * per conv 17 longs -- its read-in (source strides sy, sx, sc; pool pf,
 * ps; the logical input h, w, c; relu), then k, stride, pad, out_h,
 * out_w, n, npad and order -- and 9 for the tail's read-in.  p: per
 * conv its weight (n, c, k, k), pending bias (may be NULL), plane, raw
 * (M, n), weight panel (c k k, npad; zero past n) and, for order 1,
 * eight (M, n) partial sums.  Weights and biases are read on every
 * call; the panels are repacked from them.  Returns -1 when scratch
 * could not be allocated, else 0. */
#define CONV_REC 17
long conv_chain_f64(const double *x, long batch, const long *g,
                    void *const *p, double *out)
{
    long nconv = g[0], sb = g[1], out_sb = g[2];
    const long *rec = g + 3, *tail = rec + nconv * CONV_REC;
    long tmp_n = 0, off_n = 0;
    for (long i = 0; i <= nconv; ++i) {
        const long *r = i < nconv ? rec + i * CONV_REC : tail;
        long pf = r[3], ps = r[4], w = r[6], c = r[7];
        long span = ((w - 1) * ps + pf) * c, hspan = ((w - 1) * ps + 1) * c;
        long need = 2 * span + hspan + 2 * w * c;
        tmp_n = need > tmp_n ? need : tmp_n;
        if (i < nconv)
            off_n += c * r[9] * r[9] + r[12] * r[13];
    }
    double *tmp = malloc(tmp_n * sizeof(double));
    long *offs = malloc(off_n * sizeof(long));
    if (tmp == NULL || offs == NULL) {
        free(tmp);
        free(offs);
        return -1;
    }
    long *o = offs;
    for (long i = 0; i < nconv; ++i) {
        const long *r = rec + i * CONV_REC;
        long h = r[5], w = r[6], c = r[7], k = r[9], stride = r[10];
        long pad = r[11], out_h = r[12], out_w = r[13], n = r[14];
        long npad = r[15], kk = c * k * k, wp = w + 2 * pad;
        pack_panel(p[6 * i], n, kk, p[6 * i + 4], npad);
        for (long ci = 0; ci < c; ++ci)
            for (long ky = 0; ky < k; ++ky)
                for (long kx = 0; kx < k; ++kx)
                    *o++ = (ky * wp + kx) * c + ci;
        for (long oy = 0; oy < out_h; ++oy)
            for (long ox = 0; ox < out_w; ++ox)
                *o++ = (oy * wp + ox) * stride * c;
    }
    for (long b = 0; b < batch; ++b) {
        const double *src = x + b * sb, *bias = NULL;
        o = offs;
        for (long i = 0; i < nconv; ++i) {
            const long *r = rec + i * CONV_REC;
            long c = r[7], k = r[9], pad = r[11], m = r[12] * r[13];
            long n = r[14], npad = r[15], kk = c * k * k;
            double *plane = p[6 * i + 2], *raw = p[6 * i + 3];
            const double *panel = p[6 * i + 4];
            const long *taps = o, *pix = o + kk;
            o += kk + m;
            read_input(src, r[0], r[1], r[2], r[3], r[4], r[5], r[6], c,
                       bias, r[8], tmp, plane, pad, 0);
            if (r[16] == 0) {
                conv_taps(plane, pix, m, taps, 0, 1, kk, panel, n, npad,
                          raw, n);
            } else {
                double *q = p[6 * i + 5];
                long mn = m * n;
                for (long l = 0; l < 8; ++l)
                    conv_taps(plane, pix, m, taps, l, 8, kk, panel, n, npad,
                              q + l * mn, n);
                for (long j = 0; j < mn; ++j)
                    raw[j] = ((q[j] + q[mn + j]) + (q[2 * mn + j] + q[3 * mn + j]))
                           + ((q[4 * mn + j] + q[5 * mn + j])
                              + (q[6 * mn + j] + q[7 * mn + j]));
            }
            src = raw;
            bias = p[6 * i + 1];
        }
        read_input(src, tail[0], tail[1], tail[2], tail[3], tail[4],
                   tail[5], tail[6], tail[7], bias, tail[8], tmp,
                   out + b * out_sb, 0, 1);
    }
    free(tmp);
    free(offs);
    return 0;
}

/* int8 convolution GEMM with fused requantization (AVX512-VNNI).
 *
 * a:  (m, k4*4) uint8 activations offset by +128, zero-padded past the
 *     true reduction depth.
 * bp: packed int8 weights, k4 groups x L channels x 4 consecutive
 *     k-positions (vpdpbusd's operand shape), zero-padded in both axes;
 *     L = 16 when n <= 16 (one ZMM of channels per row), else 32.
 * bias/mult: 32 floats per channel; bias already carries the
 *     -128 * sum_k(w) correction for the activation offset, so the
 *     int32 accumulator equals acc_true + 128*colsum and
 *     (float)acc + bias reproduces the reference (acc_true + bias_q)
 *     exactly (all quantities are integers below 2^24).
 * out: (m, out_stride) int8, first n columns written.
 *
 * vpdpbusd accumulates u8 x s8 dot-4s into int32 — exact integer
 * arithmetic, so any summation order matches the NumPy reference
 * bitwise.  The requant epilogue (cvt, +bias, *mult, round-to-even,
 * clip, narrow) is the same chain as requant_rows_q8 in vector form.
 */
#if defined(__AVX512VNNI__) && defined(__AVX512F__)
int have_vnni(void) { return 1; }

static inline void requant_store_q8(__m512i acc0, __m512i acc1,
                                    __m512 vb0, __m512 vb1,
                                    __m512 vm0, __m512 vm1,
                                    __m512 vlo, __m512 vhi,
                                    __mmask16 k0, __mmask16 k1,
                                    signed char *dst)
{
    __m512 f0 = _mm512_mul_ps(
        _mm512_add_ps(_mm512_cvtepi32_ps(acc0), vb0), vm0);
    __m512 f1 = _mm512_mul_ps(
        _mm512_add_ps(_mm512_cvtepi32_ps(acc1), vb1), vm1);
    f0 = _mm512_roundscale_ps(f0, 0x08);
    f1 = _mm512_roundscale_ps(f1, 0x08);
    f0 = _mm512_min_ps(_mm512_max_ps(f0, vlo), vhi);
    f1 = _mm512_min_ps(_mm512_max_ps(f1, vlo), vhi);
    _mm512_mask_cvtepi32_storeu_epi8(dst, k0, _mm512_cvtps_epi32(f0));
    _mm512_mask_cvtepi32_storeu_epi8(dst + 16, k1, _mm512_cvtps_epi32(f1));
}

static inline void requant_store_q16(__m512i acc0, __m512i acc1,
                                     __m512 vb0, __m512 vb1,
                                     __m512 vm0, __m512 vm1,
                                     __m512 vlo, __m512 vhi,
                                     __mmask16 k0, __mmask16 k1,
                                     short *dst)
{
    __m512 f0 = _mm512_mul_ps(
        _mm512_add_ps(_mm512_cvtepi32_ps(acc0), vb0), vm0);
    __m512 f1 = _mm512_mul_ps(
        _mm512_add_ps(_mm512_cvtepi32_ps(acc1), vb1), vm1);
    f0 = _mm512_roundscale_ps(f0, 0x08);
    f1 = _mm512_roundscale_ps(f1, 0x08);
    f0 = _mm512_min_ps(_mm512_max_ps(f0, vlo), vhi);
    f1 = _mm512_min_ps(_mm512_max_ps(f1, vlo), vhi);
    _mm512_mask_cvtepi32_storeu_epi16(dst, k0, _mm512_cvtps_epi32(f0));
    _mm512_mask_cvtepi32_storeu_epi16(dst + 16, k1, _mm512_cvtps_epi32(f1));
}

#define VNNI_GEMM_BODY(REQUANT_STORE, OUT_T)                               \
    const __m512 vlo = _mm512_set1_ps(lo), vhi = _mm512_set1_ps(hi);       \
    const __m512 vb0 = _mm512_loadu_ps(bias);                              \
    const __m512 vb1 = _mm512_loadu_ps(bias + 16);                         \
    const __m512 vm0 = _mm512_loadu_ps(mult);                              \
    const __m512 vm1 = _mm512_loadu_ps(mult + 16);                         \
    /* store masks: the first n of the 32 computed channels */             \
    const __mmask16 k0 = n >= 16 ? 0xFFFF : (__mmask16) ((1u << n) - 1);   \
    const __mmask16 k1 =                                                   \
        n <= 16 ? 0 : n >= 32 ? 0xFFFF : (__mmask16) ((1u << (n - 16)) - 1);\
    long i = 0;                                                            \
    if (n <= 16) {                                                         \
        const __m512i zero = _mm512_setzero_si512();                       \
        for (; i + 4 <= m; i += 4) {                                       \
            const unsigned *a0 = (const unsigned *) (a + (i + 0) * k4 * 4);\
            const unsigned *a1 = (const unsigned *) (a + (i + 1) * k4 * 4);\
            const unsigned *a2 = (const unsigned *) (a + (i + 2) * k4 * 4);\
            const unsigned *a3 = (const unsigned *) (a + (i + 3) * k4 * 4);\
            __m512i c0 = zero, c1 = zero, c2 = zero, c3 = zero;            \
            for (long g = 0; g < k4; ++g) {                                \
                __m512i b0 = _mm512_loadu_si512(bp + g * 64);              \
                c0 = _mm512_dpbusd_epi32(c0, _mm512_set1_epi32(a0[g]), b0);\
                c1 = _mm512_dpbusd_epi32(c1, _mm512_set1_epi32(a1[g]), b0);\
                c2 = _mm512_dpbusd_epi32(c2, _mm512_set1_epi32(a2[g]), b0);\
                c3 = _mm512_dpbusd_epi32(c3, _mm512_set1_epi32(a3[g]), b0);\
            }                                                              \
            REQUANT_STORE(c0, zero, vb0, vb1, vm0, vm1, vlo, vhi, k0, 0,   \
                          out + (i + 0) * out_stride);                     \
            REQUANT_STORE(c1, zero, vb0, vb1, vm0, vm1, vlo, vhi, k0, 0,   \
                          out + (i + 1) * out_stride);                     \
            REQUANT_STORE(c2, zero, vb0, vb1, vm0, vm1, vlo, vhi, k0, 0,   \
                          out + (i + 2) * out_stride);                     \
            REQUANT_STORE(c3, zero, vb0, vb1, vm0, vm1, vlo, vhi, k0, 0,   \
                          out + (i + 3) * out_stride);                     \
        }                                                                  \
        for (; i < m; ++i) {                                               \
            const unsigned *a0 = (const unsigned *) (a + i * k4 * 4);      \
            __m512i c0 = zero;                                             \
            for (long g = 0; g < k4; ++g)                                  \
                c0 = _mm512_dpbusd_epi32(c0, _mm512_set1_epi32(a0[g]),     \
                                         _mm512_loadu_si512(bp + g * 64)); \
            REQUANT_STORE(c0, zero, vb0, vb1, vm0, vm1, vlo, vhi, k0, 0,   \
                          out + i * out_stride);                           \
        }                                                                  \
        return;                                                            \
    }                                                                      \
    for (; i + 4 <= m; i += 4) {                                           \
        const unsigned *a0 = (const unsigned *) (a + (i + 0) * k4 * 4);    \
        const unsigned *a1 = (const unsigned *) (a + (i + 1) * k4 * 4);    \
        const unsigned *a2 = (const unsigned *) (a + (i + 2) * k4 * 4);    \
        const unsigned *a3 = (const unsigned *) (a + (i + 3) * k4 * 4);    \
        __m512i c00 = _mm512_setzero_si512(), c01 = _mm512_setzero_si512();\
        __m512i c10 = _mm512_setzero_si512(), c11 = _mm512_setzero_si512();\
        __m512i c20 = _mm512_setzero_si512(), c21 = _mm512_setzero_si512();\
        __m512i c30 = _mm512_setzero_si512(), c31 = _mm512_setzero_si512();\
        for (long g = 0; g < k4; ++g) {                                    \
            __m512i b0 = _mm512_loadu_si512(bp + g * 128);                 \
            __m512i b1 = _mm512_loadu_si512(bp + g * 128 + 64);            \
            __m512i v0 = _mm512_set1_epi32(a0[g]);                         \
            __m512i v1 = _mm512_set1_epi32(a1[g]);                         \
            __m512i v2 = _mm512_set1_epi32(a2[g]);                         \
            __m512i v3 = _mm512_set1_epi32(a3[g]);                         \
            c00 = _mm512_dpbusd_epi32(c00, v0, b0);                        \
            c01 = _mm512_dpbusd_epi32(c01, v0, b1);                        \
            c10 = _mm512_dpbusd_epi32(c10, v1, b0);                        \
            c11 = _mm512_dpbusd_epi32(c11, v1, b1);                        \
            c20 = _mm512_dpbusd_epi32(c20, v2, b0);                        \
            c21 = _mm512_dpbusd_epi32(c21, v2, b1);                        \
            c30 = _mm512_dpbusd_epi32(c30, v3, b0);                        \
            c31 = _mm512_dpbusd_epi32(c31, v3, b1);                        \
        }                                                                  \
        REQUANT_STORE(c00, c01, vb0, vb1, vm0, vm1, vlo, vhi, k0, k1,      \
                      out + (i + 0) * out_stride);                         \
        REQUANT_STORE(c10, c11, vb0, vb1, vm0, vm1, vlo, vhi, k0, k1,      \
                      out + (i + 1) * out_stride);                         \
        REQUANT_STORE(c20, c21, vb0, vb1, vm0, vm1, vlo, vhi, k0, k1,      \
                      out + (i + 2) * out_stride);                         \
        REQUANT_STORE(c30, c31, vb0, vb1, vm0, vm1, vlo, vhi, k0, k1,      \
                      out + (i + 3) * out_stride);                         \
    }                                                                      \
    for (; i < m; ++i) {                                                   \
        const unsigned *a0 = (const unsigned *) (a + i * k4 * 4);          \
        __m512i c0 = _mm512_setzero_si512(), c1 = _mm512_setzero_si512();  \
        for (long g = 0; g < k4; ++g) {                                    \
            __m512i v0 = _mm512_set1_epi32(a0[g]);                         \
            c0 = _mm512_dpbusd_epi32(                                      \
                c0, v0, _mm512_loadu_si512(bp + g * 128));                 \
            c1 = _mm512_dpbusd_epi32(                                      \
                c1, v0, _mm512_loadu_si512(bp + g * 128 + 64));            \
        }                                                                  \
        REQUANT_STORE(c0, c1, vb0, vb1, vm0, vm1, vlo, vhi, k0, k1,        \
                      out + i * out_stride);                               \
    }

void gemm_requant_u8s8(const unsigned char *a, long m, long k4,
                       const signed char *bp, long n,
                       const float *bias, const float *mult,
                       float lo, float hi,
                       signed char *out, long out_stride)
{
    VNNI_GEMM_BODY(requant_store_q8, signed char)
}

void gemm_requant_u8s8_o16(const unsigned char *a, long m, long k4,
                           const signed char *bp, long n,
                           const float *bias, const float *mult,
                           float lo, float hi,
                           short *out, long out_stride)
{
    VNNI_GEMM_BODY(requant_store_q16, short)
}
#else
int have_vnni(void) { return 0; }
#endif

/* Border clamp of a floored sample coordinate, in double so no finite
 * value overflows the conversion; NaN clamps to 0 (its weights are NaN,
 * so the output is NaN whichever corner is read). */
static inline long clamp_index(double v, long extent)
{
    if (!(v > 0.0))
        return 0;
    if (v > (double) (extent - 1))
        return extent - 1;
    return (long) v;
}

/* Bilinear AMC warp (paper §III-B) of a batch of stored activations.
 *
 * Reproduces, operation for operation, the NumPy expression of
 * repro.core.warp._warp_numpy: sample = grid + field in double, the
 * floored corner and its border-clamped neighbours, double weights
 * (1-fy)*(1-fx), (1-fy)*fx, fy*(1-fx) and fy*fx, the weighted sum
 * ((v00*w00 + v01*w01) + v10*w10) + v11*w11 in double, then one
 * rounding to the activation type.  -ffp-contract=off keeps each
 * multiply and add separately rounded, as NumPy computes them.
 *
 * act, out: (n, channels, height, width); fields: (n, height, width, 2)
 * backward (dy, dx) vectors in activation units.
 */
#define WARP_BILINEAR(NAME, T)                                              \
void NAME(long n, const T *act, const double *fields, T *out,               \
          long channels, long height, long width)                           \
{                                                                           \
    long plane = height * width;                                            \
    for (long b = 0; b < n; ++b) {                                          \
        const T *a = act + b * channels * plane;                            \
        T *o = out + b * channels * plane;                                  \
        const double *f = fields + b * plane * 2;                           \
        for (long p = 0; p < plane; ++p) {                                  \
            double sy = (double) (p / width) + f[2 * p];                    \
            double sx = (double) (p % width) + f[2 * p + 1];                \
            double y0 = floor(sy), x0 = floor(sx);                          \
            double fy = sy - y0, fx = sx - x0;                              \
            long r0 = clamp_index(y0, height) * width;                      \
            long r1 = clamp_index(y0 + 1.0, height) * width;                \
            long c0 = clamp_index(x0, width);                               \
            long c1 = clamp_index(x0 + 1.0, width);                         \
            double w00 = (1.0 - fy) * (1.0 - fx);                           \
            double w01 = (1.0 - fy) * fx;                                   \
            double w10 = fy * (1.0 - fx);                                   \
            double w11 = fy * fx;                                           \
            for (long c = 0; c < channels; ++c) {                           \
                const T *ac = a + c * plane;                                \
                o[c * plane + p] = (T) (                                    \
                    (((double) ac[r0 + c0] * w00                            \
                      + (double) ac[r0 + c1] * w01)                         \
                     + (double) ac[r1 + c0] * w10)                          \
                    + (double) ac[r1 + c1] * w11);                          \
            }                                                               \
        }                                                                   \
    }                                                                       \
}

WARP_BILINEAR(warp_bilinear_f64, double)
WARP_BILINEAR(warp_bilinear_f32, float)
"""

#: ``-ffp-contract=off``: GCC would otherwise fuse ``a*b + c`` into one
#: FMA (one rounding instead of two) and break bit-identity with the
#: NumPy twins — the warp's weighted sum is exactly that shape.  The
#: direct convolution's FMAs are explicit (``_mm512_fmadd_pd``,
#: ``_mm256_fmadd_pd``, ``fma``), which the flag leaves alone.
_CFLAGS = ["-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC"]

_CACHE_DIR = os.path.join(
    os.path.dirname(__file__), "..", "..", "..", ".cache", "kernels"
)

#: tri-state: None = not attempted yet, False = unavailable, else SADKernel.
_STATE: Optional[object] = None


class KernelFallbackWarning(RuntimeWarning):
    """A compiled entry point is unavailable and its NumPy twin runs in
    its place; results are identical, only the speed differs."""


def addr(array: np.ndarray) -> int:
    """Base address of ``array``'s buffer: what every pointer argument of
    a kernel entry point takes.

    Taking it costs about a microsecond, so hot paths take the addresses
    of their persistent buffers once, when they allocate them, and
    retake them on every reallocation.  A leading-axis view ``buf[:B]``
    shares its base's address.
    """
    return array.ctypes.data


_P, _L = ctypes.c_void_p, ctypes.c_long
_F, _D = ctypes.c_float, ctypes.c_double
_REQUANT_F = [_P, _L, _L, _P, _P, _F, _F, _P]
_QUANTIZE = [_P, _L, _F, _F, _F, _P]
_WARP = [_L, _P, _P, _P, _L, _L, _L]
_GEMM = [_P, _L, _L, _P, _L, _P, _P, _F, _F, _P, _L]

#: ctypes argtypes of every exported entry point, in the C parameter
#: order (see the C source for shapes and dtypes).  Arrays travel as raw
#: base addresses (:func:`addr`) through ``c_void_p``, sizes as ``long``.
_SIGNATURES = {
    "rfbme_batch": [_L, _P, _P, _P],
    "im2col": [_P, _P, _P, _P],
    "conv_chain_f64": [_P, _L, _P, _P, _P],
    "requant_rows_q8": _REQUANT_F,
    "requant_rows_q16f": _REQUANT_F,
    "requant_rows_q16": [_P, _L, _L, _P, _P, _D, _D, _P],
    "quantize_q8": _QUANTIZE,
    "quantize_q16": _QUANTIZE,
    "warp_bilinear_f64": _WARP,
    "warp_bilinear_f32": _WARP,
}

#: the AVX512-VNNI GEMMs, exported only where the ISA compiled in.
_VNNI_SIGNATURES = {
    "gemm_requant_u8s8": _GEMM,
    "gemm_requant_u8s8_o16": _GEMM,
}


class SADKernel:
    """The compiled entry points, bound by ctypes.

    Each C function in :data:`_SIGNATURES` is an attribute of the same
    name, called with its C parameters: sizes as numbers, every array as
    its :func:`addr`.  The caller owns the checks that C cannot make —
    dtype, C-contiguity and extent of every buffer — and keeps each
    buffer alive while its address is in use.
    """

    def __init__(self, lib: ctypes.CDLL):
        for name, argtypes in _SIGNATURES.items():
            self._bind(lib, name, argtypes)
        self.rfbme_batch.restype = ctypes.c_long
        self.im2col.restype = ctypes.c_long
        self.conv_chain_f64.restype = ctypes.c_long
        lib.have_vnni.restype = ctypes.c_int
        #: AVX512-VNNI int8 GEMM compiled in?  The quantized lanes route
        #: through ``gemm_requant_u8s8`` only when true; the math is
        #: identical either way (integer-exact), only the speed differs.
        self.has_vnni = bool(lib.have_vnni())
        if self.has_vnni:
            for name, argtypes in _VNNI_SIGNATURES.items():
                self._bind(lib, name, argtypes)
        #: compiled bilinear warp passed its own self-check?  Set by
        #: :func:`get_kernel`; when false only the warp runs its NumPy
        #: twin, every other entry point stays compiled.
        self.has_warp = False
        #: compiled integer im2col passed its own self-check?  Same
        #: rule: when false only the integer convolutions' im2col runs
        #: its NumPy twin (:func:`im2col_numpy`).
        self.has_im2col = False
        #: compiled float read-in (bias, ReLU, first-max pool, (c, ky,
        #: kx) columns) passed its own self-check?  When false only the
        #: float convolutions' read-in runs its NumPy twin.
        self.has_float_im2col = False
        #: compiled direct float64 convolution (``conv_chain_f64``)
        #: matched an exact reference in both summation orders?  When
        #: false every float chain keeps the read-in + BLAS GEMM path.
        self.has_float_direct = False

    def _bind(self, lib: ctypes.CDLL, name: str, argtypes) -> None:
        fn = getattr(lib, name)
        fn.restype = None
        fn.argtypes = argtypes
        setattr(self, name, fn)

    def supports(self, tile: int) -> bool:
        return 1 <= tile <= MAX_TILE


def _numpy_reference(
    pad: np.ndarray, cur: np.ndarray, tile: int, offsets: np.ndarray, radius: int
) -> np.ndarray:
    """The canonical NumPy tile-sum the kernels must match bit-for-bit."""
    n_off = len(offsets)
    n_ty = cur.shape[0] // tile
    n_tx = cur.shape[1] // tile
    out = np.empty((n_off, n_off, n_ty, n_tx))
    blocks = np.empty((n_ty, n_tx, tile, tile))
    cur_tiles = (
        cur[: n_ty * tile, : n_tx * tile]
        .reshape(n_ty, tile, n_tx, tile)
        .transpose(0, 2, 1, 3)
    )
    for oi, dy in enumerate(offsets):
        for oj, dx in enumerate(offsets):
            shifted = pad[
                radius + dy : radius + dy + n_ty * tile,
                radius + dx : radius + dx + n_tx * tile,
            ]
            key_tiles = shifted.reshape(n_ty, tile, n_tx, tile).transpose(0, 2, 1, 3)
            np.subtract(cur_tiles, key_tiles, out=blocks)
            np.abs(blocks, out=blocks)
            out[oi, oj] = blocks.sum(axis=-2).sum(axis=-1)
    return out


def producer_bounds(
    shape: Tuple[int, int], tile: int, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(row_lo, row_hi, col_lo, col_hi) in-bounds offset index windows.

    Tile ``t`` along an axis of extent ``ext`` is fully inside the
    shifted key frame exactly for offsets in [-t*tile, ext-(t+1)*tile] —
    the same predicate as the engine's validity mask, expressed as a
    contiguous index interval so the producer can skip invalid work.
    """
    height, width = shape

    def axis(ext: int) -> Tuple[np.ndarray, np.ndarray]:
        count = ext // tile
        lo = np.array(
            [np.searchsorted(offsets, -t * tile, side="left") for t in range(count)],
            dtype=np.int64,
        )
        hi = np.array(
            [
                np.searchsorted(offsets, ext - (t + 1) * tile, side="right")
                for t in range(count)
            ],
            dtype=np.int64,
        )
        return lo, hi

    row_lo, row_hi = axis(height)
    col_lo, col_hi = axis(width)
    return row_lo, row_hi, col_lo, col_hi


def _conv_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def first_max_pool(x: np.ndarray, field: int, step: int) -> np.ndarray:
    """Max-pool an (N, C, H, W) array the way the training path does.

    Each window keeps its first maximum in row-major order: a later
    element replaces the running one only when strictly greater, or when
    it is the window's first NaN -- the element ``np.argmax`` picks.
    ``np.maximum`` would return its second operand on a ``-0.0``/``0.0``
    tie and flip the sign of a pooled zero.  Returns a new array.
    """
    windows = sliding_window_view(x, (field, field), axis=(2, 3))[
        :, :, ::step, ::step
    ]
    out = windows[..., 0, 0].copy()
    for fy in range(field):
        for fx in range(field):
            if fy or fx:
                v = windows[..., fy, fx]
                np.copyto(out, v, where=~(v <= out) & (out == out))
    return out


def im2col_numpy(src, pool, k, stride, pad, out, bias=None,
                 relu=False) -> None:
    """NumPy twin of the compiled im2col (``im2col``).

    ``src`` is a (B, C, H, W) array in any memory layout (typically an
    NCHW view of a conv's NHWC output).  A float ``src`` first takes the
    previous conv's pending ``bias`` (shape ``(C,)``, or None) and, with
    ``relu``, ``v * (v > 0)``; ``pool`` is ``(field, stride)`` of a
    max-pool applied next (:func:`first_max_pool`), or None.  Row ``(b,
    oy, ox)`` of ``out`` (shape ``(B * out_h * out_w, ld)``) receives the
    ``k x k`` window at ``(oy, ox)`` of the zero-padded input: in (c, ky,
    kx) order for float sources -- the training path's im2col -- and in
    (ky, kx, c) order for int8/int16 raws, where a uint8 ``out`` holds
    raw + 128 (the VNNI operand) and a float ``out`` the raws themselves.
    Columns from ``k*k*C`` on are left as they are.  ``k == 0`` (float
    only) writes the logical input itself into an NCHW ``out``.  Built
    on sliding-window views: no index array, same bits as the compiled
    pass.
    """
    x = src
    if bias is not None:
        x = x + bias[:, None, None]
    if relu:
        x = x * (x > 0)
    if pool is not None:
        x = first_max_pool(x, *pool)
    if k == 0:
        np.copyto(out, x)
        return
    b, c, h, w = x.shape
    if x.dtype.kind == "f":
        padded = np.zeros((b, c, h + 2 * pad, w + 2 * pad), out.dtype)
        padded[:, :, pad : pad + h, pad : pad + w] = x
        windows = sliding_window_view(padded, (k, k), axis=(2, 3))[
            :, :, ::stride, ::stride
        ].transpose(0, 2, 3, 1, 4, 5)
    else:
        x = x.transpose(0, 2, 3, 1)
        zero = 0
        if out.dtype == np.uint8:
            x = x.view(np.uint8) ^ np.uint8(0x80)  # int8 raw + 128
            zero = 0x80
        padded = np.full((b, h + 2 * pad, w + 2 * pad, c), zero, out.dtype)
        padded[:, pad : pad + h, pad : pad + w] = x
        windows = sliding_window_view(padded, (k, k), axis=(1, 2))[
            :, ::stride, ::stride
        ].transpose(0, 1, 2, 4, 5, 3)
    out[:, : k * k * c] = windows.reshape(out.shape[0], k * k * c)


#: numpy twin of C ``long``, the element type of an im2col geometry.
_LONG = np.dtype(f"i{ctypes.sizeof(ctypes.c_long)}")


def im2col_geometry(shape, strides, item, pool, k, stride, pad, out_item,
                    ld=0, relu=False) -> np.ndarray:
    """The geometry argument of the compiled ``im2col``.

    ``shape`` is the (B, C, H, W) source shape and ``strides`` its
    strides in elements; ``item`` and ``out_item`` are the source and
    output item sizes.  Callers that read the same layout on every call
    (the float lanes' per-sample read-ins) build it once and pass its
    :func:`addr`.
    """
    batch, c, h, w = shape
    sb, sc, sy, sx = strides
    pf, ps = pool if pool is not None else (1, 1)
    h, w = _conv_size(h, pf, ps, 0), _conv_size(w, pf, ps, 0)
    out_h, out_w = (
        (h, w) if k == 0
        else (_conv_size(h, k, stride, pad), _conv_size(w, k, stride, pad))
    )
    return np.array(
        [item, out_item, sb, sy, sx, sc, pf, ps, h, w, c, k, stride, pad,
         out_h, out_w, batch, ld, int(relu)],
        dtype=_LONG,
    )


def im2col_compiled(kernel: "SADKernel", src, pool, k, stride, pad, out,
                    bias=None, relu=False) -> None:
    """The compiled im2col, same arguments as :func:`im2col_numpy`.

    ``src`` may have any non-negative strides; ``out`` must be
    C-contiguous with ``B * out_h * out_w`` rows of uint8 (int8 ``src``
    only), float32 or float64 -- ``src``'s own type for a float ``src``
    -- or, with ``k == 0``, the (B, C, out_h, out_w) pooled input.
    """
    item = src.itemsize
    strides = tuple(s // item for s in src.strides)
    geometry = im2col_geometry(
        src.shape, strides, item, pool, k, stride, pad, out.itemsize,
        out.shape[-1] if out.ndim == 2 else 0, relu,
    )
    batch, c = src.shape[:2]
    out_h, out_w = int(geometry[14]), int(geometry[15])
    want = (
        (batch, c, out_h, out_w) if k == 0
        else (batch * out_h * out_w, k * k * c)
    )
    if (
        not out.flags.c_contiguous
        or out.shape[0] != want[0]
        or (k == 0 and out.shape != want)
        or (k > 0 and (out.ndim != 2 or out.shape[1] < want[1]))
    ):
        raise ValueError(
            f"im2col output must be C-contiguous with {want[0]} rows of at "
            f"least {want[1]} columns (or shape {want} when k == 0), got "
            f"{out.shape}"
        )
    if bias is not None:
        bias = np.ascontiguousarray(bias, dtype=src.dtype)
    status = kernel.im2col(
        addr(src), addr(geometry), None if bias is None else addr(bias),
        addr(out),
    )
    if status != 0:
        raise ValueError(
            f"compiled im2col failed: {src.dtype} -> {out.dtype} is not a "
            "supported pair, or its row ring could not be allocated"
        )


#: summation orders of the direct float64 convolution, in the numbering
#: ``conv_chain_f64`` takes (see its C comment)
DIRECT_ORDERS = ("sequential", "k-residue")


class DirectConv(NamedTuple):
    """One convolution of a direct float64 chain (``conv_chain_f64``):
    its logical input ``(c, h, w)`` -- after the pool read in before it --
    kernel ``k``, ``stride``, ``pad``, ``n`` output channels and summation
    ``order``, one of :data:`DIRECT_ORDERS`."""

    c: int
    h: int
    w: int
    k: int
    stride: int
    pad: int
    n: int
    order: str

    @property
    def out_hw(self) -> Tuple[int, int]:
        return (_conv_size(self.h, self.k, self.stride, self.pad),
                _conv_size(self.w, self.k, self.stride, self.pad))

    def scratch(self):
        """``(block, plane, raw, panel, parts)``: the buffers
        ``conv_chain_f64`` works in -- the zero-padded input plane, the
        (rows, n) raw output, the weight panel and, in the k-residue
        order only (else None), the eight partial sums -- as views of one
        zeroed ``block``, each starting on a 64-byte line so that no
        vector load or store of a whole panel or output row straddles
        two.  The kernel never writes the plane's border nor the panel's
        channels past ``n``."""
        out_h, out_w = self.out_hw
        rows = out_h * out_w
        shapes = [
            (self.h + 2 * self.pad, self.w + 2 * self.pad, self.c),
            (rows, self.n),
            (self.c * self.k * self.k, -(-self.n // 8) * 8),
        ] + ([(8, rows, self.n)] if self.order == "k-residue" else [])
        sizes = [-(-math.prod(shape) // 8) * 8 for shape in shapes]
        block = np.zeros(sum(sizes) + 8)
        at = -addr(block) % 64 // block.itemsize
        views = []
        for shape, size in zip(shapes, sizes):
            views.append(block[at : at + math.prod(shape)].reshape(shape))
            at += size
        if self.order != "k-residue":
            views.append(None)
        return (block, *views)


def direct_chain_geometry(x_strides, convs, links, tail) -> np.ndarray:
    """The geometry argument of ``conv_chain_f64``.

    ``x_strides`` are the range input's (batch, channel, row, column)
    strides in elements, ``convs`` the chain's :class:`DirectConv`\\ s,
    ``links[i]`` the ``(relu, pool)`` read in before ``convs[i]`` and
    ``tail`` the one applied as the last conv's output is written.
    """
    sb, sc, sy, sx = x_strides
    src = (sy, sx, sc)
    rows = [len(convs), sb, 0]
    for conv, (relu, pool) in zip(convs, links):
        pf, ps = pool if pool is not None else (1, 1)
        out_h, out_w = conv.out_hw
        rows += [
            *src, pf, ps, conv.h, conv.w, conv.c, int(relu),
            conv.k, conv.stride, conv.pad, out_h, out_w, conv.n,
            -(-conv.n // 8) * 8, DIRECT_ORDERS.index(conv.order),
        ]
        src = (out_w * conv.n, conv.n, 1)
    relu, pool = tail
    pf, ps = pool if pool is not None else (1, 1)
    out_h, out_w = convs[-1].out_hw
    h, w = _conv_size(out_h, pf, ps, 0), _conv_size(out_w, pf, ps, 0)
    rows[2] = convs[-1].n * h * w
    rows += [*src, pf, ps, h, w, convs[-1].n, int(relu)]
    return np.array(rows, dtype=_LONG)


def direct_pointers(weights, biases, scratch) -> np.ndarray:
    """The pointer argument of ``conv_chain_f64``: per conv its weight,
    pending bias (None: none) and :meth:`DirectConv.scratch` buffers."""
    table = np.zeros(6 * len(scratch), dtype=np.uintp)
    for i, (weight, bias, (_, *buffers)) in enumerate(
        zip(weights, biases, scratch)
    ):
        table[6 * i : 6 * i + 6] = [
            0 if array is None else addr(array)
            for array in (weight, bias, *buffers)
        ]
    return table


def conv_chain_compiled(kernel: "SADKernel", x, convs, weights, biases,
                        links, tail) -> np.ndarray:
    """``conv_chain_f64`` on fresh scratch: the (B, n, h, w) result of
    the float64 range input ``x`` through ``convs`` (with the links and
    tail of :func:`direct_chain_geometry`).  ``weights[i]`` is the
    (n, c, k, k) weight of ``convs[i]`` and ``biases[i]`` the bias added
    as its output is read (None: none)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    weights = [np.ascontiguousarray(w, dtype=np.float64) for w in weights]
    biases = [
        None if b is None else np.ascontiguousarray(b, dtype=np.float64)
        for b in biases
    ]
    # the kernel reads every extent below through raw addresses
    pf, ps = links[0][1] or (1, 1)
    fits = x.ndim == 4 and (x.shape[1],) + tuple(
        _conv_size(size, pf, ps, 0) for size in x.shape[2:]
    ) == (convs[0].c, convs[0].h, convs[0].w)
    for conv, weight, bias in zip(convs, weights, biases):
        fits = fits and weight.shape == (conv.n, conv.c, conv.k, conv.k)
        fits = fits and (bias is None or bias.shape == (conv.n,))
    if not fits:
        raise ValueError("input, weights or biases do not fit the chain")
    geometry = direct_chain_geometry(
        [s // x.itemsize for s in x.strides], convs, links, tail
    )
    scratch = [conv.scratch() for conv in convs]
    table = direct_pointers(weights, biases, scratch)
    c, h, w = convs[-1].n, int(geometry[-4]), int(geometry[-3])
    out = np.empty((x.shape[0], c, h, w))
    if kernel.conv_chain_f64(addr(x), x.shape[0], addr(geometry),
                             addr(table), addr(out)):
        raise MemoryError("conv_chain_f64 could not allocate its scratch")
    return out


def blas_conv_order(kernel: "SADKernel", conv: DirectConv) -> Optional[str]:
    """The order in which numpy's matmul sums ``conv``'s GEMM as the
    training path issues it -- contiguous im2col rows times the
    ``w_mat.T`` view -- when it is one the direct kernel computes:
    ``"sequential"`` or ``"k-residue"``, else None.  ``conv.order`` is
    ignored.

    Compares bytes on a random probe at the conv's own shape, with 40%
    zeros, a band of all-zero windows and weights of both signs.
    The answer depends on the BLAS build and the CPU, so callers cache
    it per shape per process.
    """
    rng = np.random.default_rng(20180605)
    out_h, out_w = conv.out_hw
    kk = conv.c * conv.k * conv.k
    x = rng.standard_normal((1, conv.c, conv.h, conv.w))
    x[rng.random(x.shape) < 0.4] = 0.0
    x[:, :, : conv.h // 3] = 0.0
    weight = rng.standard_normal((conv.n, conv.c, conv.k, conv.k))
    cols = np.empty((out_h * out_w, kk))
    im2col_numpy(x, None, conv.k, conv.stride, conv.pad, cols)
    want = np.matmul(cols, weight.reshape(conv.n, -1).T)
    want = want.reshape(1, out_h, out_w, conv.n).transpose(0, 3, 1, 2)
    for order in DIRECT_ORDERS:
        got = conv_chain_compiled(
            kernel, x, [conv._replace(order=order)], [weight], [None],
            [(False, None)], (False, None),
        )
        if got.tobytes() == np.ascontiguousarray(want).tobytes():
            return order
    return None


def _check_rfbme(kernel: SADKernel, rng: np.random.Generator) -> bool:
    """``rfbme_batch`` end to end against the NumPy 'batched' engine.

    On four geometries -- the zoo's 64x64 frames, then three with rows
    and columns outside the tile-aligned crop: a non-square frame, a
    4-pixel tile with a coarse search stride, and a zero search radius --
    a batch of pairs must give the engine's fields and errors bit for
    bit, ties in a pair of constant frames included; the last pair's SAD
    block must match :func:`_numpy_reference` inside every tile's offset
    window; and a NaN or infinite pixel in any frame, inside the crop or
    outside it, must come back as the index of the first offending
    (pair, key|new).  Each receptive field spans
    three tiles from the frame's origin, so fields at the grid's far
    edge span fewer tiles, and one extra row and column of fields spans
    none (zero fields and errors).
    """
    from .receptive_field import ReceptiveField
    from .rfbme import RFBMEConfig, RFBMEEngine  # rfbme imports this module

    for tile, radius, stride, shape in (
        (8, 12, 2, (64, 64)),
        (8, 8, 2, (50, 43)),
        (4, 6, 3, (35, 33)),
        (8, 0, 1, (29, 24)),
    ):
        n_ty, n_tx = shape[0] // tile, shape[1] // tile
        engine = RFBMEEngine(
            shape, ReceptiveField(size=3 * tile, stride=tile, padding=0),
            (n_ty + 1, n_tx + 1), RFBMEConfig(radius, stride),
            backend="batched",
        )
        engine._bind_geometry()
        frames = [rng.random(shape) for _ in range(6)]
        frames[2][:] = frames[3][:] = 0.5  # every candidate ties
        pairs = list(zip(frames[::2], frames[1::2]))
        got = engine._estimate_compiled(kernel, pairs)
        for a, b in zip(got, engine.estimate_batch(pairs)):
            if (a.field.data.tobytes() != b.field.data.tobytes()
                    or a.match_errors.tobytes() != b.match_errors.tobytes()):
                return False
        offsets = engine._offsets
        n_off = len(offsets)
        want = _numpy_reference(
            np.pad(frames[4], radius), frames[5], tile, offsets, radius
        ).transpose(2, 3, 0, 1)
        sad = engine._cws.sad.reshape(n_ty, n_tx, n_off, n_off)
        row_lo, row_hi, col_lo, col_hi = producer_bounds(shape, tile, offsets)
        for ty in range(n_ty):
            for tx in range(n_tx):
                window = (
                    ty, tx, slice(row_lo[ty], row_hi[ty]),
                    slice(col_lo[tx], col_hi[tx]),
                )
                if not np.array_equal(sad[window], want[window]):
                    return False
        ws = engine._cws
        for at, bad in (((1, 2), np.nan), ((-1, -1), np.inf)):
            for first in range(len(frames)):
                # a second bad pixel in the last frame must not mask the
                # first one
                probe = [frame.copy() for frame in frames]
                for index in {first, len(frames) - 1}:
                    probe[index][at] = bad
                ws.frames[: len(probe)] = [addr(frame) for frame in probe]
                if kernel.rfbme_batch(
                    len(pairs), ws.frames_addr, engine._geometry_addr,
                    ws.table_addr,
                ) != first:
                    return False
    return True


def _self_check(kernel: SADKernel) -> bool:
    """Every compiled entry point must be bit-identical to NumPy."""
    rng = np.random.default_rng(20180601)
    if not _check_rfbme(kernel, rng):
        return False
    # Requant: both the pattern-expanded fast path (cols <= 256) and the
    # wide-cols fallback must be bitwise the NumPy chain.
    def requant(fn, src, bias, mult, lo, hi, out):
        fn(addr(src), src.shape[0], src.shape[1], addr(bias), addr(mult),
           lo, hi, addr(out))

    for rows, cols in ((40, 24), (7, 300)):
        acc32 = np.ascontiguousarray(
            rng.integers(-60000, 60000, (rows, cols)).astype(np.float32)
        )
        bias32 = np.ascontiguousarray(
            rng.integers(-3000, 3000, cols).astype(np.float32)
        )
        mult32 = np.ascontiguousarray(
            (2.0 ** rng.integers(-12, -2, cols)).astype(np.float32)
        )
        want_r = np.rint((acc32 + bias32) * mult32)
        np.clip(want_r, -128, 127, out=want_r)
        got_r8 = np.empty((rows, cols), dtype=np.int8)
        requant(kernel.requant_rows_q8, acc32, bias32, mult32, -128.0, 127.0,
                got_r8)
        if not np.array_equal(got_r8, want_r.astype(np.int8)):
            return False
        np.clip(np.rint((acc32 + bias32) * mult32), -32768, 32767, out=want_r)
        got_r16f = np.empty((rows, cols), dtype=np.int16)
        requant(kernel.requant_rows_q16f, acc32, bias32, mult32, -32768.0,
                32767.0, got_r16f)
        if not np.array_equal(got_r16f, want_r.astype(np.int16)):
            return False
        acc64 = np.ascontiguousarray(
            rng.integers(-(2**28), 2**28, (rows, cols)).astype(np.float64)
        )
        bias64 = np.ascontiguousarray(
            rng.integers(-(2**20), 2**20, cols).astype(np.float64)
        )
        mult64 = np.ascontiguousarray(2.0 ** rng.integers(-20, -6, cols))
        want_r = np.rint((acc64 + bias64) * mult64)
        np.clip(want_r, -32768, 32767, out=want_r)
        got_r16 = np.empty((rows, cols), dtype=np.int16)
        requant(kernel.requant_rows_q16, acc64, bias64, mult64, -32768.0,
                32767.0, got_r16)
        if not np.array_equal(got_r16, want_r.astype(np.int16)):
            return False
    if kernel.has_vnni:
        for m, k, n in ((37, 30, 24), (8, 216, 16), (5, 4, 32), (19, 25, 8)):
            k4 = (k + 3) // 4
            a_s = rng.integers(-128, 128, (m, k)).astype(np.int8)
            w_t = rng.integers(-128, 128, (n, k)).astype(np.int8)
            bias = rng.integers(-3000, 3000, n).astype(np.float64)
            mult = (2.0 ** rng.integers(-12, -6, n)).astype(np.float32)
            a_u = np.zeros((m, k4 * 4), dtype=np.uint8)
            a_u[:, :k] = (a_s.astype(np.int16) + 128).astype(np.uint8)
            lanes = 16 if n <= 16 else 32
            wt_pad = np.zeros((lanes, k4 * 4), dtype=np.int8)
            wt_pad[:n, :k] = w_t
            bp = np.ascontiguousarray(
                wt_pad.reshape(lanes, k4, 4).transpose(1, 0, 2)
            )
            colsum = w_t.astype(np.int64).sum(axis=1)
            bias_eff = np.zeros(32, dtype=np.float32)
            bias_eff[:n] = (bias - 128.0 * colsum).astype(np.float32)
            mult_pad = np.zeros(32, dtype=np.float32)
            mult_pad[:n] = mult
            ref = a_s.astype(np.int32) @ w_t.T.astype(np.int32)
            chain = np.rint(
                (ref.astype(np.float32) + bias.astype(np.float32)) * mult
            )
            def gemm(fn, lo, hi, out):
                fn(addr(a_u), m, k4, addr(bp), n, addr(bias_eff),
                   addr(mult_pad), lo, hi, addr(out), out.shape[1])

            got_g8 = np.empty((m, n), dtype=np.int8)
            gemm(kernel.gemm_requant_u8s8, -128.0, 127.0, got_g8)
            if not np.array_equal(
                got_g8, np.clip(chain, -128, 127).astype(np.int8)
            ):
                return False
            got_g16 = np.empty((m, n), dtype=np.int16)
            gemm(kernel.gemm_requant_u8s8_o16, -32768.0, 32767.0, got_g16)
            if not np.array_equal(
                got_g16, np.clip(chain, -32768, 32767).astype(np.int16)
            ):
                return False
    act = np.ascontiguousarray((rng.random(300) * 8 - 4).astype(np.float32))
    want_q = np.clip(np.rint(act.astype(np.float64) * 32.0), -128, 127)
    got_q8 = np.empty(300, dtype=np.int8)
    kernel.quantize_q8(addr(act), act.size, 32.0, -128.0, 127.0, addr(got_q8))
    if not np.array_equal(got_q8, want_q.astype(np.int8)):
        return False
    want_q = np.clip(np.rint(act.astype(np.float64) * 4096.0), -32768, 32767)
    got_q16 = np.empty(300, dtype=np.int16)
    kernel.quantize_q16(
        addr(act), act.size, 4096.0, -32768.0, 32767.0, addr(got_q16)
    )
    if not np.array_equal(got_q16, want_q.astype(np.int16)):
        return False
    return True


def _check_warp(kernel: SADKernel) -> bool:
    """The compiled warp must match its NumPy twin bit for bit.

    Probes cover fractional, integer and negative displacements, samples
    far past every border (clamping), float64 and float32 activations,
    and one and several batch rows.
    """
    from .warp import _warp_compiled, _warp_numpy  # warp imports this module

    rng = np.random.default_rng(20180602)
    for batch, dtype in (
        (1, np.float64), (3, np.float64), (1, np.float32), (3, np.float32),
    ):
        act = rng.standard_normal((batch, 4, 5, 7)).astype(dtype)
        data = rng.uniform(-9.0, 9.0, (batch, 5, 7, 2))
        data[:, ::2] = np.rint(data[:, ::2])
        want = _warp_numpy(act, data, "bilinear", None)
        if not np.array_equal(_warp_compiled(kernel, act, data), want):
            return False
    return True


def _check_im2col(kernel: SADKernel) -> bool:
    """The compiled integer im2col must match :func:`im2col_numpy` bit
    for bit on every type pair, with and without a max-pool read in,
    from NCHW-contiguous and NHWC-backed sources, with pad columns
    (which neither side may write) between rows."""
    rng = np.random.default_rng(20180603)
    geometries = (  # c, h, w, k, stride, pad, pool
        (1, 13, 11, 5, 2, 2, None),
        (3, 10, 9, 3, 1, 1, (2, 2)),
        (5, 11, 12, 3, 2, 0, (3, 2)),
        (2, 6, 7, 1, 1, 0, None),
    )
    pairs = (
        (np.int8, np.uint8), (np.int8, np.float32), (np.int8, np.float64),
        (np.int16, np.float32), (np.int16, np.float64),
    )
    for c, h, w, k, stride, pad, pool in geometries:
        for raw, operand in pairs:
            info = np.iinfo(raw)
            nhwc = rng.integers(info.min, info.max + 1, (2, h, w, c))
            for src in (
                np.ascontiguousarray(nhwc.transpose(0, 3, 1, 2), dtype=raw),
                nhwc.astype(raw).transpose(0, 3, 1, 2),
            ):
                ph, pw = h, w
                if pool is not None:
                    ph = _conv_size(h, pool[0], pool[1], 0)
                    pw = _conv_size(w, pool[0], pool[1], 0)
                rows = 2 * _conv_size(ph, k, stride, pad) * _conv_size(
                    pw, k, stride, pad
                )
                want = np.full((rows, k * k * c + 3), 7, dtype=operand)
                got = want.copy()
                im2col_numpy(src, pool, k, stride, pad, want)
                im2col_compiled(kernel, src, pool, k, stride, pad, got)
                if not np.array_equal(got, want):
                    return False
    return True


def _check_float_im2col(kernel: SADKernel) -> bool:
    """The compiled float read-in must match :func:`im2col_numpy` bit for
    bit -- signed zeros and NaNs included -- for float64 and float32,
    with and without a pending bias, a ReLU and a max-pool, from
    NCHW-contiguous and NHWC-backed sources, with untouched pad columns
    between rows, and in rows mode (``k == 0``)."""
    rng = np.random.default_rng(20180604)
    geometries = (  # c, h, w, k, stride, pad, pool
        (1, 13, 11, 5, 2, 2, None),
        (3, 10, 9, 3, 1, 1, (2, 2)),
        (5, 11, 12, 3, 2, 0, (3, 2)),
        (2, 6, 7, 1, 1, 0, None),
        (4, 8, 10, 0, 1, 0, (2, 2)),
        (3, 5, 6, 0, 1, 0, None),
    )
    for c, h, w, k, stride, pad, pool in geometries:
        for dtype in (np.float64, np.float32):
            nhwc = rng.standard_normal((2, h, w, c)).astype(dtype)
            # zeros of both signs (negatives turn into -0.0 under the
            # ReLU) make pooled ties; a NaN must win its window once
            flat = nhwc.reshape(-1)
            flat[rng.random(flat.size) < 0.3] = 0.0
            flat[rng.random(flat.size) < 0.3] = -0.0
            flat[rng.integers(flat.size)] = np.nan
            bias = rng.standard_normal(c).astype(dtype)
            bias[0] = 0.0
            for src in (
                np.ascontiguousarray(nhwc.transpose(0, 3, 1, 2)),
                nhwc.transpose(0, 3, 1, 2),
            ):
                ph, pw = h, w
                if pool is not None:
                    ph = _conv_size(h, pool[0], pool[1], 0)
                    pw = _conv_size(w, pool[0], pool[1], 0)
                if k == 0:
                    shape = (2, c, ph, pw)
                else:
                    shape = (
                        2 * _conv_size(ph, k, stride, pad)
                        * _conv_size(pw, k, stride, pad),
                        k * k * c + 3,
                    )
                for pending, relu in ((None, False), (bias, True),
                                      (bias, False), (None, True)):
                    want = np.full(shape, 7, dtype=dtype)
                    got = want.copy()
                    im2col_numpy(src, pool, k, stride, pad, want,
                                 pending, relu)
                    im2col_compiled(kernel, src, pool, k, stride, pad, got,
                                    pending, relu)
                    if got.tobytes() != want.tobytes():
                        return False
    return True


def _fma_exact(a, b, c: float) -> float:
    """``a * b + c`` rounded once, without the FPU: exact integer
    arithmetic on the power-of-two ratios ``a`` and ``b`` (from
    ``float.as_integer_ratio``) and ``c``'s, then CPython's correctly
    rounded integer division (an exact zero is ``+0.0``)."""
    (na, da), (nb, db) = a, b
    nc, dc = c.as_integer_ratio()
    return (na * nb * dc + nc * da * db) / (da * db * dc)


def _exact_gemm(cols: np.ndarray, weight: np.ndarray, order: str):
    """``cols @ w_mat.T`` summed exactly in ``order`` (see the C comment
    of ``conv_chain_f64``)."""
    def ratios(matrix):
        return [[v.as_integer_ratio() for v in row] for row in matrix]

    w_rows = ratios(weight.reshape(weight.shape[0], -1).tolist())
    lanes = 8 if order == "k-residue" else 1
    out = np.empty((cols.shape[0], len(w_rows)))
    for m, row in enumerate(ratios(cols.tolist())):
        for j, w_row in enumerate(w_rows):
            acc = [0.0] * lanes
            for t, (a, b) in enumerate(zip(row, w_row)):
                acc[t % lanes] = _fma_exact(a, b, acc[t % lanes])
            out[m, j] = acc[0] if lanes == 1 else (
                ((acc[0] + acc[1]) + (acc[2] + acc[3]))
                + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
            )
    return out


def _check_float_direct(kernel: SADKernel) -> bool:
    """The direct float64 chain must equal an exact, BLAS-independent
    reference bit for bit in both summation orders: its read-ins
    (:func:`im2col_numpy`'s bias, ReLU and first-max pool, zeros of both
    signs in the input), a stride-2 conv, channel counts whose last group
    of eight is partial (the masked tail) at one to four groups, and
    reduction depths that are no multiple of eight.  The reference covers
    the first of two samples; the second must match the same chain run
    on it alone."""
    rng = np.random.default_rng(20180605)
    x = rng.standard_normal((2, 2, 7, 7))
    flat = x.reshape(-1)
    flat[rng.random(flat.size) < 0.3] = 0.0
    flat[rng.random(flat.size) < 0.3] = -0.0
    # After the first read-in's ReLU and pool, the first conv's corner
    # windows hold only +0.0 (top left) or only -0.0 (bottom right), and
    # its channel 0 (1) has only negative (positive) weights: sums of
    # -0.0 products alone, which are +0.0 from a +0.0 start.
    x[:, :, :3, :3] = 0.0
    x[:, :, 3:, 3:] = -1.0
    shapes = (  # c, h, w, k, stride, pad, n
        (2, 6, 6, 3, 2, 1, 9), (9, 2, 2, 1, 1, 0, 27), (27, 1, 1, 1, 1, 0, 20),
    )
    links = [(True, (2, 1)), (True, (2, 1)), (False, (2, 2))]
    tail = (True, None)
    weights = [rng.standard_normal((s[6], s[0], s[3], s[3])) for s in shapes]
    weights[0][0], weights[0][1] = -abs(weights[0][0]), abs(weights[0][1])
    biases = [rng.standard_normal(s[6]) for s in shapes]
    biases[0][0] = 0.0
    for order in DIRECT_ORDERS:
        convs = [DirectConv(*shape, order) for shape in shapes]
        got = conv_chain_compiled(kernel, x, convs, weights, biases, links,
                                  tail)
        alone = conv_chain_compiled(kernel, x[1:], convs, weights, biases,
                                    links, tail)
        # the first conv without a bias: its sums' own bits
        first = conv_chain_compiled(kernel, x[:1], convs[:1], weights[:1],
                                    [None], links[:1], (False, None))
        if got[1:].tobytes() != alone.tobytes():
            return False
        src, bias = x[:1], None
        for conv, (relu, pool), weight, conv_bias in zip(
            convs, links, weights, biases
        ):
            out_h, out_w = conv.out_hw
            cols = np.empty((out_h * out_w, conv.c * conv.k * conv.k))
            im2col_numpy(src, pool, conv.k, conv.stride, conv.pad, cols,
                         bias, relu)
            raw = _exact_gemm(cols, weight, order)
            src = raw.reshape(1, out_h, out_w, conv.n).transpose(0, 3, 1, 2)
            if conv is convs[0] and first.tobytes() != (
                np.ascontiguousarray(src).tobytes()
            ):
                return False
            bias = conv_bias
        want = np.empty((1,) + got.shape[1:])
        im2col_numpy(src, tail[1], 0, 1, 0, want, bias, tail[0])
        if got[:1].tobytes() != want.tobytes():
            return False
    return True


def _cpu_identity() -> str:
    """A string that changes when the host ISA does.

    ``-march=native`` bakes the build host's instruction set into the
    binary, so a cached .so carried to a different CPU (container image,
    shared checkout) could SIGILL past every try/except.  Keying the
    cache on the CPU's advertised flags forces a recompile instead.
    """
    identity = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    identity += " " + line
                    break
    except OSError:
        identity += " " + platform.processor()
    return identity


def _compile() -> Tuple[Optional[str], Optional[str]]:
    """Compile the kernels into the on-disk cache.

    Returns ``(path to the .so, None)``, or ``(None, why the build
    failed)``; ``(None, None)`` when there is no C compiler at all.
    """
    tag = hashlib.sha256(
        (_SOURCE + " ".join(_CFLAGS) + _cpu_identity()).encode()
    ).hexdigest()[:16]
    cache_dir = os.path.abspath(_CACHE_DIR)
    lib_path = os.path.join(cache_dir, f"sad-{tag}.so")
    if os.path.exists(lib_path):
        return lib_path, None
    if shutil.which("cc") is None:
        return None, None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
            src = os.path.join(tmp, "sad.c")
            with open(src, "w") as handle:
                handle.write(_SOURCE)
            built = os.path.join(tmp, "sad.so")
            subprocess.run(
                ["cc", *_CFLAGS, "-o", built, src],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(built, lib_path)  # atomic under concurrent builds
        return lib_path, None
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.decode(errors="replace").strip().splitlines()
        return None, f"cc exited {exc.returncode}: {lines[0] if lines else ''}"
    except (OSError, subprocess.SubprocessError) as exc:
        return None, str(exc)


def _load() -> Tuple[Optional[SADKernel], Optional[str]]:
    """Build, load and self-check the kernel: ``(kernel or None, what
    failed or None)``.  A missing compiler is not a failure."""
    lib_path, error = _compile()
    if lib_path is None:
        if error is None:
            return None, None
        return None, f"compiled kernels failed to build ({error})"
    try:
        kernel = SADKernel(ctypes.CDLL(lib_path))
    except (OSError, AttributeError) as exc:
        return None, f"compiled kernels failed to load ({exc})"
    if not _self_check(kernel):
        return None, "compiled kernels failed their self-check"
    kernel.has_warp = _check_warp(kernel)
    kernel.has_im2col = _check_im2col(kernel)
    kernel.has_float_im2col = _check_float_im2col(kernel)
    kernel.has_float_direct = _check_float_direct(kernel)
    failed = [
        name for name, ok in (
            ("AMC warp", kernel.has_warp),
            ("integer im2col", kernel.has_im2col),
            ("float im2col", kernel.has_float_im2col),
            ("float direct convolution", kernel.has_float_direct),
        ) if not ok
    ]
    if not failed:
        return kernel, None
    return kernel, (
        f"compiled {' and '.join(failed)} failed "
        f"{'its' if len(failed) == 1 else 'their'} own self-check "
        "(the rest stays compiled)"
    )


def get_kernel() -> Optional[SADKernel]:
    """The compiled kernel, or None when disabled or unavailable.

    The first call builds and checks it.  Anything that fails there —
    the build, the load, the self-check, or one of the entry points that
    check on their own — emits one :class:`KernelFallbackWarning` naming
    what failed; the failed parts then run their NumPy twins.  The
    deliberate opt-outs (``REPRO_FORCE_NUMPY=1``, ``REPRO_SAD_KERNEL=0``)
    and a host without a C compiler stay silent.
    """
    global _STATE
    if _STATE is None:
        _STATE = False
        disabled = (
            os.environ.get("REPRO_SAD_KERNEL", "1") == "0"
            or os.environ.get("REPRO_FORCE_NUMPY", "0") == "1"
        )
        if not disabled:
            kernel, failed = _load()
            if failed is not None:
                warnings.warn(
                    f"{failed}; the affected paths run their NumPy twins "
                    "(results are identical, only slower)",
                    KernelFallbackWarning,
                    stacklevel=2,
                )
            if kernel is not None:
                _STATE = kernel
    return _STATE if isinstance(_STATE, SADKernel) else None


def kernel_available() -> bool:
    return get_kernel() is not None
