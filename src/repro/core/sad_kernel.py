"""Optional compiled tile-SAD kernel for the RFBME producer — paper §III-A1.

The RFBME producer's inner loop (one absolute tile difference per
(tile, search offset) pair, Fig. 8 "diff tile producer") is pure
element-wise arithmetic and dominates host runtime.  NumPy needs three
memory passes (subtract, abs, reduce); the C kernels here fuse them into
one.  This module compiles the kernels with the system C compiler on first
use and loads them through :mod:`ctypes`.

The entry points share one shared object:

* ``tile_sad_grid_batch`` — the fast producer over a whole lockstep
  batch of frame pairs.  Keeps the current frame's tile rows in
  registers across every search offset (8-wide AVX-512 column
  accumulators where the ISA allows, the same scalar loop elsewhere),
  computes only each tile's in-bounds offset window, and writes
  *grid-major* output — ``out[ty][tx][oi][oj]`` — which is exactly the
  layout the consumer reads, so no transpose pass sits between producer
  and consumer.
* ``rfbme_consume`` — the whole RFBME consumer (integral images, box
  sums, candidate-masked argmin, match errors) over a producer-output
  batch.
* ``gather_rows`` — the flat im2col gather behind the planned CNN
  inference engine.
* ``gather_rows_q8`` / ``gather_rows_q16`` — the same gather over int8
  and int16 sources, widening to the quantized lanes' GEMM operand type
  (float32 / float64) in the same pass, so the quantized planned engine
  pays one memory sweep where np.take plus an astype would pay two.
  The int8 lane's requantize, entry-quantize and AVX512-VNNI GEMM
  entry points live here too.
* ``warp_bilinear_f64`` / ``warp_bilinear_f32`` — the bilinear AMC warp
  (§III-B) of :func:`repro.core.warp.warp_activation_batch`'s float
  path, which at batch 1 is otherwise all NumPy dispatch.

The kernels are *accelerators, not semantics changes*: they reproduce
their NumPy twins bit-for-bit (for the SAD producer, per tile one
sequential accumulator per column, then numpy's pairwise combine of the
column sums — for the AVX-512 path each ZMM lane is one column
accumulator, and the final combine is the same tree, eight search
offsets at a time across vector lanes; for the warp, the same
double-precision operations in the same order, built with
``-ffp-contract=off`` so no multiply-add fuses).  A self-check at load
time compares every entry point against its NumPy reference on random
probes, so every caller can treat "kernel" and "batched" results as
interchangeable.

Calling convention: every entry point takes its arrays as raw base
addresses (:func:`addr`) through ``c_void_p``.  Building a ctypes
pointer costs microseconds per array, which at batch 1 rivals the
arithmetic, so callers take the addresses of their persistent buffers
when they allocate them and retake them on every reallocation.

Gating: no compiler, any compile/load error, a failed self-check, or
``REPRO_SAD_KERNEL=0`` in the environment all make :func:`get_kernel`
return ``None`` and callers silently fall back to the NumPy path.
``REPRO_FORCE_NUMPY=1`` does the same without even attempting a compile —
the knob CI's NumPy lane uses to prove the pure-NumPy paths stay green
(the kernel lane conversely asserts :func:`kernel_available` and
``has_warp``, so a silent fallback can never masquerade as kernel
coverage).  The warp checks on its own: when only it fails,
:func:`get_kernel` keeps every other entry point, ``has_warp`` is false,
and a :class:`KernelFallbackWarning` says the warp runs its NumPy twin.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import warnings
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "KernelFallbackWarning",
    "SADKernel",
    "addr",
    "get_kernel",
    "kernel_available",
    "producer_bounds",
]

#: Tiles wider than this fall back to NumPy (the C column buffer is fixed).
MAX_TILE = 8

_SOURCE = r"""
#include <math.h>
#include <string.h>
#if defined(__AVX512F__)
#include <immintrin.h>
#endif

/* Tile SADs between a padded key frame and the current frame.
 *
 * Both kernels compute, for every tile (ty, tx) and search offset pair
 * (offs[oi], offs[oj]), the sum over the (tile x tile) block of
 * |cur - shifted key|.  Summation order is bit-identical to the NumPy
 * reference (see repro.core.rfbme._tile_sums): each column v accumulates
 * sequentially over rows u; the `tile` column sums then combine with
 * numpy's pairwise order (a tree for tile == 8, sequential below 8).
 */

#if defined(__AVX512F__)
/* One tile==8 comparison: the eight column accumulators, each summing
 * |cur - key| down its column (rows in order, as the NumPy reference). */
static inline __m512d tile_cols8(const __m512d a[8], const double *b,
                                 long pad_w)
{
    const __m512d sign = _mm512_set1_pd(-0.0);
    __m512d acc = _mm512_andnot_pd(sign, _mm512_sub_pd(a[0], _mm512_loadu_pd(b)));
    for (int u = 1; u < 8; ++u)
        acc = _mm512_add_pd(
            acc,
            _mm512_andnot_pd(
                sign, _mm512_sub_pd(a[u], _mm512_loadu_pd(b + u * pad_w))));
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

/* Fast producer: grid-major output out[ty][tx][oi][oj].  The current
 * frame's tile rows load once per tile and stay in registers across
 * every offset; with AVX-512, one ZMM holds the eight column
 * accumulators of a tile==8 block, and eight horizontal offsets at a
 * time reduce together (tree8) into one vector store.  Only the
 * in-bounds offset window of each tile is computed — oi in
 * [row_lo[ty], row_hi[ty]) and oj in [col_lo[tx], col_hi[tx]); entries
 * outside it are left untouched (the consumer masks them by the same
 * validity geometry).  Full-range bounds reproduce the unbounded cube. */
static void tile_sad_grid_bounded(const double *pad, long pad_w,
                                  const double *cur, long cur_w,
                                  long n_ty, long n_tx, long tile,
                                  const long *offs, long n_off, long radius,
                                  const long *row_lo, const long *row_hi,
                                  const long *col_lo, const long *col_hi,
                                  double *out)
{
#if defined(__AVX512F__)
    if (tile == 8) {
        for (long ty = 0; ty < n_ty; ++ty) {
            for (long tx = 0; tx < n_tx; ++tx) {
                const double *cur_tile = cur + ty * 8 * cur_w + tx * 8;
                __m512d a[8];
                for (int u = 0; u < 8; ++u)
                    a[u] = _mm512_loadu_pd(cur_tile + u * cur_w);
                double *o = out + (ty * n_tx + tx) * n_off * n_off;
                for (long oi = row_lo[ty]; oi < row_hi[ty]; ++oi) {
                    const double *brow =
                        pad + (radius + offs[oi] + ty * 8) * pad_w
                            + radius + tx * 8;
                    for (long oj = col_lo[tx]; oj < col_hi[tx]; oj += 8) {
                        long r = col_hi[tx] - oj < 8 ? col_hi[tx] - oj : 8;
                        __m512d s[8];
                        for (int j = 0; j < 8; ++j)
                            s[j] = j < r
                                ? tile_cols8(a, brow + offs[oj + j], pad_w)
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
    for (long ty = 0; ty < n_ty; ++ty) {
        for (long tx = 0; tx < n_tx; ++tx) {
            const double *a = cur + ty * tile * cur_w + tx * tile;
            double *o = out + (ty * n_tx + tx) * n_off * n_off;
            for (long oi = row_lo[ty]; oi < row_hi[ty]; ++oi) {
                for (long oj = col_lo[tx]; oj < col_hi[tx]; ++oj) {
                    const double *b =
                        pad + (radius + offs[oi] + ty * tile) * pad_w
                            + radius + offs[oj] + tx * tile;
                    for (long v = 0; v < tile; ++v)
                        col[v] = 0.0;
                    for (long u = 0; u < tile; ++u) {
                        const double *ar = a + u * cur_w;
                        const double *br = b + u * pad_w;
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

/* Lockstep batch: n_pairs (padded key, current) pairs in one call, so a
 * whole runtime step pays one FFI crossing instead of one per clip.
 * Only the valid offset window of each tile is computed.  The per-call
 * arguments lead; the geometry after them is fixed per engine. */
void tile_sad_grid_batch(long n_pairs, const double *pads,
                         const double *curs, double *out,
                         long pad_h, long pad_w, long cur_h, long cur_w,
                         long n_ty, long n_tx, long tile,
                         const long *offs, long n_off, long radius,
                         const long *row_lo, const long *row_hi,
                         const long *col_lo, const long *col_hi)
{
    long out_stride = n_ty * n_tx * n_off * n_off;
    for (long p = 0; p < n_pairs; ++p)
        tile_sad_grid_bounded(pads + p * pad_h * pad_w, pad_w,
                              curs + p * cur_h * cur_w, cur_w,
                              n_ty, n_tx, tile, offs, n_off, radius,
                              row_lo, row_hi, col_lo, col_hi,
                              out + p * out_stride);
}

/* The RFBME consumer over a batch of grid-major producer outputs.
 *
 * Reproduces, add for add, the vectorized NumPy consumer (see
 * repro.core.rfbme.RFBMEEngine._consumer_fast): a 2-D integral image per
 * offset (row pass then column pass of sequential binary adds), box sums
 * in ((A - B) - C) + D order, first-minimum argmin over the candidate
 * offsets of each receptive field, and error = cost / denom.  Fields
 * with no valid tile range write zeros, exactly like the NumPy path.
 *
 * sums:   (n_pairs, n_ty, n_tx, n_off*n_off) raw producer output
 * ci:     scratch, (n_ty+1) * (n_tx+1) * n_off*n_off doubles
 * fields: (n_pairs, out_h, out_w, 2) out; errors: (n_pairs, out_h, out_w)
 * valid:  (n_ty, n_tx, n_off*n_off) 0/1 tile validity
 * ty0/ty1: (out_h) tile ranges per field row; tx0/tx1: (out_w)
 * cand:   (out_h*out_w, n_off*n_off) 0/1 candidate offsets
 * ok:     (out_h*out_w) 0/1 field has candidates
 * denom:  (out_h*out_w) error denominators
 *
 * As in the producer, the workspace arguments lead and the geometry
 * (valid onwards) is fixed per engine.
 */
void rfbme_consume(long n_pairs, const double *sums, double *ci,
                   double *fields, double *errors,
                   const unsigned char *valid,
                   const long *ty0, const long *ty1,
                   const long *tx0, const long *tx1,
                   const unsigned char *cand,
                   const unsigned char *ok,
                   const double *denom,
                   const long *offs,
                   long n_ty, long n_tx, long n_off,
                   long out_h, long out_w)
{
    long F = n_off * n_off;
    long ci_w = (n_tx + 1) * F;
    for (long p = 0; p < n_pairs; ++p) {
        const double *s = sums + p * n_ty * n_tx * F;
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
                const unsigned char *vv = valid + (ty * n_tx + tx) * F;
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
        for (long i = 0; i < out_h; ++i) {
            for (long j = 0; j < out_w; ++j) {
                long f = i * out_w + j;
                double *fv = fields + ((p * out_h + i) * out_w + j) * 2;
                double *ev = errors + (p * out_h + i) * out_w + j;
                if (!ok[f]) {
                    fv[0] = 0.0;
                    fv[1] = 0.0;
                    *ev = 0.0;
                    continue;
                }
                const double *r11 = ci + ty1[i] * ci_w + tx1[j] * F;
                const double *r01 = ci + ty0[i] * ci_w + tx1[j] * F;
                const double *r10 = ci + ty1[i] * ci_w + tx0[j] * F;
                const double *r00 = ci + ty0[i] * ci_w + tx0[j] * F;
                const unsigned char *cf = cand + f * F;
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
                fv[0] = (double) offs[best / n_off];
                fv[1] = (double) offs[best % n_off];
                *ev = best_cost / denom[f];
            }
        }
    }
}

/* Row-wise gather: out[b][k] = src[b][idx[k]].  The im2col hot path of
 * the planned inference engine (one flat gather materialises each
 * convolution's column matrix); plain np.take spends most of its time in
 * generic dispatch at these sizes. */
void gather_rows(const double *src, long src_len,
                 const long *idx, long n_idx,
                 long batch, double *out)
{
    for (long b = 0; b < batch; ++b) {
        const double *s = src + b * src_len;
        double *o = out + b * n_idx;
        for (long k = 0; k < n_idx; ++k)
            o[k] = s[idx[k]];
    }
}

/* Quantized-lane gathers: identical indexing to gather_rows, but the
 * source rows are int8/int16 activations and the output widens to the
 * float type the quantized GEMM consumes (the integer values survive
 * the widening exactly, so the GEMM still accumulates integers).  One
 * pass replaces np.take-then-astype's two. */
void gather_rows_q8(const signed char *src, long src_len,
                    const long *idx, long n_idx,
                    long batch, float *out)
{
    for (long b = 0; b < batch; ++b) {
        const signed char *s = src + b * src_len;
        float *o = out + b * n_idx;
        for (long k = 0; k < n_idx; ++k)
            o[k] = (float) s[idx[k]];
    }
}

void gather_rows_q16(const short *src, long src_len,
                     const long *idx, long n_idx,
                     long batch, double *out)
{
    for (long b = 0; b < batch; ++b) {
        const short *s = src + b * src_len;
        double *o = out + b * n_idx;
        for (long k = 0; k < n_idx; ++k)
            o[k] = (double) s[idx[k]];
    }
}

void gather_rows_q16f(const short *src, long src_len,
                      const long *idx, long n_idx,
                      long batch, float *out)
{
    for (long b = 0; b < batch; ++b) {
        const short *s = src + b * src_len;
        float *o = out + b * n_idx;
        for (long k = 0; k < n_idx; ++k)
            o[k] = (float) s[idx[k]];
    }
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

/* im2col gather for the int8 VNNI GEMM: per-sample row structure with
 * the activation offset applied in flight.  out row (b*rows + r) gets
 * src[b][idx[r*k .. r*k+k-1]] ^ 0x80 (two's-complement int8 + 128 ==
 * xor with the sign bit) in its first k bytes; the kp-k pad bytes are
 * never written (the caller zeroes the buffer once — zero u8 activation
 * times zero weight pad contributes nothing). */
void gather_cols_q8u(const signed char *src, long src_len,
                     const long *idx, long rows, long k,
                     long batch, long kp, unsigned char *out)
{
    for (long b = 0; b < batch; ++b) {
        const signed char *s = src + b * src_len;
        for (long r = 0; r < rows; ++r) {
            const long *ir = idx + r * k;
            unsigned char *o = out + (b * rows + r) * kp;
            for (long j = 0; j < k; ++j)
                o[j] = (unsigned char) (s[ir[j]] ^ 0x80);
        }
    }
}

/* int8 convolution GEMM with fused requantization (AVX512-VNNI).
 *
 * a:  (m, k4*4) uint8 activations offset by +128, zero-padded past the
 *     true reduction depth.
 * bp: packed int8 weights, k4 groups x 32 channels x 4 consecutive
 *     k-positions (vpdpbusd's operand shape), zero-padded in both axes.
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
                                    long n, signed char *dst)
{
    __m512 f0 = _mm512_mul_ps(
        _mm512_add_ps(_mm512_cvtepi32_ps(acc0), vb0), vm0);
    __m512 f1 = _mm512_mul_ps(
        _mm512_add_ps(_mm512_cvtepi32_ps(acc1), vb1), vm1);
    f0 = _mm512_roundscale_ps(f0, 0x08);
    f1 = _mm512_roundscale_ps(f1, 0x08);
    f0 = _mm512_min_ps(_mm512_max_ps(f0, vlo), vhi);
    f1 = _mm512_min_ps(_mm512_max_ps(f1, vlo), vhi);
    signed char tmp[32];
    _mm_storeu_si128((__m128i *) tmp,
                     _mm512_cvtepi32_epi8(_mm512_cvtps_epi32(f0)));
    _mm_storeu_si128((__m128i *) (tmp + 16),
                     _mm512_cvtepi32_epi8(_mm512_cvtps_epi32(f1)));
    memcpy(dst, tmp, n);
}

static inline void requant_store_q16(__m512i acc0, __m512i acc1,
                                     __m512 vb0, __m512 vb1,
                                     __m512 vm0, __m512 vm1,
                                     __m512 vlo, __m512 vhi,
                                     long n, short *dst)
{
    __m512 f0 = _mm512_mul_ps(
        _mm512_add_ps(_mm512_cvtepi32_ps(acc0), vb0), vm0);
    __m512 f1 = _mm512_mul_ps(
        _mm512_add_ps(_mm512_cvtepi32_ps(acc1), vb1), vm1);
    f0 = _mm512_roundscale_ps(f0, 0x08);
    f1 = _mm512_roundscale_ps(f1, 0x08);
    f0 = _mm512_min_ps(_mm512_max_ps(f0, vlo), vhi);
    f1 = _mm512_min_ps(_mm512_max_ps(f1, vlo), vhi);
    short tmp[32];
    _mm256_storeu_si256((__m256i *) tmp,
                        _mm512_cvtepi32_epi16(_mm512_cvtps_epi32(f0)));
    _mm256_storeu_si256((__m256i *) (tmp + 16),
                        _mm512_cvtepi32_epi16(_mm512_cvtps_epi32(f1)));
    memcpy(dst, tmp, n * sizeof(short));
}

#define VNNI_GEMM_BODY(REQUANT_STORE, OUT_T)                               \
    const __m512 vlo = _mm512_set1_ps(lo), vhi = _mm512_set1_ps(hi);       \
    const __m512 vb0 = _mm512_loadu_ps(bias);                              \
    const __m512 vb1 = _mm512_loadu_ps(bias + 16);                         \
    const __m512 vm0 = _mm512_loadu_ps(mult);                              \
    const __m512 vm1 = _mm512_loadu_ps(mult + 16);                         \
    long i = 0;                                                            \
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
        REQUANT_STORE(c00, c01, vb0, vb1, vm0, vm1, vlo, vhi, n,           \
                      out + (i + 0) * out_stride);                         \
        REQUANT_STORE(c10, c11, vb0, vb1, vm0, vm1, vlo, vhi, n,           \
                      out + (i + 1) * out_stride);                         \
        REQUANT_STORE(c20, c21, vb0, vb1, vm0, vm1, vlo, vhi, n,           \
                      out + (i + 2) * out_stride);                         \
        REQUANT_STORE(c30, c31, vb0, vb1, vm0, vm1, vlo, vhi, n,           \
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
        REQUANT_STORE(c0, c1, vb0, vb1, vm0, vm1, vlo, vhi, n,             \
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
#: NumPy twins — the warp's weighted sum is exactly that shape.
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
_GATHER = [_P, _L, _P, _L, _L, _P]
_REQUANT_F = [_P, _L, _L, _P, _P, _F, _F, _P]
_QUANTIZE = [_P, _L, _F, _F, _F, _P]
_WARP = [_L, _P, _P, _P, _L, _L, _L]
_GEMM = [_P, _L, _L, _P, _L, _P, _P, _F, _F, _P, _L]

#: ctypes argtypes of every exported entry point, in the C parameter
#: order (see the C source for shapes and dtypes).  Arrays travel as raw
#: base addresses (:func:`addr`) through ``c_void_p``, sizes as ``long``.
_SIGNATURES = {
    "tile_sad_grid_batch": (
        [_L, _P, _P, _P] + [_L] * 7 + [_P, _L, _L] + [_P] * 4
    ),
    "rfbme_consume": [_L] + [_P] * 13 + [_L] * 5,
    "gather_rows": _GATHER,
    "gather_rows_q8": _GATHER,
    "gather_rows_q16": _GATHER,
    "gather_rows_q16f": _GATHER,
    "gather_cols_q8u": [_P, _L, _P, _L, _L, _L, _L, _P],
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


def _consumer_reference(
    sums, valid, ty0, ty1, tx0, tx1, cand, ok, denom, offsets, n_off
):
    """NumPy mirror of the C consumer, for the load-time self-check."""
    b, n_ty, n_tx, n_flat = sums.shape
    filled = np.where(valid[None].astype(bool), sums, 0.0)
    ci = np.zeros((b, n_ty + 1, n_tx + 1, n_flat))
    ci[:, 1:, 1:] = filled.cumsum(axis=1).cumsum(axis=2)
    out_h, out_w = len(ty0), len(tx0)
    fields = np.zeros((b, out_h, out_w, 2))
    errors = np.zeros((b, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            f = i * out_w + j
            if not ok[f]:
                continue
            costs = (
                (ci[:, ty1[i], tx1[j]] - ci[:, ty0[i], tx1[j]])
                - ci[:, ty1[i], tx0[j]]
            ) + ci[:, ty0[i], tx0[j]]
            masked = np.where(cand[f].astype(bool), costs, np.inf)
            best = masked.argmin(axis=1)
            fields[:, i, j, 0] = offsets[best // n_off]
            fields[:, i, j, 1] = offsets[best % n_off]
            errors[:, i, j] = (
                np.take_along_axis(masked, best[:, None], axis=1)[:, 0] / denom[f]
            )
    return fields, errors


def _check_consumer(kernel: SADKernel, rng: np.random.Generator) -> bool:
    """The compiled consumer must match the NumPy mirror bit for bit."""
    n_ty = n_tx = 6
    n_off = 5
    out_h, out_w = 4, 4
    n_flat = n_off * n_off
    n_fields = out_h * out_w
    offsets = np.arange(-4, 5, 2)
    sums = np.ascontiguousarray(rng.random((3, n_ty, n_tx, n_flat)) * 100)
    valid = np.ascontiguousarray((rng.random((n_ty, n_tx, n_flat)) > 0.3), np.uint8)
    ty0 = rng.integers(0, n_ty - 1, out_h).astype(np.int64)
    ty1 = (ty0 + rng.integers(1, 3, out_h)).clip(max=n_ty).astype(np.int64)
    tx0 = rng.integers(0, n_tx - 1, out_w).astype(np.int64)
    tx1 = (tx0 + rng.integers(1, 3, out_w)).clip(max=n_tx).astype(np.int64)
    cand = np.ascontiguousarray(rng.random((n_fields, n_flat)) > 0.4, np.uint8)
    cand[:, 0] = 1  # every field keeps at least one candidate
    ok = np.ascontiguousarray(rng.random(n_fields) > 0.2, np.uint8)
    denom = np.ascontiguousarray(rng.random(n_fields) * 50 + 1)
    fields = np.empty((3, out_h, out_w, 2))
    errors = np.empty((3, out_h, out_w))
    scratch = np.empty((n_ty + 1) * (n_tx + 1) * n_flat)
    offs = offsets.astype(np.int64)
    kernel.rfbme_consume(
        3, addr(sums), addr(scratch), addr(fields), addr(errors),
        addr(valid), addr(ty0), addr(ty1), addr(tx0), addr(tx1),
        addr(cand), addr(ok), addr(denom), addr(offs),
        n_ty, n_tx, n_off, out_h, out_w,
    )
    want_f, want_e = _consumer_reference(
        sums, valid, ty0, ty1, tx0, tx1, cand, ok, denom, offsets, n_off
    )
    return np.array_equal(fields, want_f) and np.array_equal(errors, want_e)


def _self_check(kernel: SADKernel) -> bool:
    """Every compiled entry point must be bit-identical to NumPy."""
    rng = np.random.default_rng(20180601)
    for tile, radius, stride, shape in (
        (8, 12, 2, (64, 64)),
        (8, 8, 2, (48, 40)),
        (4, 6, 3, (32, 32)),
        (8, 0, 1, (24, 24)),
    ):
        key = np.ascontiguousarray(rng.random(shape))
        cur = np.ascontiguousarray(rng.random(shape))
        offsets = np.arange(-radius, radius + 1, stride)
        pad = np.pad(key, radius)
        n_off = len(offsets)
        n_ty, n_tx = shape[0] // tile, shape[1] // tile
        want = _numpy_reference(pad, cur, tile, offsets, radius)
        offs = offsets.astype(np.int64)
        pads = np.ascontiguousarray(np.stack([pad, np.pad(cur, radius)]))
        curs = np.ascontiguousarray(np.stack([cur, key]))
        want2 = _numpy_reference(pads[1], curs[1], tile, offsets, radius)
        # Full-range bounds must reproduce the whole reference cube (the
        # zero padding makes out-of-frame comparisons well-defined).
        full = (
            np.zeros(n_ty, dtype=np.int64), np.full(n_ty, n_off, np.int64),
            np.zeros(n_tx, dtype=np.int64), np.full(n_tx, n_off, np.int64),
        )
        def grid_batch(bounds, out):
            kernel.tile_sad_grid_batch(
                2, addr(pads), addr(curs), addr(out),
                pads.shape[1], pads.shape[2], shape[0], shape[1],
                n_ty, n_tx, tile, addr(offs), n_off, radius,
                *[addr(b) for b in bounds],
            )

        batch = np.empty((2, n_ty, n_tx, n_off, n_off))
        grid_batch(full, batch)
        if not np.array_equal(batch[0].transpose(2, 3, 0, 1), want):
            return False
        if not np.array_equal(batch[1].transpose(2, 3, 0, 1), want2):
            return False
        # Real bounds: every in-window entry must match the reference.
        bounds = producer_bounds(shape, tile, offsets)
        row_lo, row_hi, col_lo, col_hi = bounds
        batch = np.zeros((2, n_ty, n_tx, n_off, n_off))
        grid_batch(bounds, batch)
        for ty in range(n_ty):
            for tx in range(n_tx):
                oi = slice(row_lo[ty], row_hi[ty])
                oj = slice(col_lo[tx], col_hi[tx])
                if not np.array_equal(
                    batch[0, ty, tx, oi, oj], want.transpose(2, 3, 0, 1)[ty, tx, oi, oj]
                ):
                    return False
                if not np.array_equal(
                    batch[1, ty, tx, oi, oj],
                    want2.transpose(2, 3, 0, 1)[ty, tx, oi, oj],
                ):
                    return False
    src = np.ascontiguousarray(rng.random((3, 500)))
    idx = np.ascontiguousarray(rng.integers(0, 500, 200), dtype=np.int64)
    def gather(fn, src, out):
        fn(addr(src), src.shape[1], addr(idx), len(idx), len(src), addr(out))

    got = np.empty((3, 200))
    gather(kernel.gather_rows, src, got)
    if not np.array_equal(got, np.take(src, idx, axis=1)):
        return False
    src8 = np.ascontiguousarray(
        rng.integers(-128, 128, (3, 500)), dtype=np.int8
    )
    got8 = np.empty((3, 200), dtype=np.float32)
    gather(kernel.gather_rows_q8, src8, got8)
    if not np.array_equal(got8, np.take(src8, idx, axis=1).astype(np.float32)):
        return False
    src16 = np.ascontiguousarray(
        rng.integers(-32768, 32768, (3, 500)), dtype=np.int16
    )
    got16 = np.empty((3, 200))
    gather(kernel.gather_rows_q16, src16, got16)
    if not np.array_equal(got16, np.take(src16, idx, axis=1).astype(np.float64)):
        return False
    got16f = np.empty((3, 200), dtype=np.float32)
    gather(kernel.gather_rows_q16f, src16, got16f)
    if not np.array_equal(got16f, np.take(src16, idx, axis=1).astype(np.float32)):
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
    rows_g, kg, kp = 37, 30, 32
    idxg = np.ascontiguousarray(
        rng.integers(0, 500, rows_g * kg), dtype=np.int64
    )
    got_u = np.zeros((3 * rows_g, kp), dtype=np.uint8)
    kernel.gather_cols_q8u(
        addr(src8), src8.shape[1], addr(idxg), rows_g, kg, len(src8), kp,
        addr(got_u),
    )
    want_u = np.zeros((3 * rows_g, kp), dtype=np.uint8)
    want_u[:, :kg] = (
        np.take(src8, idxg, axis=1).astype(np.int16) + 128
    ).reshape(3 * rows_g, kg).astype(np.uint8)
    if not np.array_equal(got_u, want_u):
        return False
    if kernel.has_vnni:
        for m, k, n in ((37, 30, 24), (8, 216, 16), (5, 4, 32)):
            k4 = (k + 3) // 4
            a_s = rng.integers(-128, 128, (m, k)).astype(np.int8)
            w_t = rng.integers(-128, 128, (n, k)).astype(np.int8)
            bias = rng.integers(-3000, 3000, n).astype(np.float64)
            mult = (2.0 ** rng.integers(-12, -6, n)).astype(np.float32)
            a_u = np.zeros((m, k4 * 4), dtype=np.uint8)
            a_u[:, :k] = (a_s.astype(np.int16) + 128).astype(np.uint8)
            wt_pad = np.zeros((32, k4 * 4), dtype=np.int8)
            wt_pad[:n, :k] = w_t
            bp = np.ascontiguousarray(
                wt_pad.reshape(32, k4, 4).transpose(1, 0, 2)
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
    return _check_consumer(kernel, rng)


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


def _compile() -> Optional[str]:
    """Compile the kernels into the on-disk cache; return the .so path."""
    tag = hashlib.sha256(
        (_SOURCE + " ".join(_CFLAGS) + _cpu_identity()).encode()
    ).hexdigest()[:16]
    cache_dir = os.path.abspath(_CACHE_DIR)
    lib_path = os.path.join(cache_dir, f"sad-{tag}.so")
    if os.path.exists(lib_path):
        return lib_path
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
        return lib_path
    except (OSError, subprocess.SubprocessError):
        return None


def get_kernel() -> Optional[SADKernel]:
    """The compiled kernel, or None when disabled or unavailable."""
    global _STATE
    if _STATE is None:
        _STATE = False
        disabled = (
            os.environ.get("REPRO_SAD_KERNEL", "1") == "0"
            or os.environ.get("REPRO_FORCE_NUMPY", "0") == "1"
        )
        if not disabled:
            lib_path = _compile()
            if lib_path is not None:
                try:
                    kernel = SADKernel(ctypes.CDLL(lib_path))
                except (OSError, AttributeError):
                    kernel = None
                if kernel is not None and _self_check(kernel):
                    kernel.has_warp = _check_warp(kernel)
                    if not kernel.has_warp:
                        warnings.warn(
                            "compiled AMC warp failed its self-check; "
                            "warping with its NumPy twin (results are "
                            "identical; RFBME and the CNN gathers stay "
                            "compiled)",
                            KernelFallbackWarning,
                            stacklevel=2,
                        )
                    _STATE = kernel
    return _STATE if isinstance(_STATE, SADKernel) else None


def kernel_available() -> bool:
    return get_kernel() is not None
