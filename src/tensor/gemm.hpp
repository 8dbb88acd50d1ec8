// Single-precision GEMM with runtime kernel dispatch.
//
// All dense-layer and convolution math in the library funnels through these
// routines, so they are the main performance lever on CPU. Two kernels
// exist:
//   * kScalar — the cache-blocked portable loop (always available, the
//     correctness reference).
//   * kSimd — a register-tiled 6x16 micro-kernel with panel packing,
//     compiled for AVX2+FMA (x86-64) and selected at startup only when the
//     CPU supports it. Elsewhere (AArch64 included) only kScalar exists.
// The kernel is resolved once from the SALNOV_GEMM_KERNEL environment
// variable ("scalar", "simd", or "auto"/unset = best available) and can be
// overridden programmatically for A/B testing.
//
// Determinism contract (per kernel): accumulation order is fixed by the
// blocking scheme only — for every output element the k-summation runs in
// ascending order, and the parallel row partition depends on fixed grain
// constants, never on the thread count. Results are therefore bit-identical
// at any SALNOV_THREADS setting. Different kernels may round differently
// (FMA vs separate multiply-add) and are NOT bit-identical to each other.
//
// Zero-skipping keeps every output bit. Given b_finite, the SIMD matvec
// (m == 1) skips each B row that a ±0 in A multiplies. Each output is one
// ascending-k FMA chain from +0, and a skipped term fma(±0, b, acc) with b
// finite equals acc + (±0): it can only turn a −0 accumulator into +0. So
// after every step the skipping and full chains are equal or both zero; the
// outputs that end at zero are recomputed with the full chain (an all-zero
// A needs none: the full chain then stays +0 throughout).
#pragma once

#include <cstdint>

#include "tensor/pack.hpp"

namespace salnov {

enum class GemmKernel { kScalar, kSimd };

/// The kernel every gemm call dispatches to right now.
GemmKernel active_gemm_kernel();

/// Overrides the active kernel (tests / benches). Throws
/// std::invalid_argument if kSimd is requested on hardware without SIMD
/// support.
void set_gemm_kernel(GemmKernel kernel);

/// True when the SIMD kernel can run on this CPU.
bool gemm_simd_available();

/// Human-readable name of a kernel ("scalar", "avx2", "avx512", "none").
const char* gemm_kernel_name(GemmKernel kernel);

/// Always true: Dense/Conv2d cache pre-packed weight panels for SIMD
/// inference (bit-identical to the unpacked path). Kept for perfbench's host
/// line, which prints it.
bool gemm_weight_packing_enabled();

/// Optional operations fused into the GEMM output store. Applied after the
/// full k-summation of an element, in order: +bias_row[i], +bias_col[j],
/// then ReLU — exactly the arithmetic a separate post-pass would perform,
/// so fused and unfused results are bit-identical per kernel.
struct GemmEpilogue {
  const float* bias_row = nullptr;  ///< length m: added to every element of row i
  const float* bias_col = nullptr;  ///< length n: added to every element of column j
  bool relu = false;

  bool empty() const { return bias_row == nullptr && bias_col == nullptr && !relu; }
};

/// C = A * B where A is [m, k], B is [k, n], C is [m, n], all row-major.
/// C is fully overwritten.
void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k);

/// gemm() with a fused epilogue and an optionally pre-packed B operand.
/// `packed_b` must have been produced by pack_b_panels from the same
/// logical matrix as `b` (which must still be passed — the dispatcher falls
/// back to it for the scalar kernel and the matrix-vector fast path). It is
/// consulted only by the SIMD kernel and produces bit-identical results to
/// the unpacked call. `b_finite` promises that B holds no inf or NaN, which
/// lets the SIMD matvec skip the rows of B a zero in A multiplies
/// (bit-identical either way; see the determinism contract above).
void gemm_ex(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             const GemmEpilogue& epilogue, const PackedMatrix* packed_b = nullptr,
             bool b_finite = false);

/// One sample of a convolution read as a GEMM: input [channels, in_h, in_w],
/// a kernel_h x kernel_w kernel at `stride` (both dimensions) over the input
/// zero-padded by `padding` on every side.
struct ConvShape {
  int64_t channels = 0;
  int64_t in_h = 0;
  int64_t in_w = 0;
  int64_t kernel_h = 0;
  int64_t kernel_w = 0;
  int64_t stride = 1;
  int64_t padding = 0;
};

/// Implicit-GEMM convolution under the SIMD kernel: out [m, out_h * out_w]
/// = W [m, channels * kernel_h * kernel_w] x im2col(x), with out_h =
/// (in_h + 2 padding - kernel_h) / stride + 1 (out_w likewise) and the
/// epilogue fused, without materializing the im2col matrix. `packed_w` is W
/// as pack_a_panels produced it. Bit-identical to im2col followed by gemm_ex
/// under the SIMD kernel, at any thread count. Throws std::logic_error when
/// the SIMD kernel is unavailable or `packed_w` does not match `shape`, and
/// std::invalid_argument when the output would be empty.
void conv_gemm(const PackedMatrix& packed_w, const float* x, const ConvShape& shape, float* out,
               const GemmEpilogue& epilogue);

/// C += A * B^T where A is [m, k], B is [n, k], C is [m, n]. Both operand
/// rows are contiguous, so this is the preferred form when the "transposed"
/// operand is naturally stored row-major (e.g. conv weight gradients, or a
/// dense layer's W in dL/dx = g W^T).
void gemm_nt_accumulate(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k);

/// C += A^T * B where A is [k, m], B is [k, n], C is [m, n]. Lets callers
/// with a row-major A feed it as the transposed operand without
/// materializing a transposed copy (e.g. dW += x^T g in Dense::backward).
void gemm_tn_accumulate(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k);

}  // namespace salnov
