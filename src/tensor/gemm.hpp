// Single-precision GEMM with runtime kernel dispatch.
//
// All dense-layer and im2col-convolution math in the library funnels through
// these routines, so they are the main performance lever on CPU. Two kernels
// exist:
//   * kScalar — the cache-blocked portable loop (always available, the
//     correctness reference).
//   * kSimd — a register-tiled 6x16 micro-kernel with panel packing,
//     compiled for AVX2+FMA (x86) or NEON (aarch64) and selected at startup
//     only when the CPU supports it.
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

/// Human-readable name of a kernel ("scalar", "avx2", "avx512", "neon").
const char* gemm_kernel_name(GemmKernel kernel);

/// Whether Dense/Conv2d cache pre-packed weight panels for inference.
/// Defaults to on; the setter disables it (the packed and unpacked paths are
/// bit-identical — the switch exists for A/B tests).
bool gemm_weight_packing_enabled();
void set_gemm_weight_packing(bool enabled);

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

/// gemm() with a fused epilogue and optionally pre-packed operands.
/// `packed_a` / `packed_b` must have been produced by pack_a_panels /
/// pack_b_panels from the same logical matrices as `a` / `b` (which must
/// still be passed — the dispatcher falls back to them for the scalar
/// kernel and the matrix-vector fast path). Packed operands are consulted
/// only by the SIMD kernel and produce bit-identical results to the
/// unpacked call.
void gemm_ex(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             const GemmEpilogue& epilogue, const PackedMatrix* packed_a = nullptr,
             const PackedMatrix* packed_b = nullptr);

/// C += A * B (accumulating variant); same layout contract as gemm().
void gemm_accumulate(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k);

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
