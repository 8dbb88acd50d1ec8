// AVX-512 6x16 tile micro-kernel (see gemm_avx512.hpp for the contract).
//
// Bit-identity with the AVX2 tile kernel is load-bearing: golden traces and
// calibrated thresholds were produced under GemmKernel::kSimd, and this TU
// merely accelerates that kernel. Each c[r][j] is accumulated as one
// ascending-k FMA chain in a dedicated register lane, then + bias_row,
// + bias_col, max(0) in that order — exactly the AVX2 sequence, so every
// lane performs the identical IEEE operations and rounds identically.
#include "tensor/gemm_avx512.hpp"

#include "tensor/pack.hpp"

#if defined(__AVX512F__)
#include <immintrin.h>
#define SALNOV_SIMD_AVX512 1
#endif

namespace salnov::detail {

#if defined(SALNOV_SIMD_AVX512)

bool gemm_avx512_available() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return ok;
}

void micro_kernel_avx512(const float* ap, const float* bp, int64_t k, float* c, int64_t ldc,
                         int64_t rows, int64_t cols, const float* bias_row,
                         const float* bias_col, bool relu) {
  static_assert(kGemmNR == 16, "one B panel row is exactly one zmm register");
  __m512 acc[kGemmMR];
  for (int r = 0; r < kGemmMR; ++r) acc[r] = _mm512_setzero_ps();
  // k unrolled by 4 to amortize loop and address arithmetic. Each acc[r]
  // chains through the four FMAs sequentially in ascending-k order, so the
  // unroll is bit-identical to the rolled loop (no split accumulators).
  int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    const float* arow = ap + kk * kGemmMR;
    const float* brow = bp + kk * kGemmNR;
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + kGemmNR);
    const __m512 b2 = _mm512_loadu_ps(brow + 2 * kGemmNR);
    const __m512 b3 = _mm512_loadu_ps(brow + 3 * kGemmNR);
    for (int r = 0; r < kGemmMR; ++r) {
      __m512 v = acc[r];
      v = _mm512_fmadd_ps(_mm512_set1_ps(arow[r]), b0, v);
      v = _mm512_fmadd_ps(_mm512_set1_ps(arow[kGemmMR + r]), b1, v);
      v = _mm512_fmadd_ps(_mm512_set1_ps(arow[2 * kGemmMR + r]), b2, v);
      v = _mm512_fmadd_ps(_mm512_set1_ps(arow[3 * kGemmMR + r]), b3, v);
      acc[r] = v;
    }
  }
  for (; kk < k; ++kk) {
    const __m512 b = _mm512_loadu_ps(bp + kk * kGemmNR);
    const float* arow = ap + kk * kGemmMR;
    for (int r = 0; r < kGemmMR; ++r) {
      acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(arow[r]), b, acc[r]);
    }
  }

  // Full tiles take plain loads/stores; tail tiles go through a lane mask —
  // masked-off lanes of the bias load read as zero and are never written
  // back, mirroring the AVX2 pad-and-copy tail path.
  const bool full = cols == kGemmNR;
  const __mmask16 lane_mask =
      full ? static_cast<__mmask16>(0xffff)
           : static_cast<__mmask16>((1u << static_cast<unsigned>(cols)) - 1u);
  __m512 bc = _mm512_setzero_ps();
  if (bias_col != nullptr) {
    bc = full ? _mm512_loadu_ps(bias_col) : _mm512_maskz_loadu_ps(lane_mask, bias_col);
  }
  const __m512 zero = _mm512_setzero_ps();
  for (int64_t r = 0; r < rows; ++r) {
    __m512 v = acc[r];
    if (bias_row != nullptr) v = _mm512_add_ps(v, _mm512_set1_ps(bias_row[r]));
    if (bias_col != nullptr) v = _mm512_add_ps(v, bc);
    // The zero-masking form over all lanes is the same vmaxps; the plain
    // intrinsic passes GCC 12 an undefined merge source that it warns about.
    if (relu) v = _mm512_maskz_max_ps(static_cast<__mmask16>(0xffff), v, zero);
    if (full) {
      _mm512_storeu_ps(c + r * ldc, v);
    } else {
      _mm512_mask_storeu_ps(c + r * ldc, lane_mask, v);
    }
  }
}

#else  // toolchain without AVX-512: runtime-safe stubs

bool gemm_avx512_available() { return false; }
void micro_kernel_avx512(const float*, const float*, int64_t, float*, int64_t, int64_t, int64_t,
                         const float*, const float*, bool) {}

#endif

}  // namespace salnov::detail
