// Register-tiled SIMD GEMM micro-kernels (AVX2+FMA / NEON).
//
// This TU and gemm_avx512.cpp are the only ones compiled with architecture
// flags; the dispatcher (gemm.cpp) checks simd_gemm_available() before
// calling in, so the binary stays runtime-safe on CPUs without the compiled
// extension. On AVX-512 hardware the tile loop swaps in the bit-identical
// AVX-512 micro-kernel (gemm_avx512.hpp); the batch-1 matvec stays AVX2.
//
// Kernel scheme (identical for both architectures):
//   * C is computed in kGemmMR x kGemmNR (6 x 16) register tiles from
//     panel-packed operands (see pack.hpp). Register accumulation runs over
//     the FULL k extent, so every output element is summed in ascending-k
//     order with a single rounding chain and C is written exactly once —
//     which is also where the fused bias/ReLU epilogue is applied.
//   * m == 1 (the batch-1 dense inference matvec, the autoencoder's hot
//     shape) takes a dedicated row-streaming path: packing cannot help a
//     matvec, and the tile kernel would waste 5/6 of its lanes.
//   * Rows are fanned out over the thread pool in fixed bands of
//     kSimdRowGrain rows (a multiple of kGemmMR, so band-local tiles always
//     align with pre-packed A panels). The partition depends only on the
//     shape, making results bit-identical at any thread count.
//   * Tail tiles are zero-padded by the packing, run the full-tile code
//     path, and only the valid rows/columns are stored back; padded lanes
//     contribute exact zeros, so packed and unpacked calls are
//     bit-identical.
//
// Scratch (A tiles, on-the-fly B panels) comes from the per-thread
// workspace arena: after the first call at a given shape the kernel
// performs no heap allocations.
#include "tensor/gemm_simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "parallel/parallel_for.hpp"
#include "tensor/gemm_avx512.hpp"
#include "tensor/workspace.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define SALNOV_SIMD_AVX2 1
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#define SALNOV_SIMD_NEON 1
#endif

namespace salnov::detail {

#if defined(SALNOV_SIMD_AVX2) || defined(SALNOV_SIMD_NEON)

namespace {

// Row band handed to the thread pool: 4 full micro-tiles. Must be a
// multiple of kGemmMR so packed-A panel boundaries align with band starts.
constexpr int64_t kSimdRowGrain = 4 * kGemmMR;
static_assert(kSimdRowGrain % kGemmMR == 0);

// Same threshold as the scalar path: below this the pool dispatch overhead
// dominates.
constexpr int64_t kMinParallelFlops = 1 << 15;

#if defined(SALNOV_SIMD_AVX2)

/// One 6x16 tile: C[0..rows) x [0..cols) = ap . bp (+ epilogue).
void micro_kernel(const float* ap, const float* bp, int64_t k, float* c, int64_t ldc,
                  int64_t rows, int64_t cols, const float* bias_row, const float* bias_col,
                  bool relu) {
  __m256 acc[kGemmMR][2];
  for (int r = 0; r < kGemmMR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kGemmNR);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kGemmNR + 8);
    const float* arow = ap + kk * kGemmMR;
    for (int r = 0; r < kGemmMR; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }

  __m256 bc0 = _mm256_setzero_ps();
  __m256 bc1 = _mm256_setzero_ps();
  if (bias_col != nullptr) {
    if (cols == kGemmNR) {
      bc0 = _mm256_loadu_ps(bias_col);
      bc1 = _mm256_loadu_ps(bias_col + 8);
    } else {
      float pad[kGemmNR] = {0};
      for (int64_t j = 0; j < cols; ++j) pad[j] = bias_col[j];
      bc0 = _mm256_loadu_ps(pad);
      bc1 = _mm256_loadu_ps(pad + 8);
    }
  }
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t r = 0; r < rows; ++r) {
    __m256 lo = acc[r][0];
    __m256 hi = acc[r][1];
    if (bias_row != nullptr) {
      const __m256 br = _mm256_broadcast_ss(bias_row + r);
      lo = _mm256_add_ps(lo, br);
      hi = _mm256_add_ps(hi, br);
    }
    if (bias_col != nullptr) {
      lo = _mm256_add_ps(lo, bc0);
      hi = _mm256_add_ps(hi, bc1);
    }
    if (relu) {
      lo = _mm256_max_ps(lo, zero);
      hi = _mm256_max_ps(hi, zero);
    }
    float* crow = c + r * ldc;
    if (cols == kGemmNR) {
      _mm256_storeu_ps(crow, lo);
      _mm256_storeu_ps(crow + 8, hi);
    } else {
      float buf[kGemmNR];
      _mm256_storeu_ps(buf, lo);
      _mm256_storeu_ps(buf + 8, hi);
      for (int64_t j = 0; j < cols; ++j) crow[j] = buf[j];
    }
  }
}

/// c[j] = sum_k a[kk] b[kk, j], n-blocked with a 4-deep k unroll. Serial:
/// a single output row never crosses the parallel threshold.
void matvec(const float* a, const float* b, float* c, int64_t n, int64_t k,
            const GemmEpilogue& epi) {
  constexpr int64_t kBlock = 512;
  for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
    const int64_t j1 = std::min(n, j0 + kBlock);
    for (int64_t j = j0; j < j1; ++j) c[j] = 0.0f;
    int64_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const __m256 a0 = _mm256_broadcast_ss(a + kk);
      const __m256 a1 = _mm256_broadcast_ss(a + kk + 1);
      const __m256 a2 = _mm256_broadcast_ss(a + kk + 2);
      const __m256 a3 = _mm256_broadcast_ss(a + kk + 3);
      const float* b0 = b + kk * n;
      const float* b1 = b0 + n;
      const float* b2 = b1 + n;
      const float* b3 = b2 + n;
      int64_t j = j0;
      for (; j + 8 <= j1; j += 8) {
        __m256 acc = _mm256_loadu_ps(c + j);
        acc = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b0 + j), acc);
        acc = _mm256_fmadd_ps(a1, _mm256_loadu_ps(b1 + j), acc);
        acc = _mm256_fmadd_ps(a2, _mm256_loadu_ps(b2 + j), acc);
        acc = _mm256_fmadd_ps(a3, _mm256_loadu_ps(b3 + j), acc);
        _mm256_storeu_ps(c + j, acc);
      }
      for (; j < j1; ++j) {
        float acc = c[j];
        acc = std::fma(a[kk], b0[j], acc);
        acc = std::fma(a[kk + 1], b1[j], acc);
        acc = std::fma(a[kk + 2], b2[j], acc);
        acc = std::fma(a[kk + 3], b3[j], acc);
        c[j] = acc;
      }
    }
    for (; kk < k; ++kk) {
      const __m256 av = _mm256_broadcast_ss(a + kk);
      const float* brow = b + kk * n;
      int64_t j = j0;
      for (; j + 8 <= j1; j += 8) {
        _mm256_storeu_ps(c + j, _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j), _mm256_loadu_ps(c + j)));
      }
      for (; j < j1; ++j) c[j] = std::fma(a[kk], brow[j], c[j]);
    }
  }
  if (!epi.empty()) {
    for (int64_t j = 0; j < n; ++j) {
      float v = c[j];
      if (epi.bias_row != nullptr) v += epi.bias_row[0];
      if (epi.bias_col != nullptr) v += epi.bias_col[j];
      if (epi.relu) v = v > 0.0f ? v : 0.0f;
      c[j] = v;
    }
  }
}

#elif defined(SALNOV_SIMD_NEON)

void micro_kernel(const float* ap, const float* bp, int64_t k, float* c, int64_t ldc,
                  int64_t rows, int64_t cols, const float* bias_row, const float* bias_col,
                  bool relu) {
  float32x4_t acc[kGemmMR][4];
  for (int r = 0; r < kGemmMR; ++r) {
    for (int q = 0; q < 4; ++q) acc[r][q] = vdupq_n_f32(0.0f);
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* bq = bp + kk * kGemmNR;
    const float32x4_t b0 = vld1q_f32(bq);
    const float32x4_t b1 = vld1q_f32(bq + 4);
    const float32x4_t b2 = vld1q_f32(bq + 8);
    const float32x4_t b3 = vld1q_f32(bq + 12);
    const float* arow = ap + kk * kGemmMR;
    for (int r = 0; r < kGemmMR; ++r) {
      const float32x4_t av = vdupq_n_f32(arow[r]);
      acc[r][0] = vfmaq_f32(acc[r][0], av, b0);
      acc[r][1] = vfmaq_f32(acc[r][1], av, b1);
      acc[r][2] = vfmaq_f32(acc[r][2], av, b2);
      acc[r][3] = vfmaq_f32(acc[r][3], av, b3);
    }
  }

  float bias_pad[kGemmNR] = {0};
  const float* bc = nullptr;
  if (bias_col != nullptr) {
    if (cols == kGemmNR) {
      bc = bias_col;
    } else {
      for (int64_t j = 0; j < cols; ++j) bias_pad[j] = bias_col[j];
      bc = bias_pad;
    }
  }
  const float32x4_t zero = vdupq_n_f32(0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    float32x4_t v[4] = {acc[r][0], acc[r][1], acc[r][2], acc[r][3]};
    if (bias_row != nullptr) {
      const float32x4_t br = vdupq_n_f32(bias_row[r]);
      for (int q = 0; q < 4; ++q) v[q] = vaddq_f32(v[q], br);
    }
    if (bc != nullptr) {
      for (int q = 0; q < 4; ++q) v[q] = vaddq_f32(v[q], vld1q_f32(bc + 4 * q));
    }
    if (relu) {
      for (int q = 0; q < 4; ++q) v[q] = vmaxq_f32(v[q], zero);
    }
    float* crow = c + r * ldc;
    if (cols == kGemmNR) {
      for (int q = 0; q < 4; ++q) vst1q_f32(crow + 4 * q, v[q]);
    } else {
      float buf[kGemmNR];
      for (int q = 0; q < 4; ++q) vst1q_f32(buf + 4 * q, v[q]);
      for (int64_t j = 0; j < cols; ++j) crow[j] = buf[j];
    }
  }
}

void matvec(const float* a, const float* b, float* c, int64_t n, int64_t k,
            const GemmEpilogue& epi) {
  constexpr int64_t kBlock = 512;
  for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
    const int64_t j1 = std::min(n, j0 + kBlock);
    for (int64_t j = j0; j < j1; ++j) c[j] = 0.0f;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float32x4_t av = vdupq_n_f32(a[kk]);
      const float* brow = b + kk * n;
      int64_t j = j0;
      for (; j + 4 <= j1; j += 4) {
        vst1q_f32(c + j, vfmaq_f32(vld1q_f32(c + j), av, vld1q_f32(brow + j)));
      }
      for (; j < j1; ++j) c[j] = std::fma(a[kk], brow[j], c[j]);
    }
  }
  if (!epi.empty()) {
    for (int64_t j = 0; j < n; ++j) {
      float v = c[j];
      if (epi.bias_row != nullptr) v += epi.bias_row[0];
      if (epi.bias_col != nullptr) v += epi.bias_col[j];
      if (epi.relu) v = v > 0.0f ? v : 0.0f;
      c[j] = v;
    }
  }
}

#endif  // architecture micro-kernels

// Tile-kernel dispatch, checked per gemm call: the AVX-512 variant
// (bit-identical, see gemm_avx512.hpp) when compiled in, supported by the
// CPU, and not disabled for A/B timing; else the baseline micro-kernel.
using MicroKernelFn = void (*)(const float*, const float*, int64_t, float*, int64_t, int64_t,
                               int64_t, const float*, const float*, bool);

MicroKernelFn tile_kernel() {
  return gemm_avx512_available() && gemm_avx512_tile_enabled() ? &micro_kernel_avx512
                                                               : &micro_kernel;
}

}  // namespace

bool simd_gemm_available() {
#if defined(SALNOV_SIMD_AVX2)
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return ok;
#else
  return true;  // NEON is baseline on aarch64
#endif
}

const char* simd_arch_name() {
#if defined(SALNOV_SIMD_AVX2)
  return gemm_avx512_available() && gemm_avx512_tile_enabled() ? "avx512" : "avx2";
#else
  return "neon";
#endif
}

void simd_gemm(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
               const GemmEpilogue& epi, const PackedMatrix* packed_a,
               const PackedMatrix* packed_b) {
  if (m == 1) {
    matvec(a, b, c, n, k, epi);
    return;
  }

  WorkspaceScope scope;
  const float* bp;
  if (packed_b != nullptr) {
    bp = packed_b->data.data();
  } else {
    float* scratch = scope.floats(packed_b_floats(k, n));
    pack_b_panels_into(b, k, n, scratch);
    bp = scratch;
  }
  const float* ap_all = packed_a != nullptr ? packed_a->data.data() : nullptr;
  const int64_t panels = gemm_col_panels(n);
  const MicroKernelFn micro = tile_kernel();

  const auto band = [&](int64_t row_begin, int64_t row_end) {
    // Band-local scratch: pool workers pack A tiles into their own arenas.
    WorkspaceScope band_scope;
    float* ap_buf = ap_all == nullptr ? band_scope.floats(kGemmMR * k) : nullptr;
    for (int64_t i0 = row_begin; i0 < row_end; i0 += kGemmMR) {
      const int64_t rows = std::min<int64_t>(kGemmMR, row_end - i0);
      const float* ap;
      if (ap_all != nullptr) {
        ap = ap_all + (i0 / kGemmMR) * kGemmMR * k;
      } else {
        pack_a_tile(a + i0 * k, rows, k, k, ap_buf);
        ap = ap_buf;
      }
      const float* bias_row = epi.bias_row != nullptr ? epi.bias_row + i0 : nullptr;
      for (int64_t p = 0; p < panels; ++p) {
        const int64_t j0 = p * kGemmNR;
        const int64_t cols = std::min<int64_t>(kGemmNR, n - j0);
        micro(ap, bp + p * kGemmNR * k, k, c + i0 * n + j0, n, rows, cols, bias_row,
              epi.bias_col != nullptr ? epi.bias_col + j0 : nullptr, epi.relu);
      }
    }
  };

  if (m > kSimdRowGrain && m * n * k >= kMinParallelFlops && parallel::num_threads() > 1) {
    parallel::parallel_for(0, m, kSimdRowGrain, band);
  } else {
    // Single-worker path: panel-outer / band-inner, so each packed B panel
    // streams through cache exactly once per call instead of once per row
    // band (the thin-m batched-inference shapes are otherwise bound on
    // re-reading B). The micro-kernel invocations are the banded order
    // permuted — every output element still accumulates in ascending k —
    // so results stay bit-identical to the parallel partition.
    WorkspaceScope serial_scope;
    const float* ap_panels = ap_all;
    if (ap_panels == nullptr) {
      float* scratch = serial_scope.floats(packed_a_floats(m, k));
      pack_a_panels_into(a, m, k, scratch);
      ap_panels = scratch;
    }
    for (int64_t p = 0; p < panels; ++p) {
      const int64_t j0 = p * kGemmNR;
      const int64_t cols = std::min<int64_t>(kGemmNR, n - j0);
      const float* bias_col = epi.bias_col != nullptr ? epi.bias_col + j0 : nullptr;
      for (int64_t i0 = 0; i0 < m; i0 += kGemmMR) {
        const int64_t rows = std::min<int64_t>(kGemmMR, m - i0);
        micro(ap_panels + (i0 / kGemmMR) * kGemmMR * k, bp + p * kGemmNR * k, k,
              c + i0 * n + j0, n, rows, cols,
              epi.bias_row != nullptr ? epi.bias_row + i0 : nullptr, bias_col, epi.relu);
      }
    }
  }
}

#else  // no SIMD support compiled in: runtime-safe stubs

bool simd_gemm_available() { return false; }
const char* simd_arch_name() { return "none"; }
void simd_gemm(const float*, const float*, float*, int64_t, int64_t, int64_t,
               const GemmEpilogue&, const PackedMatrix*, const PackedMatrix*) {}

#endif

namespace {

std::atomic<bool>& avx512_tile_flag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

}  // namespace

bool gemm_avx512_tile_enabled() { return avx512_tile_flag().load(std::memory_order_relaxed); }

void set_gemm_avx512_tile(bool enabled) {
  avx512_tile_flag().store(enabled, std::memory_order_relaxed);
}

}  // namespace salnov::detail
