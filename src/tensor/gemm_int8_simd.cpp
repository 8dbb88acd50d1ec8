// Int8 GEMM SIMD band kernels (AVX2 maddubs), plus the packing + fan-out
// orchestration shared with the AVX-512 VNNI band. Other architectures
// (AArch64 included) build the stubs and run the scalar reference.
//
// Packed operand layout (shared by every band kernel, zero-padded so tail
// k-groups contribute exact zeros):
//   * A: [m][groups * 4] u8 row-major, groups = ceil(k / 4); each row is the
//     original activation row followed by zero padding. The kernels read one
//     k-group as a single u32.
//   * B: byte (g * n + j) * 4 + t holds B[4g + t][j] — four consecutive k
//     values interleaved per column, so 4 * C contiguous bytes cover one
//     k-group of C consecutive columns, exactly what maddubs / dpbusd consume.
//
// Every kernel accumulates the same exact int32 sums (in some order —
// integer addition is associative), and the dequant store performs the same
// float(acc) * scale [fmaf + bias] (+ ReLU) per element, so all kernels are
// bit-identical to the scalar reference at any thread count or batch size.
#include "tensor/gemm_int8_simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "parallel/parallel_for.hpp"
#include "tensor/gemm_int8_vnni.hpp"
#include "tensor/workspace.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define SALNOV_INT8_AVX2 1
#endif

namespace salnov::detail {

#if defined(SALNOV_INT8_AVX2)

namespace {

// Row band handed to the thread pool; a multiple of the 4-row micro step.
constexpr int64_t kInt8RowGrain = 16;
static_assert(kInt8RowGrain % 4 == 0);

constexpr int64_t kMinParallelOps = 1 << 15;

inline uint32_t load_u32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Exact dot product over the packed layout for one (row, column) — the
/// column-tail path of every band kernel.
inline int32_t packed_dot(const uint8_t* pa_row, const int8_t* pb, int64_t n, int64_t groups,
                          int64_t j) {
  int32_t acc = 0;
  for (int64_t g = 0; g < groups; ++g) {
    const uint8_t* aq = pa_row + g * 4;
    const int8_t* bq = pb + (g * n + j) * 4;
    acc += static_cast<int32_t>(aq[0]) * bq[0] + static_cast<int32_t>(aq[1]) * bq[1] +
           static_cast<int32_t>(aq[2]) * bq[2] + static_cast<int32_t>(aq[3]) * bq[3];
  }
  return acc;
}

/// The one scalar dequant expression (fmaf keeps the bias add fused exactly
/// like the SIMD stores' fmadd).
inline float dequant_one(int32_t acc, const QuantEpilogue& epi, int64_t j) {
  float v = epi.bias_col != nullptr
                ? std::fmaf(static_cast<float>(acc), epi.scale, epi.bias_col[j])
                : static_cast<float>(acc) * epi.scale;
  if (epi.relu) v = v > 0.0f ? v : 0.0f;
  return v;
}

inline void store_scalar(int32_t* c32, float* cf, int64_t idx, int32_t acc,
                         const QuantEpilogue* epi, int64_t j) {
  if (cf != nullptr) {
    cf[idx] = dequant_one(acc, *epi, j);
  } else {
    c32[idx] = acc;
  }
}

/// Stores 8 int32 accumulators at c[idx..idx+8) (columns j..j+8), raw or
/// dequantized.
inline void store_vec8(int32_t* c32, float* cf, int64_t idx, __m256i acc,
                       const QuantEpilogue* epi, int64_t j) {
  if (cf == nullptr) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c32 + idx), acc);
    return;
  }
  const __m256 scale = _mm256_set1_ps(epi->scale);
  const __m256 vf = _mm256_cvtepi32_ps(acc);
  __m256 v = epi->bias_col != nullptr
                 ? _mm256_fmadd_ps(vf, scale, _mm256_loadu_ps(epi->bias_col + j))
                 : _mm256_mul_ps(vf, scale);
  if (epi->relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
  _mm256_storeu_ps(cf + idx, v);
}

/// One 4k x 8-column step: acc += dot of the broadcast k-group against the
/// interleaved B bytes. maddubs pairs stay below 2^15 (7-bit activations),
/// so the int16 intermediate cannot saturate.
inline __m256i fma_u8s8(__m256i acc, __m256i av, __m256i bv, __m256i ones) {
  return _mm256_add_epi32(acc, _mm256_madd_epi16(_mm256_maddubs_epi16(av, bv), ones));
}

void int8_band_avx2(const uint8_t* pa, const int8_t* pb, int32_t* c32, float* cf,
                    int64_t row_begin, int64_t row_end, int64_t n, int64_t groups,
                    const QuantEpilogue* epi) {
  const __m256i ones = _mm256_set1_epi16(1);
  const int64_t stride = groups * 4;
  const int64_t n16 = n - (n % 16);
  const int64_t n32 = n - (n % 32);
  int64_t i = row_begin;
  // 4 rows x 16 columns: 8 register accumulators, B bytes loaded once per
  // row quad.
  for (; i + 4 <= row_end; i += 4) {
    const uint8_t* a_rows[4] = {pa + i * stride, pa + (i + 1) * stride, pa + (i + 2) * stride,
                                pa + (i + 3) * stride};
    for (int64_t j0 = 0; j0 < n16; j0 += 16) {
      __m256i acc[4][2];
      for (int r = 0; r < 4; ++r) acc[r][0] = acc[r][1] = _mm256_setzero_si256();
      for (int64_t g = 0; g < groups; ++g) {
        const int8_t* bg = pb + (g * n + j0) * 4;
        const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg));
        const __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg + 32));
        for (int r = 0; r < 4; ++r) {
          const __m256i av = _mm256_set1_epi32(static_cast<int>(load_u32(a_rows[r] + g * 4)));
          acc[r][0] = fma_u8s8(acc[r][0], av, b0, ones);
          acc[r][1] = fma_u8s8(acc[r][1], av, b1, ones);
        }
      }
      for (int r = 0; r < 4; ++r) {
        store_vec8(c32, cf, (i + r) * n + j0, acc[r][0], epi, j0);
        store_vec8(c32, cf, (i + r) * n + j0 + 8, acc[r][1], epi, j0 + 8);
      }
    }
    for (int64_t j = n16; j < n; ++j) {
      for (int r = 0; r < 4; ++r) {
        store_scalar(c32, cf, (i + r) * n + j, packed_dot(a_rows[r], pb, n, groups, j), epi, j);
      }
    }
  }
  // Remainder rows: 1 x 32 columns (4 accumulators) — also the batch-1
  // dense matvec path, where B streams through once.
  for (; i < row_end; ++i) {
    const uint8_t* a_row = pa + i * stride;
    for (int64_t j0 = 0; j0 < n32; j0 += 32) {
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (int64_t g = 0; g < groups; ++g) {
        const int8_t* bg = pb + (g * n + j0) * 4;
        const __m256i av = _mm256_set1_epi32(static_cast<int>(load_u32(a_row + g * 4)));
        acc0 = fma_u8s8(acc0, av, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg)), ones);
        acc1 = fma_u8s8(acc1, av,
                        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg + 32)), ones);
        acc2 = fma_u8s8(acc2, av,
                        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg + 64)), ones);
        acc3 = fma_u8s8(acc3, av,
                        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg + 96)), ones);
      }
      store_vec8(c32, cf, i * n + j0, acc0, epi, j0);
      store_vec8(c32, cf, i * n + j0 + 8, acc1, epi, j0 + 8);
      store_vec8(c32, cf, i * n + j0 + 16, acc2, epi, j0 + 16);
      store_vec8(c32, cf, i * n + j0 + 24, acc3, epi, j0 + 24);
    }
    for (int64_t j = n32; j < n; ++j) {
      store_scalar(c32, cf, i * n + j, packed_dot(a_row, pb, n, groups, j), epi, j);
    }
  }
}

using Int8BandFn = void (*)(const uint8_t*, const int8_t*, int32_t*, float*, int64_t, int64_t,
                            int64_t, int64_t, const QuantEpilogue*);

Int8BandFn band_kernel() {
  return int8_vnni_available() && int8_vnni_enabled() ? &int8_band_vnni : &int8_band_avx2;
}

}  // namespace

bool int8_simd_available() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return ok;
}

const char* int8_arch_name() {
  return int8_vnni_available() && int8_vnni_enabled() ? "avx512-vnni" : "avx2";
}

void int8_gemm(const uint8_t* a, const int8_t* b, int32_t* c32, float* cf, int64_t m,
               int64_t n, int64_t k, const QuantEpilogue* epi,
               const PackedQuantMatrix* packed_b) {
  WorkspaceScope scope;
  const int64_t groups = (k + 3) / 4;
  const int64_t a_stride = groups * 4;
  // Byte buffers carved from the float arena (64-byte aligned).
  uint8_t* pa = reinterpret_cast<uint8_t*>(scope.floats((m * a_stride + 3) / 4));
  for (int64_t i = 0; i < m; ++i) {
    std::memcpy(pa + i * a_stride, a + i * k, static_cast<size_t>(k));
    std::memset(pa + i * a_stride + k, 0, static_cast<size_t>(a_stride - k));
  }
  const int8_t* pb;
  if (packed_b != nullptr) {
    pb = packed_b->data.data();
  } else {
    int8_t* scratch = reinterpret_cast<int8_t*>(scope.floats((groups * n * 4 + 3) / 4));
    pack_quant_b_into(b, k, n, scratch);
    pb = scratch;
  }

  const Int8BandFn band = band_kernel();
  if (m > kInt8RowGrain && m * n * k >= kMinParallelOps && parallel::num_threads() > 1) {
    parallel::parallel_for(0, m, kInt8RowGrain, [&](int64_t row_begin, int64_t row_end) {
      band(pa, pb, c32, cf, row_begin, row_end, n, groups, epi);
    });
  } else {
    band(pa, pb, c32, cf, 0, m, n, groups, epi);
  }
}

#else  // no SIMD support compiled in: runtime-safe stubs

bool int8_simd_available() { return false; }
const char* int8_arch_name() { return "none"; }
void int8_gemm(const uint8_t*, const int8_t*, int32_t*, float*, int64_t, int64_t, int64_t,
               const QuantEpilogue*, const PackedQuantMatrix*) {}

#endif

/// B packed as k4-interleaved column groups (layout at the top of the
/// file). Plain C++ — valid on any CPU, shared by every band kernel.
void pack_quant_b_into(const int8_t* b, int64_t k, int64_t n, int8_t* packed) {
  const int64_t groups = (k + 3) / 4;
  std::memset(packed, 0, static_cast<size_t>(groups * n * 4));
  for (int64_t kk = 0; kk < k; ++kk) {
    const int8_t* b_row = b + kk * n;
    int8_t* dst = packed + (kk / 4) * n * 4 + (kk % 4);
    for (int64_t j = 0; j < n; ++j) dst[j * 4] = b_row[j];
  }
}

namespace {

std::atomic<bool>& vnni_flag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

}  // namespace

bool int8_vnni_enabled() { return vnni_flag().load(std::memory_order_relaxed); }

void set_int8_vnni(bool enabled) { vnni_flag().store(enabled, std::memory_order_relaxed); }

}  // namespace salnov::detail
