// AVX-512 VNNI int8 band kernel: vpdpbusd accumulates each 4-byte k-group's
// u8 x s8 dot product straight into the int32 lanes — no int16 intermediate
// at all, so exactness needs no range argument. Operates on the same
// k4-interleaved packed layout as the AVX2 band (see gemm_int8_simd.cpp);
// 64 contiguous packed-B bytes cover one k-group of 16 columns.
//
// This TU is the only one compiled with AVX-512 VNNI flags; callers check
// int8_vnni_available() before dispatching in, keeping the binary
// runtime-safe on CPUs without the extension.
#include "tensor/gemm_int8_vnni.hpp"

#include <cmath>
#include <cstring>

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)
#include <immintrin.h>
#define SALNOV_INT8_VNNI 1
#endif

namespace salnov::detail {

#if defined(SALNOV_INT8_VNNI)

namespace {

inline uint32_t load_u32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

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

inline float dequant_one(int32_t acc, const QuantEpilogue& epi, int64_t j) {
  float v = epi.bias_col != nullptr
                ? std::fmaf(static_cast<float>(acc), epi.scale, epi.bias_col[j])
                : static_cast<float>(acc) * epi.scale;
  if (epi.relu) v = v > 0.0f ? v : 0.0f;
  return v;
}

/// Stores 16 int32 accumulators at c[idx..idx+16) (columns j..j+16).
inline void store_vec16(int32_t* c32, float* cf, int64_t idx, __m512i acc,
                        const QuantEpilogue* epi, int64_t j) {
  if (cf == nullptr) {
    _mm512_storeu_si512(c32 + idx, acc);
    return;
  }
  // Zero-masking forms over all lanes: the same instructions as the plain
  // intrinsics, which pass GCC 12 an undefined merge source it warns about.
  constexpr __mmask16 kAllLanes = 0xffff;
  const __m512 scale = _mm512_set1_ps(epi->scale);
  const __m512 vf = _mm512_maskz_cvtepi32_ps(kAllLanes, acc);
  __m512 v = epi->bias_col != nullptr
                 ? _mm512_fmadd_ps(vf, scale, _mm512_loadu_ps(epi->bias_col + j))
                 : _mm512_mul_ps(vf, scale);
  if (epi->relu) v = _mm512_maskz_max_ps(kAllLanes, v, _mm512_setzero_ps());
  _mm512_storeu_ps(cf + idx, v);
}

}  // namespace

bool int8_vnni_available() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512vnni");
  }();
  return ok;
}

void int8_band_vnni(const uint8_t* pa, const int8_t* pb, int32_t* c32, float* cf,
                    int64_t row_begin, int64_t row_end, int64_t n, int64_t groups,
                    const QuantEpilogue* epi) {
  const int64_t stride = groups * 4;
  const int64_t n32 = n - (n % 32);
  const int64_t n16 = n - (n % 16);
  int64_t i = row_begin;
  // 4 rows x 32 columns: 8 zmm accumulators, 2 B loads per k-group.
  for (; i + 4 <= row_end; i += 4) {
    const uint8_t* a_rows[4] = {pa + i * stride, pa + (i + 1) * stride, pa + (i + 2) * stride,
                                pa + (i + 3) * stride};
    for (int64_t j0 = 0; j0 < n32; j0 += 32) {
      __m512i acc[4][2];
      for (int r = 0; r < 4; ++r) acc[r][0] = acc[r][1] = _mm512_setzero_si512();
      for (int64_t g = 0; g < groups; ++g) {
        const int8_t* bg = pb + (g * n + j0) * 4;
        const __m512i b0 = _mm512_loadu_si512(bg);
        const __m512i b1 = _mm512_loadu_si512(bg + 64);
        for (int r = 0; r < 4; ++r) {
          const __m512i av = _mm512_set1_epi32(static_cast<int>(load_u32(a_rows[r] + g * 4)));
          acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], av, b0);
          acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], av, b1);
        }
      }
      for (int r = 0; r < 4; ++r) {
        store_vec16(c32, cf, (i + r) * n + j0, acc[r][0], epi, j0);
        store_vec16(c32, cf, (i + r) * n + j0 + 16, acc[r][1], epi, j0 + 16);
      }
    }
    for (int64_t j = n32; j < n; ++j) {
      for (int r = 0; r < 4; ++r) {
        const int32_t acc = packed_dot(a_rows[r], pb, n, groups, j);
        if (cf != nullptr) {
          cf[(i + r) * n + j] = dequant_one(acc, *epi, j);
        } else {
          c32[(i + r) * n + j] = acc;
        }
      }
    }
  }
  // Remainder rows: 1 x 16 columns; also the batch-1 dense matvec path.
  for (; i < row_end; ++i) {
    const uint8_t* a_row = pa + i * stride;
    for (int64_t j0 = 0; j0 < n16; j0 += 16) {
      __m512i acc = _mm512_setzero_si512();
      for (int64_t g = 0; g < groups; ++g) {
        const __m512i av = _mm512_set1_epi32(static_cast<int>(load_u32(a_row + g * 4)));
        acc = _mm512_dpbusd_epi32(acc, av, _mm512_loadu_si512(pb + (g * n + j0) * 4));
      }
      store_vec16(c32, cf, i * n + j0, acc, epi, j0);
    }
    for (int64_t j = n16; j < n; ++j) {
      const int32_t acc = packed_dot(a_row, pb, n, groups, j);
      if (cf != nullptr) {
        cf[i * n + j] = dequant_one(acc, *epi, j);
      } else {
        c32[i * n + j] = acc;
      }
    }
  }
}

#else  // no VNNI support compiled in: runtime-safe stubs

bool int8_vnni_available() { return false; }
void int8_band_vnni(const uint8_t*, const int8_t*, int32_t*, float*, int64_t, int64_t, int64_t,
                    int64_t, const QuantEpilogue*) {}

#endif

}  // namespace salnov::detail
