// AVX-512 sigmoid kernel (see sigmoid_avx512.hpp for the contract).
//
// The library is compiled with -ffp-contract=off (src/CMakeLists.txt): GCC
// would otherwise fuse the vector multiply-adds below, and each must round
// on its own as in exp_f32. The table lookup is two permutex2var calls
// (entries 0-15 and 16-31) and a blend on bit 4 of the index. Where a plain
// intrinsic would pass GCC an undefined merge source (which GCC 12 warns
// about), the zero-masking form over all lanes is used; it is the same
// instruction.
#include "tensor/sigmoid_avx512.hpp"

#include "tensor/sigmoid.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)
#include <immintrin.h>
#define SALNOV_SIGMOID_AVX512 1
#endif

namespace salnov::detail {

#if defined(SALNOV_SIGMOID_AVX512)

namespace {

constexpr __mmask8 kAll8 = 0xff;

/// exp_f32's general path on eight floats, widened to double and rounded
/// back; lanes outside (kExpUnderflow, kExpOverflow) and NaNs are left to
/// the caller.
inline __m256 exp_general(__m256 x, const __m512i table[4]) {
  const __m512d inv_ln2_n = _mm512_set1_pd(kExpInvLn2N);
  const __m512d shift = _mm512_set1_pd(kExpShift);
  const __m512d xd = _mm512_maskz_cvtps_pd(kAll8, x);
  __m512d kd = _mm512_add_pd(_mm512_mul_pd(inv_ln2_n, xd), shift);
  const __m512i ki = _mm512_castpd_si512(kd);
  kd = _mm512_sub_pd(kd, shift);
  const __m512d r = _mm512_fmsub_pd(inv_ln2_n, xd, kd);
  const __m512i low = _mm512_permutex2var_epi64(table[0], ki, table[1]);
  const __m512i high = _mm512_permutex2var_epi64(table[2], ki, table[3]);
  const __mmask8 upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
  const __m512i t = _mm512_mask_blend_epi64(upper, low, high);
  const __m512i k_bits = _mm512_maskz_slli_epi64(kAll8, ki, 47);
  const __m512d s = _mm512_castsi512_pd(_mm512_add_epi64(t, k_bits));
  const __m512d z = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(kExpC0), r), _mm512_set1_pd(kExpC1));
  const __m512d r2 = _mm512_mul_pd(r, r);
  const __m512d y = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(kExpC2), r), _mm512_set1_pd(1.0));
  const __m512d e = _mm512_mul_pd(_mm512_add_pd(_mm512_mul_pd(z, r2), y), s);
  return _mm512_maskz_cvtpd_ps(kAll8, e);
}

inline __m512 sigmoid16(__m512 v, const __m512i table[4]) {
  const __m512 x =
      _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(v), _mm512_set1_epi32(INT32_MIN)));
  const __m256 e_low = exp_general(_mm512_maskz_extractf32x8_ps(kAll8, x, 0), table);
  const __m256 e_high = exp_general(_mm512_maskz_extractf32x8_ps(kAll8, x, 1), table);
  __m512 e = _mm512_insertf32x8(_mm512_insertf32x8(_mm512_setzero_ps(), e_low, 0), e_high, 1);
  const __mmask16 over = _mm512_cmp_ps_mask(x, _mm512_set1_ps(kExpOverflow), _CMP_GT_OQ);
  const __mmask16 under = _mm512_cmp_ps_mask(x, _mm512_set1_ps(kExpUnderflow), _CMP_LT_OQ);
  const __mmask16 nan = _mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q);
  e = _mm512_mask_mov_ps(e, over, _mm512_set1_ps(__builtin_inff()));
  e = _mm512_mask_mov_ps(e, under, _mm512_setzero_ps());
  e = _mm512_mask_add_ps(e, nan, x, x);
  const __m512 one = _mm512_set1_ps(1.0f);
  return _mm512_div_ps(one, _mm512_add_ps(one, e));
}

}  // namespace

bool sigmoid_avx512_available() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512dq") != 0;
  }();
  return ok;
}

void sigmoid_avx512(float* data, int64_t n) {
  const __m512i table[4] = {
      _mm512_loadu_si512(kExpTable), _mm512_loadu_si512(kExpTable + 8),
      _mm512_loadu_si512(kExpTable + 16), _mm512_loadu_si512(kExpTable + 24)};
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(data + i, sigmoid16(_mm512_loadu_ps(data + i), table));
  }
  if (i < n) {
    const auto tail = static_cast<__mmask16>((1u << static_cast<unsigned>(n - i)) - 1u);
    const __m512 v = _mm512_maskz_loadu_ps(tail, data + i);
    _mm512_mask_storeu_ps(data + i, tail, sigmoid16(v, table));
  }
}

#else  // toolchain without AVX-512: runtime-safe stubs

bool sigmoid_avx512_available() { return false; }
void sigmoid_avx512(float*, int64_t) {}

#endif

}  // namespace salnov::detail
