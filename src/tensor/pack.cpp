#include "tensor/pack.hpp"

#include <cstring>

namespace salnov {

void pack_a_tile(const float* a, int64_t rows, int64_t k, int64_t lda, float* out) {
  for (int64_t kk = 0; kk < k; ++kk) {
    float* dst = out + kk * kGemmMR;
    for (int64_t r = 0; r < kGemmMR; ++r) {
      dst[r] = r < rows ? a[r * lda + kk] : 0.0f;
    }
  }
}

void pack_a_panels_into(const float* a, int64_t m, int64_t k, float* out) {
  const int64_t panels = gemm_row_panels(m);
  for (int64_t p = 0; p < panels; ++p) {
    const int64_t row0 = p * kGemmMR;
    const int64_t rows = m - row0 < kGemmMR ? m - row0 : kGemmMR;
    pack_a_tile(a + row0 * k, rows, k, k, out + p * kGemmMR * k);
  }
}

void pack_b_panels_into(const float* b, int64_t k, int64_t n, float* out) {
  const int64_t panels = gemm_col_panels(n);
  for (int64_t p = 0; p < panels; ++p) {
    const int64_t col0 = p * kGemmNR;
    const int64_t cols = n - col0 < kGemmNR ? n - col0 : kGemmNR;
    float* panel = out + p * kGemmNR * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* src = b + kk * n + col0;
      float* dst = panel + kk * kGemmNR;
      for (int64_t j = 0; j < cols; ++j) dst[j] = src[j];
      for (int64_t j = cols; j < kGemmNR; ++j) dst[j] = 0.0f;
    }
  }
}

void copy_strided(const float* __restrict src, int64_t stride, int64_t count,
                  float* __restrict dst) {
  if (stride == 1) {
    std::memcpy(dst, src, static_cast<size_t>(count) * sizeof(float));
  } else if (stride == 2) {
    for (int64_t i = 0; i < count; ++i) dst[i] = src[2 * i];
  } else {
    for (int64_t i = 0; i < count; ++i) dst[i] = src[i * stride];
  }
}

PackedMatrix pack_a_panels(const float* a, int64_t m, int64_t k) {
  PackedMatrix packed;
  packed.kind = PackedMatrix::Kind::kAPanels;
  packed.rows = m;
  packed.cols = k;
  packed.data.resize(static_cast<size_t>(packed_a_floats(m, k)));
  pack_a_panels_into(a, m, k, packed.data.data());
  return packed;
}

PackedMatrix pack_b_panels(const float* b, int64_t k, int64_t n) {
  PackedMatrix packed;
  packed.kind = PackedMatrix::Kind::kBPanels;
  packed.rows = k;
  packed.cols = n;
  packed.data.resize(static_cast<size_t>(packed_b_floats(k, n)));
  pack_b_panels_into(b, k, n, packed.data.data());
  return packed;
}

}  // namespace salnov
