#include "tensor/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "parallel/parallel_for.hpp"
#include "tensor/gemm_simd.hpp"

namespace salnov {
namespace {

// Cache-blocking parameters of the scalar kernel. The inner loop walks B
// row-wise so that the compiler can vectorize over `n`; blocking over k
// keeps the working set of B rows in L1/L2.
constexpr int64_t kBlockM = 32;
constexpr int64_t kBlockK = 128;

// Row-chunk size handed to the thread pool. Fixed (never derived from the
// thread count) so the chunk partition — and with it every bit of output —
// is identical at any SALNOV_THREADS setting. Each chunk owns a disjoint
// band of C's rows, so chunks never write the same cache line's worth of
// output rows.
constexpr int64_t kRowGrain = 16;

// Below this many multiply-adds the pool dispatch overhead dominates; the
// serial path walks the same per-row arithmetic, so results are unchanged.
constexpr int64_t kMinParallelFlops = 1 << 15;

/// C rows [row_begin, row_end) += A x B, cache-blocked.
void gemm_rows(const float* a, const float* b, float* c, int64_t row_begin, int64_t row_end,
               int64_t n, int64_t k) {
  for (int64_t i0 = row_begin; i0 < row_end; i0 += kBlockM) {
    const int64_t i_end = std::min(i0 + kBlockM, row_end);
    for (int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const int64_t k_end = std::min(k0 + kBlockK, k);
      for (int64_t i = i0; i < i_end; ++i) {
        float* c_row = c + i * n;
        for (int64_t kk = k0; kk < k_end; ++kk) {
          const float a_ik = a[i * k + kk];
          if (a_ik == 0.0f) continue;  // ReLU outputs make sparse rows common.
          const float* b_row = b + kk * n;
          for (int64_t j = 0; j < n; ++j) {
            c_row[j] += a_ik * b_row[j];
          }
        }
      }
    }
  }
}

/// Fused-epilogue pass over C rows [row_begin, row_end): +bias_row[i],
/// +bias_col[j], then ReLU — each term applied only when present, in the
/// exact order (and with the exact arithmetic) of the pre-fusion
/// bias-add loops in the layers.
void apply_epilogue_rows(float* c, int64_t row_begin, int64_t row_end, int64_t n,
                         const GemmEpilogue& epi) {
  if (epi.empty()) return;
  for (int64_t i = row_begin; i < row_end; ++i) {
    float* row = c + i * n;
    if (epi.bias_row != nullptr) {
      const float br = epi.bias_row[i];
      for (int64_t j = 0; j < n; ++j) row[j] += br;
    }
    if (epi.bias_col != nullptr) {
      for (int64_t j = 0; j < n; ++j) row[j] += epi.bias_col[j];
    }
    if (epi.relu) {
      for (int64_t j = 0; j < n; ++j) row[j] = row[j] > 0.0f ? row[j] : 0.0f;
    }
  }
}

void check_dims(int64_t m, int64_t n, int64_t k) {
  if (m < 0 || n < 0 || k < 0) {
    throw std::invalid_argument("gemm: negative dimension");
  }
}

/// True when the problem is worth fanning out to the pool.
bool parallel_worthwhile(int64_t m, int64_t n, int64_t k) {
  return m > kRowGrain && m * n * k >= kMinParallelFlops;
}

GemmKernel resolve_kernel_from_env() {
  const char* env = std::getenv("SALNOV_GEMM_KERNEL");
  std::string value = env != nullptr ? env : "auto";
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
  if (value == "scalar") return GemmKernel::kScalar;
  if (value != "simd" && value != "auto" && !value.empty()) {
    std::fprintf(stderr, "salnov: unknown SALNOV_GEMM_KERNEL '%s'; using auto\n", value.c_str());
  }
  return detail::simd_gemm_available() ? GemmKernel::kSimd : GemmKernel::kScalar;
}

std::atomic<GemmKernel>& kernel_state() {
  static std::atomic<GemmKernel> state{resolve_kernel_from_env()};
  return state;
}

void validate_pack(const PackedMatrix* packed_b, int64_t n, int64_t k) {
  if (packed_b != nullptr &&
      (packed_b->kind != PackedMatrix::Kind::kBPanels || packed_b->rows != k ||
       packed_b->cols != n)) {
    throw std::logic_error("gemm_ex: packed B does not match the [k, n] operand");
  }
}

}  // namespace

GemmKernel active_gemm_kernel() { return kernel_state().load(std::memory_order_relaxed); }

void set_gemm_kernel(GemmKernel kernel) {
  if (kernel == GemmKernel::kSimd && !detail::simd_gemm_available()) {
    throw std::invalid_argument("set_gemm_kernel: SIMD kernel unavailable on this CPU");
  }
  kernel_state().store(kernel, std::memory_order_relaxed);
}

bool gemm_simd_available() { return detail::simd_gemm_available(); }

const char* gemm_kernel_name(GemmKernel kernel) {
  return kernel == GemmKernel::kScalar ? "scalar" : detail::simd_arch_name();
}

bool gemm_weight_packing_enabled() { return true; }

void gemm_ex(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             const GemmEpilogue& epilogue, const PackedMatrix* packed_b, bool b_finite) {
  check_dims(m, n, k);
  validate_pack(packed_b, n, k);
  if (m == 0 || n == 0) return;  // empty output: nothing to touch (c may be null)
  if (k == 0) {
    // A [m, 0] x B [0, n] is a zero matrix; a and b may be null. The
    // epilogue still applies (C = 0 + bias, then ReLU).
    std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
    apply_epilogue_rows(c, 0, m, n, epilogue);
    return;
  }
  if (active_gemm_kernel() == GemmKernel::kSimd) {
    detail::simd_gemm(a, b, c, m, n, k, epilogue, packed_b, b_finite);
    return;
  }
  if (!parallel_worthwhile(m, n, k)) {
    std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
    gemm_rows(a, b, c, 0, m, n, k);
    apply_epilogue_rows(c, 0, m, n, epilogue);
    return;
  }
  parallel::parallel_for(0, m, kRowGrain, [&](int64_t row_begin, int64_t row_end) {
    std::memset(c + row_begin * n, 0, static_cast<size_t>((row_end - row_begin) * n) * sizeof(float));
    gemm_rows(a, b, c, row_begin, row_end, n, k);
    apply_epilogue_rows(c, row_begin, row_end, n, epilogue);
  });
}

void conv_gemm(const PackedMatrix& packed_w, const float* x, const ConvShape& shape, float* out,
               const GemmEpilogue& epilogue) {
  if (!detail::simd_gemm_available()) {
    throw std::logic_error("conv_gemm: SIMD kernel unavailable on this CPU");
  }
  if (packed_w.kind != PackedMatrix::Kind::kAPanels || packed_w.rows <= 0 ||
      packed_w.cols != shape.channels * shape.kernel_h * shape.kernel_w) {
    throw std::logic_error("conv_gemm: packed weight does not match the convolution shape");
  }
  if (shape.channels <= 0 || shape.kernel_h <= 0 || shape.kernel_w <= 0 || shape.stride <= 0 ||
      shape.padding < 0 || shape.in_h < 0 || shape.in_w < 0 ||
      shape.in_h + 2 * shape.padding < shape.kernel_h ||
      shape.in_w + 2 * shape.padding < shape.kernel_w) {
    throw std::invalid_argument("conv_gemm: empty or invalid convolution shape");
  }
  detail::simd_conv_gemm(packed_w, x, shape, out, epilogue);
}

void gemm(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k) {
  gemm_ex(a, b, c, m, n, k, GemmEpilogue{});
}

void gemm_nt_accumulate(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k) {
  check_dims(m, n, k);
  if (m == 0 || n == 0 || k == 0) return;
  // C[i][j] += dot(A row i, B row j): both rows contiguous, vectorizes well.
  const auto rows = [&](int64_t row_begin, int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float* a_row = a + i * k;
      float* c_row = c + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* b_row = b + j * k;
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
        c_row[j] += acc;
      }
    }
  };
  if (!parallel_worthwhile(m, n, k)) {
    rows(0, m);
    return;
  }
  parallel::parallel_for(0, m, kRowGrain, rows);
}

void gemm_tn_accumulate(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k) {
  check_dims(m, n, k);
  if (m == 0 || n == 0 || k == 0) return;
  // C[i][j] += sum_k A[k][i] * B[k][j]. Parallel chunks own disjoint row
  // bands of C; within a band k stays the outermost loop so B rows stream
  // and every element accumulates in the same (ascending k) order as the
  // serial path.
  const auto rows = [&](int64_t row_begin, int64_t row_end) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* a_row = a + kk * m;
      const float* b_row = b + kk * n;
      for (int64_t i = row_begin; i < row_end; ++i) {
        const float a_ki = a_row[i];
        if (a_ki == 0.0f) continue;
        float* c_row = c + i * n;
        for (int64_t j = 0; j < n; ++j) c_row[j] += a_ki * b_row[j];
      }
    }
  };
  if (!parallel_worthwhile(m, n, k)) {
    rows(0, m);
    return;
  }
  parallel::parallel_for(0, m, kRowGrain, rows);
}

}  // namespace salnov
