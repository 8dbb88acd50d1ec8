#include "tensor/gemm_int8.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "parallel/parallel_for.hpp"
#include "tensor/gemm_int8_simd.hpp"
#include "tensor/workspace.hpp"

namespace salnov {
namespace {

// Same fixed row grain / parallel threshold scheme as the float dispatcher.
// Fixed grain keeps the partition a pure function of the shape; with exact
// integer accumulation any partition is bit-identical anyway, but sharing
// the float kernels' policy keeps the threading behavior predictable.
constexpr int64_t kRowGrain = 16;
constexpr int64_t kMinParallelOps = 1 << 15;

/// C rows [row_begin, row_end) = A x B, exact int32. Walks B row-wise so the
/// inner loop vectorizes over n; skipping zero activations (ReLU outputs)
/// cannot change the sum.
void scalar_rows(const uint8_t* a, const int8_t* b, int32_t* c, int64_t row_begin,
                 int64_t row_end, int64_t n, int64_t k) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    int32_t* c_row = c + i * n;
    std::memset(c_row, 0, static_cast<size_t>(n) * sizeof(int32_t));
    const uint8_t* a_row = a + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const int32_t a_ik = a_row[kk];
      if (a_ik == 0) continue;
      const int8_t* b_row = b + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] += a_ik * static_cast<int32_t>(b_row[j]);
      }
    }
  }
}

/// float(acc) * scale [fmaf + bias] (+ ReLU) — the one dequant expression
/// every kernel applies per element. fmaf matches the SIMD stores' fmadd
/// bit-for-bit (correctly rounded), independent of compiler contraction.
void dequant_rows(const int32_t* c32, float* cf, int64_t row_begin, int64_t row_end,
                  int64_t n, const QuantEpilogue& epi) {
  for (int64_t i = row_begin; i < row_end; ++i) {
    const int32_t* src = c32 + i * n;
    float* dst = cf + i * n;
    for (int64_t j = 0; j < n; ++j) {
      float v = epi.bias_col != nullptr
                    ? std::fmaf(static_cast<float>(src[j]), epi.scale, epi.bias_col[j])
                    : static_cast<float>(src[j]) * epi.scale;
      if (epi.relu) v = v > 0.0f ? v : 0.0f;
      dst[j] = v;
    }
  }
}

void check_dims(int64_t m, int64_t n, int64_t k, const PackedQuantMatrix* packed_b) {
  if (m < 0 || n < 0 || k < 0) {
    throw std::invalid_argument("gemm_u8s8: negative dimension");
  }
  if (k > kMaxQuantK) {
    throw std::invalid_argument("gemm_u8s8: k too large for exact int32 accumulation");
  }
  if (packed_b != nullptr && (packed_b->rows != k || packed_b->cols != n)) {
    throw std::logic_error("gemm_u8s8: packed B does not match the [k, n] operand");
  }
}

std::atomic<GemmInt8Kernel>& kernel_state() {
  static std::atomic<GemmInt8Kernel> state{
      detail::int8_simd_available() ? GemmInt8Kernel::kSimd : GemmInt8Kernel::kScalar};
  return state;
}

/// Runs the scalar kernel into c32 (caller-provided full [m, n] buffer) and
/// optionally dequantizes into cf, fanned out over fixed row bands.
void scalar_gemm(const uint8_t* a, const int8_t* b, int32_t* c32, float* cf, int64_t m,
                 int64_t n, int64_t k, const QuantEpilogue* epi) {
  const auto band = [&](int64_t row_begin, int64_t row_end) {
    scalar_rows(a, b, c32, row_begin, row_end, n, k);
    if (cf != nullptr) dequant_rows(c32, cf, row_begin, row_end, n, *epi);
  };
  if (m > kRowGrain && m * n * k >= kMinParallelOps) {
    parallel::parallel_for(0, m, kRowGrain, band);
  } else {
    band(0, m);
  }
}

}  // namespace

GemmInt8Kernel active_gemm_int8_kernel() { return kernel_state().load(std::memory_order_relaxed); }

void set_gemm_int8_kernel(GemmInt8Kernel kernel) {
  if (kernel == GemmInt8Kernel::kSimd && !detail::int8_simd_available()) {
    throw std::invalid_argument("set_gemm_int8_kernel: SIMD kernel unavailable on this CPU");
  }
  kernel_state().store(kernel, std::memory_order_relaxed);
}

bool gemm_int8_simd_available() { return detail::int8_simd_available(); }

const char* gemm_int8_kernel_name(GemmInt8Kernel kernel) {
  return kernel == GemmInt8Kernel::kScalar ? "scalar" : detail::int8_arch_name();
}

PackedQuantMatrix pack_quant_b(const int8_t* b, int64_t k, int64_t n) {
  if (k < 0 || n < 0) throw std::invalid_argument("pack_quant_b: negative dimension");
  PackedQuantMatrix packed;
  packed.rows = k;
  packed.cols = n;
  packed.data.resize(static_cast<size_t>(((k + 3) / 4) * n * 4));
  if (k > 0 && n > 0) detail::pack_quant_b_into(b, k, n, packed.data.data());
  return packed;
}

void gemm_u8s8(const uint8_t* a, const int8_t* b, int32_t* c, int64_t m, int64_t n, int64_t k,
               const PackedQuantMatrix* packed_b) {
  check_dims(m, n, k, packed_b);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(int32_t));
    return;
  }
  if (active_gemm_int8_kernel() == GemmInt8Kernel::kSimd) {
    detail::int8_gemm(a, b, c, nullptr, m, n, k, nullptr, packed_b);
    return;
  }
  scalar_gemm(a, b, c, nullptr, m, n, k, nullptr);
}

void gemm_u8s8_dequant(const uint8_t* a, const int8_t* b, float* c, int64_t m, int64_t n,
                       int64_t k, const QuantEpilogue& epilogue,
                       const PackedQuantMatrix* packed_b) {
  check_dims(m, n, k, packed_b);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // Zero accumulators: the epilogue alone defines the output.
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float v = epilogue.bias_col != nullptr ? epilogue.bias_col[j] : 0.0f;
        if (epilogue.relu) v = v > 0.0f ? v : 0.0f;
        c[i * n + j] = v;
      }
    }
    return;
  }
  if (active_gemm_int8_kernel() == GemmInt8Kernel::kSimd) {
    detail::int8_gemm(a, b, nullptr, c, m, n, k, &epilogue, packed_b);
    return;
  }
  WorkspaceScope scope;
  // i32 scratch carved from the float arena (same element size).
  int32_t* c32 = reinterpret_cast<int32_t*>(scope.floats(m * n));
  scalar_gemm(a, b, c32, c, m, n, k, &epilogue);
}

}  // namespace salnov
