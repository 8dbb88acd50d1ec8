// Scalar exp/sigmoid and the sigmoid kernel dispatch (see sigmoid.hpp).
//
// The library is compiled with -ffp-contract=off: every multiply and add below
// must round on its own, as in the C library build whose results the form
// reproduces. The one contraction that build makes is spelled std::fma,
// which IEEE 754 defines as correctly rounded, so every libm agrees on it.
#include "tensor/sigmoid.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "tensor/gemm.hpp"
#include "tensor/sigmoid_avx512.hpp"

namespace salnov {

float exp_f32(float x) {
  using namespace detail;
  if (std::isnan(x)) return x + x;
  if (x > kExpOverflow) return std::numeric_limits<float>::infinity();
  if (x < kExpUnderflow) return 0.0f;
  // x * 32 / ln 2 = k + r with integer k and |r| <= 1/2; then
  // exp(x) = 2^(k/32) * 2^(r/32), the first factor from the table.
  const double xd = x;
  double kd = kExpInvLn2N * xd;
  kd = kd + kExpShift;  // rounds to an integer held in the low mantissa bits
  const uint64_t ki = std::bit_cast<uint64_t>(kd);
  kd -= kExpShift;
  const double r = std::fma(kExpInvLn2N, xd, -kd);
  const double s = std::bit_cast<double>(kExpTable[ki % 32] + (ki << 47));
  const double z = kExpC0 * r + kExpC1;
  const double r2 = r * r;
  const double y = kExpC2 * r + 1.0;
  return static_cast<float>((z * r2 + y) * s);
}

float sigmoid_f32(float v) {
  // Negate by flipping the sign bit: 0 - v would hand a NaN on with its sign
  // unchanged, and the NaN a sigmoid returns would then have the other sign.
  const float neg = std::bit_cast<float>(std::bit_cast<uint32_t>(v) ^ 0x80000000u);
  return 1.0f / (1.0f + exp_f32(neg));
}

void sigmoid_inplace(float* data, int64_t n) {
  if (active_gemm_kernel() == GemmKernel::kSimd && detail::sigmoid_avx512_available()) {
    detail::sigmoid_avx512(data, n);
    return;
  }
  for (int64_t i = 0; i < n; ++i) data[i] = sigmoid_f32(data[i]);
}

}  // namespace salnov
