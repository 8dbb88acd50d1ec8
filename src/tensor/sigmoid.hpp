// The library's one exp and one sigmoid, whose bits do not depend on libm.
//
// exp_f32 evaluates glibc 2.36's expf algorithm step for step; on x86-64
// with FMA it returns the same float as that glibc's std::exp for all 2^32
// inputs. Sigmoid layers compute 1 / (1 + exp_f32(-v)) instead of calling
// std::exp, so a score does not depend on which libm, or which expf variant
// the C library picks for the CPU.
//
// sigmoid_inplace runs 16 lanes at a time on AVX-512 when the SIMD GEMM kernel
// is active and the CPU has AVX-512F/DQ, and the scalar form otherwise. The
// two are bit-identical on all 2^32 inputs, NaN payloads included
// (sigmoid_test pins that exhaustively), so the dispatch is a speed choice
// only.
#pragma once

#include <cstdint>

namespace salnov {

/// exp(x) rounded to float by glibc 2.36's expf algorithm: +inf above
/// 0x1.62e42ep6f, 0 below -0x1.9fe368p6f (and at -inf), x + x for NaN.
float exp_f32(float x);

/// 1 / (1 + exp_f32(-v)), negating v by flipping its sign bit.
float sigmoid_f32(float v);

/// Replaces each of data[0, n) by its sigmoid_f32, on the AVX-512 kernel
/// when active_gemm_kernel() is kSimd and the CPU supports it.
void sigmoid_inplace(float* data, int64_t n);

namespace detail {

// The expf constants shared by the scalar form and the vector kernel.

/// 2^(i/32) table: bits(2^(i/32)) - (i << 47), so that adding k << 47 to
/// entry k % 32 gives 2^(k/32) for the integer k the reduction produces.
inline constexpr uint64_t kExpTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
inline constexpr double kExpInvLn2N = 0x1.71547652b82fep+0 * 32;  ///< 32 / ln 2
inline constexpr double kExpShift = 0x1.8p52;  ///< adding it rounds to an integer
/// Cubic for 2^(r/32) - 1 on |r| <= 1/2: C0 r^3 + C1 r^2 + C2 r.
inline constexpr double kExpC0 = 0x1.c6af84b912394p-5 / (32.0 * 32.0 * 32.0);
inline constexpr double kExpC1 = 0x1.ebfce50fac4f3p-3 / (32.0 * 32.0);
inline constexpr double kExpC2 = 0x1.62e42ff0c52d6p-1 / 32.0;
/// Above this exp overflows float; below kExpUnderflow it rounds to 0.
inline constexpr float kExpOverflow = 0x1.62e42ep6f;
inline constexpr float kExpUnderflow = -0x1.9fe368p6f;

}  // namespace detail

}  // namespace salnov
