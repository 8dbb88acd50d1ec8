// Internal interface of the int8 SIMD GEMM kernels (AVX2 maddubs, with an
// AVX-512 VNNI dpbusd band swapped in at dispatch when the CPU has it).
// Only gemm_int8.cpp calls in, after checking int8_simd_available().
#pragma once

#include <cstdint>

#include "tensor/gemm_int8.hpp"

namespace salnov::detail {

bool int8_simd_available();

/// "avx2", "avx512-vnni", or "none" — the band kernel dispatch would pick
/// right now.
const char* int8_arch_name();

/// A/B timing toggle for the VNNI band (off reverts to the AVX2 maddubs
/// band; results are bit-identical either way).
bool int8_vnni_enabled();
void set_int8_vnni(bool enabled);

/// C = A x B with exact int32 accumulation. Exactly one of c32 / cf is
/// non-null: c32 receives raw accumulators, cf receives the dequantized
/// floats per `epi` (required non-null with cf). `packed_b`, when non-null,
/// skips the per-call B packing. Dimensions are pre-checked by the
/// dispatcher (m, n, k >= 1; k <= kMaxQuantK).
void int8_gemm(const uint8_t* a, const int8_t* b, int32_t* c32, float* cf, int64_t m,
               int64_t n, int64_t k, const QuantEpilogue* epi,
               const PackedQuantMatrix* packed_b);

/// pack_quant_b backend (shared k4-interleaved layout; safe on any CPU).
void pack_quant_b_into(const int8_t* b, int64_t k, int64_t n, int8_t* packed);

}  // namespace salnov::detail
