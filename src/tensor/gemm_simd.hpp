// Internal interface of the SIMD GEMM kernel translation unit.
//
// gemm_simd.cpp is the only file compiled with architecture flags
// (-mavx2 -mfma on x86); everything else, including the dispatcher, stays
// portable. When the TU is built without SIMD support the functions below
// degrade to "unavailable" stubs, so linking is unconditional.
#pragma once

#include <cstdint>

#include "tensor/gemm.hpp"

namespace salnov::detail {

/// True when the running CPU can execute the compiled SIMD kernel.
bool simd_gemm_available();

/// Architecture tag of the compiled kernel: "avx2", "avx512", "neon", or
/// "none". "avx512" means the tile loop runs the bit-identical AVX-512
/// micro-kernel upgrade (gemm_avx512.hpp).
const char* simd_arch_name();

/// Whether the AVX-512 tile micro-kernel is used when hardware supports it.
/// Defaults to on; the setter disables it. The two tile kernels are
/// bit-identical — the switch exists for A/B timing and the identity test,
/// not for correctness.
bool gemm_avx512_tile_enabled();
void set_gemm_avx512_tile(bool enabled);

/// C = A * B with fused epilogue; the SIMD counterpart of gemm_ex. Caller
/// guarantees m, n, k > 0 and simd_gemm_available(). Packed operands, when
/// non-null, are trusted to match a/b (validated by the dispatcher).
void simd_gemm(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
               const GemmEpilogue& epilogue, const PackedMatrix* packed_a,
               const PackedMatrix* packed_b);

}  // namespace salnov::detail
