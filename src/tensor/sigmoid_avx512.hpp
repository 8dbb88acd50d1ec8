// AVX-512 sigmoid kernel: sigmoid_f32 (sigmoid.hpp) on 16 lanes at a time.
//
// Each lane evaluates exactly the scalar form's steps — widened to double,
// the same unfused multiplies and adds, the one fused r, the same table
// entry — so the kernel is bit-identical to sigmoid_f32 on every input.
//
// This TU is the only one compiled with -mavx512f -mavx512dq; callers must
// check sigmoid_avx512_available() (the runtime CPUID check) first.
#pragma once

#include <cstdint>

namespace salnov::detail {

/// True when the binary carries the AVX-512 sigmoid kernel and the CPU
/// supports AVX-512F and AVX-512DQ.
bool sigmoid_avx512_available();

/// Replaces each of data[0, n) by its sigmoid. Only call when
/// sigmoid_avx512_available().
void sigmoid_avx512(float* data, int64_t n);

}  // namespace salnov::detail
