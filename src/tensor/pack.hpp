// Panel packing for the register-tiled GEMM micro-kernel.
//
// The SIMD kernel computes C in MR x NR register tiles (6 rows x 16
// columns). Both operands are repacked so the kernel's inner loop reads
// contiguous memory:
//   * A [m, k] row-major  -> row panels: for each group of 6 rows,
//     k-major storage ap[kk * 6 + r], rows past m zero-padded.
//   * B [k, n] row-major  -> column panels: for each group of 16 columns,
//     k-major storage bp[kk * 16 + j], columns past n zero-padded.
// Zero padding keeps tail tiles on the exact same code path as full tiles
// (padded lanes contribute exact zeros), which is what makes the packed and
// unpacked paths bit-identical and the layout kernel-arch independent.
//
// PackedMatrix is the long-lived form used for one-time weight pre-packing
// in Dense/Conv2d inference; the *_into variants write into caller scratch
// (workspace arena) for per-call packing of activations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace salnov {

inline constexpr int64_t kGemmMR = 6;   ///< micro-kernel rows (A panel height)
inline constexpr int64_t kGemmNR = 16;  ///< micro-kernel columns (B panel width)

inline int64_t gemm_row_panels(int64_t m) { return (m + kGemmMR - 1) / kGemmMR; }
inline int64_t gemm_col_panels(int64_t n) { return (n + kGemmNR - 1) / kGemmNR; }

/// Scratch floats needed by pack_a_panels_into / pack_b_panels_into.
inline int64_t packed_a_floats(int64_t m, int64_t k) { return gemm_row_panels(m) * kGemmMR * k; }
inline int64_t packed_b_floats(int64_t k, int64_t n) { return gemm_col_panels(n) * kGemmNR * k; }

/// A pre-packed operand (panel layout above) plus the logical shape it was
/// packed from, so call sites can validate before use.
struct PackedMatrix {
  enum class Kind { kNone, kAPanels, kBPanels };

  Kind kind = Kind::kNone;
  int64_t rows = 0;  ///< logical rows of the source matrix
  int64_t cols = 0;  ///< logical cols of the source matrix
  std::vector<float> data;

  bool empty() const { return kind == Kind::kNone; }
};

/// Packs one MR-row panel: `rows` (<= kGemmMR) rows of `a` (leading
/// dimension `lda`), k-major with zero-padded rows. `out` must hold
/// kGemmMR * k floats.
void pack_a_tile(const float* a, int64_t rows, int64_t k, int64_t lda, float* out);

/// Packs all row panels of A [m, k] into `out` (packed_a_floats(m, k)).
void pack_a_panels_into(const float* a, int64_t m, int64_t k, float* out);

/// Packs all column panels of B [k, n] into `out` (packed_b_floats(k, n)).
void pack_b_panels_into(const float* b, int64_t k, int64_t n, float* out);

/// dst[i] = src[i * stride] for i in [0, count): the row copy of the
/// convolution operand builders (Conv2d's im2col, conv_gemm's phase split).
/// Stride 1 is a memcpy; stride 2 (PilotNet's 5x5 layers) a constant-stride
/// loop the compiler can vectorise.
void copy_strided(const float* __restrict src, int64_t stride, int64_t count,
                  float* __restrict dst);

/// Heap-owning variants for one-time weight pre-packing.
PackedMatrix pack_a_panels(const float* a, int64_t m, int64_t k);
PackedMatrix pack_b_panels(const float* b, int64_t k, int64_t n);

}  // namespace salnov
