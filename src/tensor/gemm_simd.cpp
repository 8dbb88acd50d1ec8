// Register-tiled SIMD GEMM micro-kernels (AVX2+FMA).
//
// This TU and gemm_avx512.cpp are the only ones compiled with architecture
// flags; the dispatcher (gemm.cpp) checks simd_gemm_available() before
// calling in, so the binary stays runtime-safe on CPUs without the compiled
// extension. On AVX-512 hardware the tile loop swaps in the bit-identical
// AVX-512 micro-kernel (gemm_avx512.hpp); the batch-1 matvec stays AVX2.
// Other architectures (AArch64 included) build the stubs at the bottom and
// run the scalar kernel, the bit-exact reference.
//
// Kernel scheme:
//   * C is computed in kGemmMR x kGemmNR (6 x 16) register tiles from
//     panel-packed operands (see pack.hpp). Register accumulation runs over
//     the FULL k extent, so every output element is summed in ascending-k
//     order with a single rounding chain and C is written exactly once —
//     which is also where the fused bias/ReLU epilogue is applied.
//   * m == 1 (the batch-1 dense inference matvec, the autoencoder's hot
//     shape) takes a dedicated row-streaming path: packing cannot help a
//     matvec, and the tile kernel would waste 5/6 of its lanes. With finite
//     weights it streams only the B rows a nonzero input multiplies: most
//     of a ReLU output is exactly 0.
//   * Rows are fanned out over the thread pool in fixed bands of
//     kSimdRowGrain rows (a multiple of kGemmMR, so band-local tiles always
//     align with packed A panels). The partition depends only on the
//     shape, making results bit-identical at any thread count.
//   * Tail tiles are zero-padded by the packing, run the full-tile code
//     path, and only the valid rows/columns are stored back; padded lanes
//     contribute exact zeros, so packed and unpacked calls are
//     bit-identical.
//   * conv_gemm is the same tile loop with B never materialized: the input
//     sample is split once into zero-padded stride phases, and each
//     16-position column panel is gathered into a K x 16 L1 buffer by
//     masked loads, one segment per output-row run, then every pre-packed
//     A row panel runs over it. The buffer holds exactly the packed panel
//     pack_b_panels_into would make from the im2col matrix, so outputs are
//     bit-identical to im2col + gemm_ex. Where simd_gemm would split rows,
//     it hands the pool one column panel per chunk instead.
//
// Scratch (A tiles, on-the-fly B panels, phase planes) comes from the
// per-thread workspace arena: after the first call at a given shape the
// kernel performs no heap allocations.
#include "tensor/gemm_simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <utility>

#include "parallel/parallel_for.hpp"
#include "tensor/gemm_avx512.hpp"
#include "tensor/workspace.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define SALNOV_SIMD_AVX2 1
#endif

namespace salnov::detail {

#if defined(SALNOV_SIMD_AVX2)

namespace {

// Row band handed to the thread pool: 4 full micro-tiles. Must be a
// multiple of kGemmMR so packed-A panel boundaries align with band starts.
constexpr int64_t kSimdRowGrain = 4 * kGemmMR;
static_assert(kSimdRowGrain % kGemmMR == 0);

// Same threshold as the scalar path: below this the pool dispatch overhead
// dominates.
constexpr int64_t kMinParallelFlops = 1 << 15;

/// One output-row run inside a 16-position column panel of an implicit-GEMM
/// convolution: for every K row, the lanes set in `mask` read lane l from
/// row + offset + l, where row is that K row's source in the phase planes.
struct PanelSegment {
  int64_t offset = 0;
  uint32_t mask = 0;
};

/// One 6x16 tile: C[0..rows) x [0..cols) = ap . bp (+ epilogue).
void micro_kernel(const float* ap, const float* bp, int64_t k, float* c, int64_t ldc,
                  int64_t rows, int64_t cols, const float* bias_row, const float* bias_col,
                  bool relu) {
  __m256 acc[kGemmMR][2];
  for (int r = 0; r < kGemmMR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kGemmNR);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kGemmNR + 8);
    const float* arow = ap + kk * kGemmMR;
    for (int r = 0; r < kGemmMR; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }

  __m256 bc0 = _mm256_setzero_ps();
  __m256 bc1 = _mm256_setzero_ps();
  if (bias_col != nullptr) {
    if (cols == kGemmNR) {
      bc0 = _mm256_loadu_ps(bias_col);
      bc1 = _mm256_loadu_ps(bias_col + 8);
    } else {
      float pad[kGemmNR] = {0};
      for (int64_t j = 0; j < cols; ++j) pad[j] = bias_col[j];
      bc0 = _mm256_loadu_ps(pad);
      bc1 = _mm256_loadu_ps(pad + 8);
    }
  }
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t r = 0; r < rows; ++r) {
    __m256 lo = acc[r][0];
    __m256 hi = acc[r][1];
    if (bias_row != nullptr) {
      const __m256 br = _mm256_broadcast_ss(bias_row + r);
      lo = _mm256_add_ps(lo, br);
      hi = _mm256_add_ps(hi, br);
    }
    if (bias_col != nullptr) {
      lo = _mm256_add_ps(lo, bc0);
      hi = _mm256_add_ps(hi, bc1);
    }
    if (relu) {
      lo = _mm256_max_ps(lo, zero);
      hi = _mm256_max_ps(hi, zero);
    }
    float* crow = c + r * ldc;
    if (cols == kGemmNR) {
      _mm256_storeu_ps(crow, lo);
      _mm256_storeu_ps(crow + 8, hi);
    } else {
      float buf[kGemmNR];
      _mm256_storeu_ps(buf, lo);
      _mm256_storeu_ps(buf + 8, hi);
      for (int64_t j = 0; j < cols; ++j) crow[j] = buf[j];
    }
  }
}

/// c[j] = sum_k a[kk] b[kk, j], n-blocked with a 4-deep unroll over the B
/// rows it reads: all of them, or with `skip_zeros` only those whose a[kk]
/// is nonzero. Bit-identical either way (gemm.hpp's determinism contract):
/// the outputs the skipping chain ends at ±0 are recomputed with the full
/// chain. Serial: a single output row never crosses the parallel threshold.
void matvec(const float* a, const float* b, float* c, int64_t n, int64_t k,
            const GemmEpilogue& epi, bool skip_zeros) {
  int64_t rows_read = k;
  if (skip_zeros) {
    rows_read = 0;
    for (int64_t kk = 0; kk < k; ++kk) rows_read += a[kk] != 0.0f ? 1 : 0;
  }
  constexpr int64_t kBlock = 512;
  for (int64_t j0 = 0; j0 < n; j0 += kBlock) {
    const int64_t j1 = std::min(n, j0 + kBlock);
    for (int64_t j = j0; j < j1; ++j) c[j] = 0.0f;
    const auto fma4 = [&](const int64_t* rows) {
      const float s0 = a[rows[0]];
      const float s1 = a[rows[1]];
      const float s2 = a[rows[2]];
      const float s3 = a[rows[3]];
      const __m256 a0 = _mm256_set1_ps(s0);
      const __m256 a1 = _mm256_set1_ps(s1);
      const __m256 a2 = _mm256_set1_ps(s2);
      const __m256 a3 = _mm256_set1_ps(s3);
      const float* b0 = b + rows[0] * n;
      const float* b1 = b + rows[1] * n;
      const float* b2 = b + rows[2] * n;
      const float* b3 = b + rows[3] * n;
      int64_t j = j0;
      for (; j + 8 <= j1; j += 8) {
        __m256 acc = _mm256_loadu_ps(c + j);
        acc = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b0 + j), acc);
        acc = _mm256_fmadd_ps(a1, _mm256_loadu_ps(b1 + j), acc);
        acc = _mm256_fmadd_ps(a2, _mm256_loadu_ps(b2 + j), acc);
        acc = _mm256_fmadd_ps(a3, _mm256_loadu_ps(b3 + j), acc);
        _mm256_storeu_ps(c + j, acc);
      }
      for (; j < j1; ++j) {
        float acc = c[j];
        acc = std::fma(s0, b0[j], acc);
        acc = std::fma(s1, b1[j], acc);
        acc = std::fma(s2, b2[j], acc);
        acc = std::fma(s3, b3[j], acc);
        c[j] = acc;
      }
    };
    const auto fma1 = [&](int64_t row) {
      const float s = a[row];
      const __m256 av = _mm256_set1_ps(s);
      const float* brow = b + row * n;
      int64_t j = j0;
      for (; j + 8 <= j1; j += 8) {
        _mm256_storeu_ps(c + j, _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j), _mm256_loadu_ps(c + j)));
      }
      for (; j < j1; ++j) c[j] = std::fma(s, brow[j], c[j]);
    };
    // The rows read, in ascending order, four at a time.
    int64_t rows[4];
    int got = 0;
    for (int64_t kk = 0; kk < k; ++kk) {
      if (skip_zeros && a[kk] == 0.0f) continue;
      rows[got++] = kk;
      if (got == 4) {
        fma4(rows);
        got = 0;
      }
    }
    for (int t = 0; t < got; ++t) fma1(rows[t]);
  }
  if (rows_read > 0 && rows_read < k) {
    for (int64_t j = 0; j < n; ++j) {
      if (c[j] != 0.0f) continue;
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) acc = std::fma(a[kk], b[kk * n + j], acc);
      c[j] = acc;
    }
  }
  if (!epi.empty()) {
    for (int64_t j = 0; j < n; ++j) {
      float v = c[j];
      if (epi.bias_row != nullptr) v += epi.bias_row[0];
      if (epi.bias_col != nullptr) v += epi.bias_col[j];
      if (epi.relu) v = v > 0.0f ? v : 0.0f;
      c[j] = v;
    }
  }
}

/// Fills a k x 16 B panel (pack.hpp layout): panel[kk * 16 + l] is the
/// float the segment owning lane l reads from src + k_offsets[kk], or +0.0f
/// for lanes no segment owns. Each segment is up to two maskload halves,
/// OR-merged into the row (a masked-off lane loads as +0.0f, all bits
/// clear). A half no lane of the segment falls in is skipped, so no pointer
/// is formed past the segment's last lane. It also serves the AVX-512 tile:
/// an AVX-512 merge-masked twin was faster per layer but not end to end
/// (EXPERIMENTS.md).
void fill_conv_panel(const float* src, const int64_t* k_offsets, int64_t k,
                     const PanelSegment* segments, int64_t segment_count, float* panel) {
  const __m256i bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  __m256i lo_masks[kGemmNR];
  __m256i hi_masks[kGemmNR];
  for (int64_t s = 0; s < segment_count; ++s) {
    const __m256i lo = _mm256_set1_epi32(static_cast<int>(segments[s].mask & 0xffu));
    const __m256i hi = _mm256_set1_epi32(static_cast<int>(segments[s].mask >> 8));
    lo_masks[s] = _mm256_cmpeq_epi32(_mm256_and_si256(lo, bits), bits);
    hi_masks[s] = _mm256_cmpeq_epi32(_mm256_and_si256(hi, bits), bits);
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* row = src + k_offsets[kk];
    __m256 lo = _mm256_setzero_ps();
    __m256 hi = _mm256_setzero_ps();
    for (int64_t s = 0; s < segment_count; ++s) {
      const float* base = row + segments[s].offset;
      if ((segments[s].mask & 0xffu) != 0) {
        lo = _mm256_or_ps(lo, _mm256_maskload_ps(base, lo_masks[s]));
      }
      if ((segments[s].mask >> 8) != 0) {
        hi = _mm256_or_ps(hi, _mm256_maskload_ps(base + 8, hi_masks[s]));
      }
    }
    _mm256_storeu_ps(panel + kk * kGemmNR, lo);
    _mm256_storeu_ps(panel + kk * kGemmNR + 8, hi);
  }
}

// Tile-kernel dispatch, checked per gemm call: the AVX-512 variant
// (bit-identical, see gemm_avx512.hpp) when compiled in, supported by the
// CPU, and not disabled for A/B timing; else the baseline micro-kernel.
using MicroKernelFn = void (*)(const float*, const float*, int64_t, float*, int64_t, int64_t,
                               int64_t, const float*, const float*, bool);

MicroKernelFn tile_kernel() {
  return gemm_avx512_available() && gemm_avx512_tile_enabled() ? &micro_kernel_avx512
                                                               : &micro_kernel;
}

int64_t ceil_div(int64_t num, int64_t den) { return (num + den - 1) / den; }

/// The range [lo, hi) of phase indices q in [0, count) whose padded
/// coordinate q * stride + phase lands on the input, [pad, pad + extent).
/// The numerators are clamped at 0 before the ceiling division: integer
/// division truncates toward zero, so a negative one would round up and the
/// copy would read past the row.
std::pair<int64_t, int64_t> inside_range(int64_t phase, int64_t stride, int64_t pad,
                                         int64_t extent, int64_t count) {
  const int64_t lo = std::min(count, ceil_div(std::max<int64_t>(pad - phase, 0), stride));
  const int64_t hi =
      std::clamp(ceil_div(std::max<int64_t>(pad + extent - phase, 0), stride), lo, count);
  return {lo, hi};
}

/// Copies one sample x [channels, in_h, in_w], zero-padded, into stride^2
/// hq x wq phase planes per channel: plane (c, a, b) at (r, q) holds padded
/// input (r * stride + a, q * stride + b). Tap (c, ki, kj) at output
/// (oy, ox) is then plane (c, ki % stride, kj % stride) at
/// (oy + ki / stride, ox + kj / stride), so a run along an output row is a
/// contiguous read. Padding, and the tail past the padded input, are +0.0f.
/// Every row is one strided copy between zero fills; bounds come from
/// inside_range, never a per-element division.
void split_phases(const float* x, const ConvShape& g, int64_t hq, int64_t wq, float* phases) {
  const int64_t s = g.stride;
  const int64_t pad = g.padding;
  float* plane = phases;
  for (int64_t c = 0; c < g.channels; ++c) {
    const float* in_plane = x + c * g.in_h * g.in_w;
    for (int64_t a = 0; a < s; ++a) {
      const auto [r_lo, r_hi] = inside_range(a, s, pad, g.in_h, hq);
      for (int64_t b = 0; b < s; ++b, plane += hq * wq) {
        const auto [q_lo, q_hi] = inside_range(b, s, pad, g.in_w, wq);
        const int64_t rows_end = q_lo < q_hi ? r_hi : r_lo;
        std::fill(plane, plane + r_lo * wq, 0.0f);
        for (int64_t r = r_lo; r < rows_end; ++r) {
          float* dst = plane + r * wq;
          std::fill(dst, dst + q_lo, 0.0f);
          copy_strided(in_plane + ((r * s + a - pad) * g.in_w + q_lo * s + b - pad), s,
                       q_hi - q_lo, dst + q_lo);
          std::fill(dst + q_hi, dst + wq, 0.0f);
        }
        std::fill(plane + rows_end * wq, plane + hq * wq, 0.0f);
      }
    }
  }
}

/// Splits the column panel of output positions [j0, j0 + cols) at
/// output-row boundaries (rows out_w wide, phase rows wq wide) into
/// `segments`; returns how many (at most kGemmNR).
int64_t panel_segments(int64_t j0, int64_t cols, int64_t out_w, int64_t wq,
                       PanelSegment* segments) {
  int64_t count = 0;
  int64_t oy = j0 / out_w;
  int64_t ox = j0 % out_w;
  for (int64_t lane = 0; lane < cols; ++oy, ox = 0) {
    const int64_t run = std::min(out_w - ox, cols - lane);
    // Lane l of the run reads offset + l = oy * wq + ox + (l - lane), which
    // is never negative because wq >= out_w.
    segments[count].offset = oy * wq + ox - lane;
    segments[count].mask = ((1u << static_cast<unsigned>(run)) - 1u) << static_cast<unsigned>(lane);
    ++count;
    lane += run;
  }
  return count;
}

}  // namespace

bool simd_gemm_available() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return ok;
}

const char* simd_arch_name() {
  return gemm_avx512_available() && gemm_avx512_tile_enabled() ? "avx512" : "avx2";
}

void simd_gemm(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
               const GemmEpilogue& epi, const PackedMatrix* packed_b, bool b_finite) {
  if (m == 1) {
    matvec(a, b, c, n, k, epi, b_finite);
    return;
  }

  WorkspaceScope scope;
  const float* bp;
  if (packed_b != nullptr) {
    bp = packed_b->data.data();
  } else {
    float* scratch = scope.floats(packed_b_floats(k, n));
    pack_b_panels_into(b, k, n, scratch);
    bp = scratch;
  }
  const int64_t panels = gemm_col_panels(n);
  const MicroKernelFn micro = tile_kernel();

  const auto band = [&](int64_t row_begin, int64_t row_end) {
    // Band-local scratch: pool workers pack A tiles into their own arenas.
    WorkspaceScope band_scope;
    float* ap = band_scope.floats(kGemmMR * k);
    for (int64_t i0 = row_begin; i0 < row_end; i0 += kGemmMR) {
      const int64_t rows = std::min<int64_t>(kGemmMR, row_end - i0);
      pack_a_tile(a + i0 * k, rows, k, k, ap);
      const float* bias_row = epi.bias_row != nullptr ? epi.bias_row + i0 : nullptr;
      for (int64_t p = 0; p < panels; ++p) {
        const int64_t j0 = p * kGemmNR;
        const int64_t cols = std::min<int64_t>(kGemmNR, n - j0);
        micro(ap, bp + p * kGemmNR * k, k, c + i0 * n + j0, n, rows, cols, bias_row,
              epi.bias_col != nullptr ? epi.bias_col + j0 : nullptr, epi.relu);
      }
    }
  };

  if (m > kSimdRowGrain && m * n * k >= kMinParallelFlops && parallel::num_threads() > 1) {
    parallel::parallel_for(0, m, kSimdRowGrain, band);
  } else {
    // Single-worker path: panel-outer / band-inner, so each packed B panel
    // streams through cache exactly once per call instead of once per row
    // band (the thin-m batched-inference shapes are otherwise bound on
    // re-reading B). The micro-kernel invocations are the banded order
    // permuted — every output element still accumulates in ascending k —
    // so results stay bit-identical to the parallel partition.
    WorkspaceScope serial_scope;
    float* ap_panels = serial_scope.floats(packed_a_floats(m, k));
    pack_a_panels_into(a, m, k, ap_panels);
    for (int64_t p = 0; p < panels; ++p) {
      const int64_t j0 = p * kGemmNR;
      const int64_t cols = std::min<int64_t>(kGemmNR, n - j0);
      const float* bias_col = epi.bias_col != nullptr ? epi.bias_col + j0 : nullptr;
      for (int64_t i0 = 0; i0 < m; i0 += kGemmMR) {
        const int64_t rows = std::min<int64_t>(kGemmMR, m - i0);
        micro(ap_panels + (i0 / kGemmMR) * kGemmMR * k, bp + p * kGemmNR * k, k,
              c + i0 * n + j0, n, rows, cols,
              epi.bias_row != nullptr ? epi.bias_row + i0 : nullptr, bias_col, epi.relu);
      }
    }
  }
}

void simd_conv_gemm(const PackedMatrix& packed_w, const float* x, const ConvShape& g, float* out,
                    const GemmEpilogue& epi) {
  const int64_t m = packed_w.rows;
  const int64_t k = packed_w.cols;
  const int64_t s = g.stride;
  const int64_t hq = ceil_div(g.in_h + 2 * g.padding, s);
  const int64_t wq = ceil_div(g.in_w + 2 * g.padding, s);
  const int64_t out_w = (g.in_w + 2 * g.padding - g.kernel_w) / s + 1;
  const int64_t n = ((g.in_h + 2 * g.padding - g.kernel_h) / s + 1) * out_w;
  const int64_t plane = hq * wq;

  // The planes start kGemmNR zeroed floats into the buffer, so a masked
  // load's base pointer (lane 0, up to 15 floats before the segment's first
  // lane) lies inside the allocation whatever the segment.
  WorkspaceScope scope;
  float* buffer = scope.floats(kGemmNR + g.channels * s * s * plane);
  std::fill(buffer, buffer + kGemmNR, 0.0f);
  float* phases = buffer + kGemmNR;
  split_phases(x, g, hq, wq, phases);

  // Source of K row (c, ki, kj), in the weight's ascending K order.
  int64_t* k_offsets = scope.int64s(k);
  for (int64_t c = 0, kk = 0; c < g.channels; ++c) {
    for (int64_t ki = 0; ki < g.kernel_h; ++ki) {
      for (int64_t kj = 0; kj < g.kernel_w; ++kj, ++kk) {
        k_offsets[kk] = ((c * s + ki % s) * s + kj % s) * plane + (ki / s) * wq + kj / s;
      }
    }
  }

  const float* ap_all = packed_w.data.data();
  const MicroKernelFn micro = tile_kernel();
  const auto run_panels = [&](int64_t panel_begin, int64_t panel_end) {
    // Each worker gathers its panels into a K x 16 buffer of its own arena
    // and runs every A row panel over it while it sits in L1.
    WorkspaceScope panel_scope;
    float* bp = panel_scope.floats(kGemmNR * k);
    PanelSegment segments[kGemmNR];
    for (int64_t p = panel_begin; p < panel_end; ++p) {
      const int64_t j0 = p * kGemmNR;
      const int64_t cols = std::min<int64_t>(kGemmNR, n - j0);
      fill_conv_panel(phases, k_offsets, k, segments,
                      panel_segments(j0, cols, out_w, wq, segments), bp);
      const float* bias_col = epi.bias_col != nullptr ? epi.bias_col + j0 : nullptr;
      for (int64_t i0 = 0; i0 < m; i0 += kGemmMR) {
        micro(ap_all + i0 * k, bp, k, out + i0 * n + j0, n, std::min<int64_t>(kGemmMR, m - i0),
              cols, epi.bias_row != nullptr ? epi.bias_row + i0 : nullptr, bias_col, epi.relu);
      }
    }
  };

  // Fans out where simd_gemm would split rows, one column panel per chunk
  // (so the partition depends only on the shape); splitting columns instead
  // leaves every output one micro-kernel chain over the same panel values.
  const int64_t panels = gemm_col_panels(n);
  if (m > kSimdRowGrain && m * n * k >= kMinParallelFlops && parallel::num_threads() > 1) {
    parallel::parallel_for(0, panels, 1, run_panels);
  } else {
    run_panels(0, panels);
  }
}

#else  // no SIMD support compiled in: runtime-safe stubs

bool simd_gemm_available() { return false; }
const char* simd_arch_name() { return "none"; }
void simd_gemm(const float*, const float*, float*, int64_t, int64_t, int64_t,
               const GemmEpilogue&, const PackedMatrix*, bool) {}
void simd_conv_gemm(const PackedMatrix&, const float*, const ConvShape&, float*,
                    const GemmEpilogue&) {}

#endif

namespace {

std::atomic<bool>& avx512_tile_flag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

}  // namespace

bool gemm_avx512_tile_enabled() { return avx512_tile_flag().load(std::memory_order_relaxed); }

void set_gemm_avx512_tile(bool enabled) {
  avx512_tile_flag().store(enabled, std::memory_order_relaxed);
}

}  // namespace salnov::detail
