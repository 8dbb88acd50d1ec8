// GEMM kernel sweep through the production entry points: float gemm_ex
// (scalar, simd, and simd+packed with B pre-packed as nn::Dense caches it)
// and int8 gemm_u8s8_dequant with pre-packed B
// (scalar, simd), across square sizes and thread counts, plus the paper
// autoencoder's two weight-heavy layers — encoder [m,9600]x[9600,64] and
// decoder [m,64]x[64,9600] — at m = 1 (one camera) and m = 16 (the cluster's
// max batch). Prints a table and writes the same rows to
// BENCH_gemm_kernels.json for CI trend tracking. Both precisions count 2mnk
// operations, so float GFLOP/s and int8 GOP/s compare directly; the JSON
// keeps one "gflops" key for both.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/pack.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace salnov;
using Clock = std::chrono::steady_clock;

/// Times `fn` adaptively: at least 3 iterations and 0.2 s of work.
/// Returns seconds per iteration (best of the measured batches).
template <typename Fn>
double time_per_call(Fn&& fn) {
  fn();  // warm-up (page-in, lazy packs, workspace growth)
  double best = 1e300;
  int64_t iters = 1;
  double total = 0.0;
  int batches = 0;
  while (total < 0.2 || batches < 3) {
    const auto t0 = Clock::now();
    for (int64_t i = 0; i < iters; ++i) fn();
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    if (dt / static_cast<double>(iters) < best) best = dt / static_cast<double>(iters);
    total += dt;
    ++batches;
    if (dt < 0.02) iters *= 4;
  }
  return best;
}

struct GemmShape {
  const char* label;
  int64_t m, n, k;
};

template <GemmKernel kKernel, bool kPacked>
double float_seconds(const GemmShape& s) {
  set_gemm_kernel(kKernel);
  Rng rng(17);
  const Tensor a = rng.uniform_tensor({s.m, s.k}, -1.0, 1.0);
  const Tensor b = rng.uniform_tensor({s.k, s.n}, -1.0, 1.0);
  Tensor c({s.m, s.n});
  PackedMatrix pb;
  if (kPacked) pb = pack_b_panels(b.data(), s.k, s.n);
  const PackedMatrix* ppb = kPacked ? &pb : nullptr;
  return time_per_call(
      [&] { gemm_ex(a.data(), b.data(), c.data(), s.m, s.n, s.k, GemmEpilogue{}, ppb); });
}

/// The quantized rungs' layout: u8 activations in [0, 127], s8 weights in
/// [-127, 127], B packed once (as nn::QuantizedForward caches it) and the
/// fused dequant epilogue.
template <GemmInt8Kernel kKernel>
double int8_seconds(const GemmShape& s) {
  set_gemm_int8_kernel(kKernel);
  Rng rng(22);
  std::vector<uint8_t> a(static_cast<size_t>(s.m * s.k));
  std::vector<int8_t> b(static_cast<size_t>(s.k * s.n));
  std::vector<float> bias(static_cast<size_t>(s.n));
  std::vector<float> c(static_cast<size_t>(s.m * s.n));
  for (auto& x : a) x = static_cast<uint8_t>(rng.uniform_int(0, 127));
  for (auto& x : b) x = static_cast<int8_t>(rng.uniform_int(-127, 127));
  for (auto& x : bias) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  const PackedQuantMatrix packed = pack_quant_b(b.data(), s.k, s.n);
  QuantEpilogue epilogue;
  epilogue.scale = 1e-3f;
  epilogue.bias_col = bias.data();
  return time_per_call([&] {
    gemm_u8s8_dequant(a.data(), b.data(), c.data(), s.m, s.n, s.k, epilogue, &packed);
  });
}

struct Variant {
  const char* precision;
  const char* kernel;
  bool available;
  double (*seconds_per_call)(const GemmShape&);
};

}  // namespace

int main() {
  std::printf("GEMM kernel sweep (float simd: %s, int8 simd: %s)\n",
              gemm_simd_available() ? gemm_kernel_name(GemmKernel::kSimd) : "unavailable",
              gemm_int8_simd_available() ? gemm_int8_kernel_name(GemmInt8Kernel::kSimd)
                                         : "unavailable");
  std::printf("%-9s %-12s %-10s %6s %6s %6s %8s %10s\n", "precision", "kernel", "shape", "m", "n",
              "k", "threads", "G(FL)OP/s");

  const GemmKernel default_kernel = active_gemm_kernel();
  const GemmInt8Kernel default_int8_kernel = active_gemm_int8_kernel();
  const Variant variants[] = {
      {"float", "scalar", true, float_seconds<GemmKernel::kScalar, false>},
      {"float", "simd", gemm_simd_available(), float_seconds<GemmKernel::kSimd, false>},
      {"float", "simd+packed", gemm_simd_available(), float_seconds<GemmKernel::kSimd, true>},
      {"int8", "scalar", true, int8_seconds<GemmInt8Kernel::kScalar>},
      {"int8", "simd", gemm_int8_simd_available(), int8_seconds<GemmInt8Kernel::kSimd>},
  };
  std::vector<GemmShape> shapes;
  for (int64_t n : {64, 128, 256, 512}) shapes.push_back({"square", n, n, n});
  for (int64_t m : {1, 16}) {
    shapes.push_back({"ae_encoder", m, 64, 9600});
    shapes.push_back({"ae_decoder", m, 9600, 64});
  }

  std::ofstream json("BENCH_gemm_kernels.json");
  json << "{\n  \"results\": [";
  size_t rows = 0;
  for (const Variant& v : variants) {
    if (!v.available) continue;
    for (int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      for (const GemmShape& s : shapes) {
        const double gops = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.n) *
                            static_cast<double>(s.k) / v.seconds_per_call(s) / 1e9;
        std::printf("%-9s %-12s %-10s %6lld %6lld %6lld %8d %10.2f\n", v.precision, v.kernel,
                    s.label, (long long)s.m, (long long)s.n, (long long)s.k, threads, gops);
        json << (rows++ == 0 ? "\n" : ",\n") << "    {\"precision\": \"" << v.precision
             << "\", \"kernel\": \"" << v.kernel << "\", \"shape\": \"" << s.label
             << "\", \"m\": " << s.m << ", \"n\": " << s.n << ", \"k\": " << s.k
             << ", \"threads\": " << threads << ", \"gflops\": " << gops << "}";
      }
    }
  }
  json << "\n  ]\n}\n";
  parallel::set_num_threads(0);
  set_gemm_kernel(default_kernel);
  set_gemm_int8_kernel(default_int8_kernel);
  std::printf("\nwrote BENCH_gemm_kernels.json (%zu rows)\n", rows);
  return 0;
}
