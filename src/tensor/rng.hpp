// Deterministic random number generation.
//
// Every stochastic component in the library (weight init, scene generation,
// noise injection, dataset shuffling) draws from an explicitly seeded Rng so
// that experiments are bit-reproducible run to run. The generator is
// xoshiro256**, which is fast, has a 256-bit state, and passes BigCrush.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace salnov {

class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  int64_t uniform_int(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller.
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of an index vector.
  void shuffle(std::vector<int64_t>& values);

  /// Tensor with i.i.d. U[lo, hi) entries.
  Tensor uniform_tensor(Shape shape, double lo, double hi);

  /// Derives an independent generator (for per-worker / per-component
  /// streams) from this one's current state.
  Rng split();

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace salnov
