#include "tensor/rng.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace salnov {
namespace {

uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // xoshiro state must not be all-zero; splitmix64 seeding guarantees that
  // with overwhelming probability and decorrelates close seeds.
  uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::next_u64() {
  const uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

int64_t Rng::uniform_int(int64_t lo, int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<int64_t>(next_u64());
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<int64_t>(v % span);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

void Rng::shuffle(std::vector<int64_t>& values) {
  for (size_t i = values.size(); i > 1; --i) {
    const auto j = static_cast<size_t>(uniform_int(0, static_cast<int64_t>(i) - 1));
    std::swap(values[i - 1], values[j]);
  }
}

Tensor Rng::uniform_tensor(Shape shape, double lo, double hi) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(uniform(lo, hi));
  return t;
}

Rng Rng::split() { return Rng(next_u64()); }

}  // namespace salnov
