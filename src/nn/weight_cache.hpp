// A value derived from a layer's weights, rebuilt when the weights change.
//
// Inference keeps weights in the form its kernel reads: Dense and Conv2d
// hold their float GEMM panels here (Dense also whether every weight is
// finite), and QuantizedForward the s8 weights and packed operand of each
// int8 layer. Every in-place weight update (optimizer step, fault
// injection) calls Parameter::bump_version(), and the next get() rebuilds
// the value. The check is one acquire load; a
// rebuild runs under a mutex, so concurrent inference forwards share one
// copy safely. Training (or any other weight update) concurrently with
// inference on the same weights is unsupported.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "nn/layer.hpp"

namespace salnov::nn {

template <typename T>
class WeightCache {
 public:
  /// The value built from `source`'s current weights: `build(source.value)`
  /// runs first when source.version moved since the last build.
  template <typename Build>
  const T& get(const Parameter& source, Build&& build) const {
    const uint64_t want = source.version + 1;  // 0 = never built
    if (version_.load(std::memory_order_acquire) != want) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (version_.load(std::memory_order_relaxed) != want) {
        value_ = build(source.value);
        version_.store(want, std::memory_order_release);
      }
    }
    return value_;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::atomic<uint64_t> version_{0};
  mutable T value_;
};

}  // namespace salnov::nn
