#include "calib/threshold_set.hpp"

#include <sstream>
#include <stdexcept>

#include "faults/crash_points.hpp"
#include "tensor/serialize.hpp"

namespace salnov::calib {
namespace {

constexpr char kThresholdSetMagic[] = "salnov-thresholds";
// One block per DetectorVariant (the q8 rungs included). Older versions are
// rejected.
constexpr uint32_t kThresholdSetVersion = 2;

}  // namespace

void ThresholdSet::save(std::ostream& os) const {
  write_header(os, kThresholdSetMagic, kThresholdSetVersion);
  write_i64(os, epoch);
  for (int i = 0; i < core::kDetectorVariantCount; ++i) {
    thresholds[static_cast<size_t>(i)].save(os);
    write_i64(os, shadow_samples[static_cast<size_t>(i)]);
    write_u32(os, rebuilt[static_cast<size_t>(i)]);
  }
}

ThresholdSet ThresholdSet::load(std::istream& is) {
  read_header(is, kThresholdSetMagic, kThresholdSetVersion);
  ThresholdSet set;
  set.epoch = read_i64(is);
  if (set.epoch < 0) {
    throw SerializationError("ThresholdSet::load: negative epoch " + std::to_string(set.epoch));
  }
  for (int i = 0; i < core::kDetectorVariantCount; ++i) {
    set.thresholds[static_cast<size_t>(i)] = core::NoveltyThreshold::load(is);
    set.shadow_samples[static_cast<size_t>(i)] = read_i64(is);
    if (set.shadow_samples[static_cast<size_t>(i)] < 0) {
      throw SerializationError("ThresholdSet::load: negative shadow sample count");
    }
    const uint32_t flag = read_u32(is);
    if (flag > 1) {
      throw SerializationError("ThresholdSet::load: rebuilt flag out of range");
    }
    set.rebuilt[static_cast<size_t>(i)] = static_cast<uint8_t>(flag);
  }
  return set;
}

void ThresholdSet::save_file(const std::string& path) const {
  faults::hit_crash_point(faults::CrashPoint::kSwapBeforeTempWrite);
  save_file_checked(
      path, [this](std::ostream& os) { save(os); },
      [](SaveCheckpoint checkpoint) {
        if (checkpoint == SaveCheckpoint::kTempWritten) {
          faults::hit_crash_point(faults::CrashPoint::kSwapAfterTempWrite);
        }
      });
  faults::hit_crash_point(faults::CrashPoint::kSwapAfterRename);
}

ThresholdSet ThresholdSet::load_file(const std::string& path) {
  std::istringstream is(load_file_checked(path));
  return load(is);
}

void ThresholdHotSwap::install(std::shared_ptr<const ThresholdSet> next) {
  if (!next) throw std::invalid_argument("ThresholdHotSwap::install: null set");
  std::lock_guard<std::mutex> lock(writer_mu_);
  const ThresholdSet* raw = next.get();
  retired_.push_back(std::move(next));  // keeps the pointer alive for the slot's lifetime
  live_.store(raw, std::memory_order_release);
  installs_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace salnov::calib
