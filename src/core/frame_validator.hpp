// FrameValidator: guarded-inference entry check for camera frames.
//
// The detector's novelty score answers "is this frame outside the training
// distribution?", which silently conflates two very different situations:
// the world being novel and the *sensor* being broken. A NaN-filled,
// wrong-sized, saturated, or dead-constant frame should never reach the
// scoring pipeline — it should be rejected here, so the serving
// Supervisor's validate stage can route it down a sensor-fault path distinct
// from novelty fallback.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "image/image.hpp"

namespace salnov::core {

/// What is wrong with a frame; kNone means the frame is usable.
enum class FrameFault {
  kNone,          ///< frame passed every check
  kWrongSize,     ///< dimensions differ from the pipeline resolution
  kNonFinite,     ///< contains NaN or +/-Inf pixels
  kOutOfRange,    ///< pixels outside [0, 1] beyond a 1e-3 slack
  kNearConstant,  ///< (near-)zero variance: dead or disconnected sensor
};

/// Stable human-readable tag ("none", "wrong-size", ...).
const char* frame_fault_name(FrameFault fault);

/// Thrown by guarded inference when a frame fails validation. Subclasses
/// std::invalid_argument so callers treating bad inputs generically keep
/// working; fault() says which check fired.
class InvalidFrameError : public std::invalid_argument {
 public:
  InvalidFrameError(FrameFault fault, const std::string& what)
      : std::invalid_argument(what), fault_(fault) {}
  FrameFault fault() const { return fault_; }

 private:
  FrameFault fault_;
};

class FrameValidator {
 public:
  FrameValidator(int64_t height, int64_t width);

  /// Returns the first failing check (size, finiteness, range, constancy —
  /// in that order), or kNone for a usable frame.
  FrameFault check(const Image& frame) const;

  /// Throws InvalidFrameError if check() fails; `context` prefixes the
  /// message (e.g. "NoveltyDetector").
  void require_valid(const Image& frame, const std::string& context) const;

  int64_t height() const { return height_; }
  int64_t width() const { return width_; }

 private:
  int64_t height_;
  int64_t width_;
};

}  // namespace salnov::core
