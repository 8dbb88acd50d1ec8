// Whole-pipeline serialization.
//
// Saves/loads a fitted NoveltyDetector — configuration, trained
// autoencoder weights, and calibrated threshold — plus (optionally) the
// steering model it preprocesses with, so a deployed system can restore
// the complete Fig. 1 framework from one file.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "core/novelty_detector.hpp"

namespace salnov::core {

/// A detector restored from a file, bundled with the steering model it
/// owns (if one was saved with it).
struct LoadedPipeline {
  std::unique_ptr<nn::Sequential> steering_model;  ///< null if none saved
  std::unique_ptr<NoveltyDetector> detector;
};

class PipelineIo {
 public:
  /// The file format written and the only one load() accepts: per-variant
  /// calibrations with presence flags (the q8 rungs are optional), the
  /// model weights, and the int8 activation-scale blocks.
  static constexpr uint32_t kCurrentVersion = 3;

  /// `steering_model` may be null when the detector uses raw preprocessing.
  static void save(std::ostream& os, const NoveltyDetector& detector,
                   nn::Sequential* steering_model);

  /// Crash-safe save: writes payload + CRC32 trailer to a temp file and
  /// atomically renames it over `path`, so a kill mid-save never leaves a
  /// partial file at the target.
  static void save_file(const std::string& path, const NoveltyDetector& detector,
                        nn::Sequential* steering_model);

  static LoadedPipeline load(std::istream& is);

  /// Verifies the CRC32 trailer before parsing; throws TruncatedFileError /
  /// CorruptFileError (both SerializationError) on damaged files.
  static LoadedPipeline load_file(const std::string& path);
};

}  // namespace salnov::core
