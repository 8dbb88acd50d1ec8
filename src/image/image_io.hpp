// PGM image file IO.
//
// Benches and examples dump VBP masks, reconstructions, and generated scenes
// as binary PGM (grayscale) so results can be inspected with any image
// viewer without adding a codec dependency.
#pragma once

#include <string>

#include "image/image.hpp"

namespace salnov {

/// Writes `image` as binary PGM (P5, 8-bit); pixels are clamped to [0, 1].
/// Throws std::runtime_error on IO failure.
void write_pgm(const std::string& path, const Image& image);

/// Reads a binary PGM (P5, 8-bit) file. Throws std::runtime_error on parse
/// or IO failure.
Image read_pgm(const std::string& path);

}  // namespace salnov
