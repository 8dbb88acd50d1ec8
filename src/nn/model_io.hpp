// Model serialization: saves/loads a Sequential (architecture + weights).
//
// Binary format: header("salnov-model", v1), layer count, then per layer its
// type tag, hyperparameter block, and parameter tensors in parameters()
// order. Loading reconstructs the exact architecture, so a trained steering
// network or autoencoder round-trips through a single file.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/sequential.hpp"

namespace salnov::nn {

void save_model(std::ostream& os, Sequential& model);

/// Crash-safe save: payload + CRC32 trailer, temp file + atomic rename (a
/// kill mid-save never leaves a partial file at `path`).
void save_model_file(const std::string& path, Sequential& model);

/// Throws SerializationError on malformed input or unknown layer types.
Sequential load_model(std::istream& is);

/// Verifies the CRC32 trailer before parsing; throws TruncatedFileError /
/// CorruptFileError (both SerializationError) on damaged files.
Sequential load_model_file(const std::string& path);

/// A loaded model must map `input` to `expected`: a layer chain that does
/// not (a dense width that disagrees with the conv output, a two-output
/// head) fails here with a SerializationError naming `what`, instead of at
/// the first forward. A steering model checks [1, 1, H, W] -> [1, 1].
void require_model_shape(const Sequential& model, const Shape& input, const Shape& expected,
                         const std::string& what);

}  // namespace salnov::nn
