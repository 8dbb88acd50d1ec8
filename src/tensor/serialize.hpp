// Binary serialization primitives for tensors and model files.
//
// Format: little-endian, length-prefixed. Every model/pipeline file in the
// library is built from these primitives plus a magic string + version
// header, so files are portable between runs and refuse to load on format
// drift.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "tensor/tensor.hpp"

namespace salnov {

/// Thrown when a stream does not contain what the reader expects.
class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& what) : std::runtime_error(what) {}
};

/// A file ended before its format says it should — it was cut short by a
/// crash, a partial copy, or it predates the integrity-trailer format.
class TruncatedFileError : public SerializationError {
 public:
  explicit TruncatedFileError(const std::string& what) : SerializationError(what) {}
};

/// A file's CRC32 trailer does not match its payload: the bytes on disk are
/// not the bytes that were written.
class CorruptFileError : public SerializationError {
 public:
  explicit CorruptFileError(const std::string& what) : SerializationError(what) {}
};

void write_u32(std::ostream& os, uint32_t value);
void write_i64(std::ostream& os, int64_t value);
void write_f32(std::ostream& os, float value);
void write_f64(std::ostream& os, double value);
void write_string(std::ostream& os, const std::string& value);
void write_tensor(std::ostream& os, const Tensor& tensor);

uint32_t read_u32(std::istream& is);
int64_t read_i64(std::istream& is);
float read_f32(std::istream& is);
double read_f64(std::istream& is);
std::string read_string(std::istream& is);
Tensor read_tensor(std::istream& is);

/// Throws SerializationError unless `count` is in [0, max_count] and, when
/// the stream can report its length, at least `count * bytes_each` bytes are
/// left in it. Loaders call this before sizing anything from a count read off
/// the stream, so a corrupt count fails typed instead of allocating.
void check_count(std::istream& is, int64_t count, int64_t max_count, int64_t bytes_each,
                 const char* what);

/// Writes `magic` + `version`; used at the head of every model file.
void write_header(std::ostream& os, const std::string& magic, uint32_t version);

/// Reads and validates a header written by write_header. Throws
/// SerializationError on magic or version mismatch.
void read_header(std::istream& is, const std::string& magic, uint32_t version);

// --- Crash-safe, integrity-checked file IO ---------------------------------
//
// Every model/pipeline *file* is the serialized payload followed by a
// 16-byte trailer: u64 payload size, u32 CRC32 of the payload, and the
// 4-byte trailer magic. Saving goes through a temp file in the same
// directory plus an atomic rename, so a crash mid-save leaves either the
// previous file or the complete new one at the target path — never a
// partial write.

/// CRC-32 (IEEE 802.3 / zlib polynomial) of a byte range. Chain blocks by
/// passing the previous result as `crc`.
uint32_t crc32(const void* data, size_t size, uint32_t crc = 0);

/// Serializes `write_payload`'s output, appends the integrity trailer, and
/// atomically replaces `path` (temp file + rename). On any failure the temp
/// file is removed and the previous `path` contents are left untouched.
void save_file_checked(const std::string& path,
                       const std::function<void(std::ostream&)>& write_payload);

/// Milestones inside save_file_checked, surfaced so crash-injection tests
/// can kill the writer at each point and prove the target path always holds
/// either the complete previous file or the complete new one.
enum class SaveCheckpoint {
  kTempWritten,  ///< temp file fully written and flushed; rename not yet done
};

/// As above, but invokes `checkpoint` (when non-null) at each SaveCheckpoint.
/// A checkpoint that throws models a crash at that instant: the temp file is
/// removed and the previous `path` contents are left untouched.
void save_file_checked(const std::string& path,
                       const std::function<void(std::ostream&)>& write_payload,
                       const std::function<void(SaveCheckpoint)>& checkpoint);

/// Reads `path`, verifies the integrity trailer, and returns the payload
/// bytes. Throws TruncatedFileError when the trailer is missing/short or the
/// recorded size disagrees with the file, CorruptFileError on CRC mismatch,
/// and std::runtime_error when the file cannot be opened.
std::string load_file_checked(const std::string& path);

}  // namespace salnov
