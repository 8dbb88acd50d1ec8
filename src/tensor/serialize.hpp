// Binary serialization primitives for tensors and model files, and the
// field io that saves and loads a record from one field list.
//
// Format: little-endian, length-prefixed. Every model/pipeline file in the
// library is built from these primitives plus a magic string + version
// header, so files are portable between runs and refuse to load on format
// drift.
//
// A record that is both written and read back spells its layout once, as a
// function template over the io (`Rec` is const when saving):
//
//   template <typename Io, typename Rec>
//   void fields(Io& io, Rec& rec) {
//     io.i64(rec.frames);
//     io.flag(rec.enabled, "enabled flag");
//     io.list(rec.stalls, kStallList, [](auto& io, auto& stall) { io.i64(stall.stall_ns); });
//   }
//
// FieldWriter writes each field. FieldReader fills it and enforces the
// loader checks by construction: a flag is 0 or 1, a tag is below its enum's
// count, a packed flag word has no unknown bits, and a list's count passes
// check_count (plausibility cap plus bytes left, with the item size taken
// from the same item fields by FieldSizer) before anything is sized from it.
// Every failure is a SerializationError prefixed with the reader's context.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <type_traits>

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

// --- Field io ---------------------------------------------------------------

/// A counted list's on-disk count type (uint32_t or int64_t), plausibility
/// cap, and the name its errors carry.
template <typename Count>
struct ListField {
  static_assert(std::is_same_v<Count, uint32_t> || std::is_same_v<Count, int64_t>);
  const char* what;
  int64_t max_count;
};

class FieldWriter {
 public:
  explicit FieldWriter(std::ostream& os) : os_(os) {}

  template <typename T>
  void i64(const T& value) { write_i64(os_, static_cast<int64_t>(value)); }
  template <typename T>
  void u32(const T& value) { write_u32(os_, static_cast<uint32_t>(value)); }
  void f64(double value) { write_f64(os_, value); }
  template <typename T>
  void f32(const T& value) { write_f32(os_, static_cast<float>(value)); }
  void str(const std::string& value) { write_string(os_, value); }
  void flag(bool value, const char*) { write_u32(os_, value ? 1u : 0u); }
  template <typename E>
  void tag(E value, uint32_t, const char*) { write_u32(os_, static_cast<uint32_t>(value)); }

  /// The bools `rec.*members[b]` packed as bit b of one u32.
  template <typename R, typename M, size_t N>
  void bits(const R& rec, const std::array<M, N>& members, const char*) {
    uint32_t word = 0;
    for (size_t b = 0; b < N; ++b) word |= (rec.*members[b] ? 1u : 0u) << b;
    write_u32(os_, word);
  }

  /// The count, then `item_fields(*this, item)` for each item.
  template <typename Count, typename C, typename F>
  void list(const C& items, ListField<Count>, F&& item_fields) {
    if constexpr (std::is_same_v<Count, uint32_t>) {
      write_u32(os_, static_cast<uint32_t>(items.size()));
    } else {
      write_i64(os_, static_cast<int64_t>(items.size()));
    }
    for (const auto& item : items) item_fields(*this, item);
  }

 private:
  std::ostream& os_;
};

/// Adds up the bytes a record's fields occupy; a string or a nested list
/// counts as its length prefix alone.
struct FieldSizer {
  int64_t bytes = 0;

  template <typename T>
  void i64(const T&) { bytes += 8; }
  template <typename T>
  void u32(const T&) { bytes += 4; }
  void f64(double) { bytes += 8; }
  template <typename T>
  void f32(const T&) { bytes += 4; }
  void str(const std::string&) { bytes += 4; }
  void flag(bool, const char*) { bytes += 4; }
  template <typename E>
  void tag(E, uint32_t, const char*) { bytes += 4; }
  template <typename R, typename M, size_t N>
  void bits(const R&, const std::array<M, N>&, const char*) { bytes += 4; }
  template <typename Count, typename C, typename F>
  void list(const C&, ListField<Count>, F&&) { bytes += sizeof(Count); }
};

class FieldReader {
 public:
  /// `context` prefixes every error: "trace" gives "trace: stall count: ...".
  FieldReader(std::istream& is, const char* context) : is_(is), context_(context) {}

  template <typename T>
  void i64(T& value) { value = static_cast<T>(read_i64(is_)); }
  template <typename T>
  void u32(T& value) { value = static_cast<T>(read_u32(is_)); }
  void f64(double& value) { value = read_f64(is_); }
  template <typename T>
  void f32(T& value) { value = read_f32(is_); }
  void str(std::string& value) { value = read_string(is_); }
  /// Rejects any value but 0 and 1.
  void flag(bool& value, const char* what) { value = below(2, what) != 0; }
  /// Rejects a value at or past `count`, the enum's enumerator count.
  template <typename E>
  void tag(E& value, uint32_t count, const char* what) { value = static_cast<E>(below(count, what)); }

  /// Rejects a word with a bit set past the last member.
  template <typename R, typename M, size_t N>
  void bits(R& rec, const std::array<M, N>& members, const char* what) {
    static_assert(N < 32);
    const uint32_t word = read_u32(is_);
    if ((word >> N) != 0) unknown_bits(word, what);
    for (size_t b = 0; b < N; ++b) rec.*members[b] = ((word >> b) & 1u) != 0;
  }

  /// Reads and checks the count, then sizes `items` and reads each one.
  template <typename Count, typename C, typename F>
  void list(C& items, ListField<Count> field, F&& item_fields) {
    int64_t count = 0;
    if constexpr (std::is_same_v<Count, uint32_t>) {
      count = read_u32(is_);
    } else {
      count = read_i64(is_);
    }
    FieldSizer size;
    const typename C::value_type probe{};
    item_fields(size, probe);
    checked_count(count, field.max_count, size.bytes, field.what);
    items.clear();
    items.resize(static_cast<size_t>(count));
    for (auto& item : items) item_fields(*this, item);
  }

 private:
  uint32_t below(uint32_t count, const char* what);
  [[noreturn]] void unknown_bits(uint32_t word, const char* what) const;
  void checked_count(int64_t count, int64_t max_count, int64_t bytes_each, const char* what);

  std::istream& is_;
  const char* context_;
};

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
