#include "tensor/serialize.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace salnov {
namespace {

template <typename T>
void write_raw(std::ostream& os, T value) {
  // The library targets little-endian hosts (x86-64/aarch64); a static check
  // here would require C++20 <bit>, which we use.
  static_assert(std::endian::native == std::endian::little, "serialization assumes little-endian host");
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
  if (!os) throw SerializationError("serialize: write failed");
}

template <typename T>
T read_raw(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!is) throw SerializationError("serialize: unexpected end of stream");
  return value;
}

constexpr int64_t kMaxReasonableElements = int64_t{1} << 32;

/// Strings in our formats are magic tags, layer types, and parameter names;
/// anything longer means the length field is garbage.
constexpr uint32_t kMaxReasonableString = 1u << 20;

/// Bytes between the read position and the end of a seekable stream; -1
/// when the stream cannot tell.
int64_t bytes_left(std::istream& is) {
  std::streambuf* buf = is.rdbuf();
  if (buf == nullptr) return -1;
  const std::streampos here = buf->pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == std::streampos(-1)) return -1;
  const std::streampos end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  buf->pubseekpos(here, std::ios::in);
  if (end == std::streampos(-1)) return -1;
  return static_cast<int64_t>(end - here);
}

/// File trailer: u64 payload size + u32 crc + 4-byte magic.
constexpr size_t kTrailerSize = 16;
constexpr char kTrailerMagic[4] = {'S', 'N', 'V', 'C'};

}  // namespace

void write_u32(std::ostream& os, uint32_t value) { write_raw(os, value); }
void write_i64(std::ostream& os, int64_t value) { write_raw(os, value); }
void write_f32(std::ostream& os, float value) { write_raw(os, value); }
void write_f64(std::ostream& os, double value) { write_raw(os, value); }

void write_string(std::ostream& os, const std::string& value) {
  if (value.size() > std::numeric_limits<uint32_t>::max()) {
    throw SerializationError("write_string: string too long");
  }
  write_u32(os, static_cast<uint32_t>(value.size()));
  os.write(value.data(), static_cast<std::streamsize>(value.size()));
  if (!os) throw SerializationError("serialize: write failed");
}

void write_tensor(std::ostream& os, const Tensor& tensor) {
  write_u32(os, static_cast<uint32_t>(tensor.rank()));
  for (int64_t d = 0; d < tensor.rank(); ++d) write_i64(os, tensor.dim(d));
  os.write(reinterpret_cast<const char*>(tensor.data()),
           static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
  if (!os) throw SerializationError("write_tensor: write failed");
}

uint32_t read_u32(std::istream& is) { return read_raw<uint32_t>(is); }
int64_t read_i64(std::istream& is) { return read_raw<int64_t>(is); }
float read_f32(std::istream& is) { return read_raw<float>(is); }
double read_f64(std::istream& is) { return read_raw<double>(is); }

void check_count(std::istream& is, int64_t count, int64_t max_count, int64_t bytes_each,
                 const char* what) {
  if (count < 0 || count > max_count) {
    throw SerializationError(std::string(what) + ": implausible count " + std::to_string(count));
  }
  const int64_t left = bytes_left(is);
  if (left >= 0 && bytes_each > 0 && count > left / bytes_each) {
    throw SerializationError(std::string(what) + ": count " + std::to_string(count) + " needs " +
                             std::to_string(bytes_each) + " bytes each but only " +
                             std::to_string(left) + " remain");
  }
}

std::string read_string(std::istream& is) {
  const uint32_t size = read_u32(is);
  check_count(is, size, kMaxReasonableString, 1, "read_string: length");
  std::string value(size, '\0');
  is.read(value.data(), static_cast<std::streamsize>(size));
  if (!is) throw SerializationError("read_string: unexpected end of stream");
  return value;
}

Tensor read_tensor(std::istream& is) {
  const uint32_t rank = read_u32(is);
  if (rank > 8) throw SerializationError("read_tensor: implausible rank " + std::to_string(rank));
  Shape shape(rank);
  // The element count is accumulated with an overflow guard *before* the
  // shape reaches any allocator: an adversarial header like [2^62, 2^62, 0]
  // must not wrap the int64 product around the plausibility check below.
  int64_t n = 1;
  for (auto& d : shape) {
    d = read_i64(is);
    if (d < 0) throw SerializationError("read_tensor: negative dimension");
    if (d > 0 && n > kMaxReasonableElements / d) {
      throw SerializationError("read_tensor: element count overflows plausibility bound");
    }
    n *= d;
  }
  check_count(is, n, kMaxReasonableElements, sizeof(float), "read_tensor: element count");
  Tensor tensor(std::move(shape));
  is.read(reinterpret_cast<char*>(tensor.data()), static_cast<std::streamsize>(n * sizeof(float)));
  if (!is) throw SerializationError("read_tensor: unexpected end of stream");
  return tensor;
}

uint32_t FieldReader::below(uint32_t count, const char* what) {
  const uint32_t value = read_u32(is_);
  if (value >= count) {
    throw SerializationError(std::string(context_) + ": " + what + " value " +
                             std::to_string(value) + " out of range");
  }
  return value;
}

void FieldReader::unknown_bits(uint32_t word, const char* what) const {
  throw SerializationError(std::string(context_) + ": unknown " + what + " " +
                           std::to_string(word));
}

void FieldReader::checked_count(int64_t count, int64_t max_count, int64_t bytes_each,
                                const char* what) {
  check_count(is_, count, max_count, bytes_each, (std::string(context_) + ": " + what).c_str());
}

void write_header(std::ostream& os, const std::string& magic, uint32_t version) {
  write_string(os, magic);
  write_u32(os, version);
}

void read_header(std::istream& is, const std::string& magic, uint32_t version) {
  const std::string got_magic = read_string(is);
  if (got_magic != magic) {
    throw SerializationError("read_header: expected magic '" + magic + "', got '" + got_magic + "'");
  }
  const uint32_t got_version = read_u32(is);
  if (got_version != version) {
    throw SerializationError("read_header: '" + magic + "' version " + std::to_string(got_version) +
                             " unsupported (want " + std::to_string(version) + ")");
  }
}

uint32_t crc32(const void* data, size_t size, uint32_t crc) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

void save_file_checked(const std::string& path,
                       const std::function<void(std::ostream&)>& write_payload) {
  save_file_checked(path, write_payload, nullptr);
}

void save_file_checked(const std::string& path,
                       const std::function<void(std::ostream&)>& write_payload,
                       const std::function<void(SaveCheckpoint)>& checkpoint) {
  std::ostringstream buffer(std::ios::binary);
  write_payload(buffer);
  const std::string payload = buffer.str();
  const uint64_t size = payload.size();
  const uint32_t crc = crc32(payload.data(), payload.size());

  // The temp file lives next to the target so the final rename stays within
  // one filesystem (rename is only atomic then); the pid suffix keeps
  // concurrent writers (e.g. two bench binaries) from clobbering each other.
  const std::string tmp = path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  try {
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os) throw std::runtime_error("save_file_checked: cannot open " + tmp);
      os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
      os.write(reinterpret_cast<const char*>(&size), sizeof(size));
      os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
      os.write(kTrailerMagic, sizeof(kTrailerMagic));
      os.flush();
      if (!os) throw std::runtime_error("save_file_checked: write failed for " + tmp);
    }
    // A throw here (crash injection) leaves the temp removed and the target
    // untouched: the complete previous file survives.
    if (checkpoint) checkpoint(SaveCheckpoint::kTempWritten);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      throw std::runtime_error("save_file_checked: cannot rename " + tmp + " to " + path + ": " +
                               ec.message());
    }
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

std::string load_file_checked(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_file_checked: cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  if (!is.good() && !is.eof()) {
    throw std::runtime_error("load_file_checked: read failed for " + path);
  }

  if (data.size() < kTrailerSize ||
      std::memcmp(data.data() + data.size() - sizeof(kTrailerMagic), kTrailerMagic,
                  sizeof(kTrailerMagic)) != 0) {
    throw TruncatedFileError(path +
                             ": missing integrity trailer — the file is truncated, predates the "
                             "checksummed format, or is not a salnov file; re-create it with the "
                             "step that produced it");
  }
  uint64_t recorded_size = 0;
  uint32_t recorded_crc = 0;
  const char* trailer = data.data() + data.size() - kTrailerSize;
  std::memcpy(&recorded_size, trailer, sizeof(recorded_size));
  std::memcpy(&recorded_crc, trailer + sizeof(recorded_size), sizeof(recorded_crc));
  const uint64_t payload_size = data.size() - kTrailerSize;
  if (recorded_size != payload_size) {
    throw TruncatedFileError(path + ": trailer records " + std::to_string(recorded_size) +
                             " payload bytes but the file holds " + std::to_string(payload_size) +
                             " — the file was cut short or spliced; re-create it");
  }
  const uint32_t computed_crc = crc32(data.data(), payload_size);
  if (computed_crc != recorded_crc) {
    char detail[64];
    std::snprintf(detail, sizeof detail, " (stored %08x, computed %08x)", recorded_crc,
                  computed_crc);
    throw CorruptFileError(path + ": CRC32 mismatch" + detail +
                           " — the bytes on disk are corrupt; re-create the file");
  }
  data.resize(payload_size);
  return data;
}

}  // namespace salnov
