#include "image/image_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace salnov {
namespace {

uint8_t to_byte(float v) {
  return static_cast<uint8_t>(std::lround(std::clamp(v, 0.0f, 1.0f) * 255.0f));
}

// Reads one whitespace/comment-delimited token from a PNM header.
std::string next_token(std::istream& is) {
  std::string token;
  int c = is.get();
  while (is) {
    if (c == '#') {  // comment runs to end of line
      while (is && c != '\n') c = is.get();
    } else if (std::isspace(c)) {
      if (!token.empty()) break;
    } else {
      token.push_back(static_cast<char>(c));
    }
    c = is.get();
  }
  if (token.empty()) throw std::runtime_error("PNM: truncated header");
  return token;
}

struct PnmHeader {
  int64_t width = 0;
  int64_t height = 0;
  int64_t maxval = 0;
};

PnmHeader read_pnm_header(std::istream& is, const std::string& expected_magic, const std::string& path) {
  const std::string magic = next_token(is);
  if (magic != expected_magic) {
    throw std::runtime_error(path + ": expected " + expected_magic + " file, got magic '" + magic + "'");
  }
  PnmHeader h;
  h.width = std::stoll(next_token(is));
  h.height = std::stoll(next_token(is));
  h.maxval = std::stoll(next_token(is));
  if (h.width <= 0 || h.height <= 0) throw std::runtime_error(path + ": invalid dimensions");
  if (h.maxval != 255) throw std::runtime_error(path + ": only 8-bit PNM supported");
  return h;
}

}  // namespace

void write_pgm(const std::string& path, const Image& image) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("write_pgm: cannot open " + path);
  os << "P5\n" << image.width() << ' ' << image.height() << "\n255\n";
  std::vector<uint8_t> row(static_cast<size_t>(image.width()));
  for (int64_t y = 0; y < image.height(); ++y) {
    for (int64_t x = 0; x < image.width(); ++x) row[static_cast<size_t>(x)] = to_byte(image(y, x));
    os.write(reinterpret_cast<const char*>(row.data()), static_cast<std::streamsize>(row.size()));
  }
  if (!os) throw std::runtime_error("write_pgm: write failed for " + path);
}

Image read_pgm(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("read_pgm: cannot open " + path);
  const PnmHeader h = read_pnm_header(is, "P5", path);
  Image image(h.height, h.width);
  std::vector<uint8_t> row(static_cast<size_t>(h.width));
  for (int64_t y = 0; y < h.height; ++y) {
    is.read(reinterpret_cast<char*>(row.data()), static_cast<std::streamsize>(row.size()));
    if (!is) throw std::runtime_error("read_pgm: truncated pixel data in " + path);
    for (int64_t x = 0; x < h.width; ++x) image(y, x) = static_cast<float>(row[static_cast<size_t>(x)]) / 255.0f;
  }
  return image;
}

}  // namespace salnov
