#include "core/knob.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace salnov::knob_detail {

namespace {

std::string format_number(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.15g", v);
  return buffer;
}

std::string format_range(double lo, double hi) {
  if (std::isinf(lo) && std::isinf(hi)) return "";
  if (std::isinf(hi)) return ">= " + format_number(lo);
  return "in [" + format_number(lo) + ", " + format_number(hi) + "]";
}

std::string join_choices(std::span<const char* const> choices) {
  std::string out;
  for (const char* name : choices) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

template <typename T>
bool parse_whole(std::string_view text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end && !text.empty();
}

}  // namespace

void fail(std::string_view who, std::string_view flag, const std::string& what) {
  std::string message(who);
  if (!message.empty()) message += ": ";
  throw std::invalid_argument(message + "--" + std::string(flag) + " " + what);
}

int64_t parse_int(std::string_view flag, std::string_view text, double lo, double hi) {
  int64_t value = 0;
  if (!parse_whole(text, value)) fail("", flag, "expects an integer, got '" + std::string(text) + "'");
  check_range("", flag, static_cast<double>(value), lo, hi, 1);
  return value;
}

uint64_t parse_uint(std::string_view flag, std::string_view text) {
  uint64_t value = 0;
  if (!parse_whole(text, value)) {
    fail("", flag, "expects an unsigned integer, got '" + std::string(text) + "'");
  }
  return value;
}

double parse_real(std::string_view flag, std::string_view text) {
  double value = 0.0;
  if (!parse_whole(text, value)) fail("", flag, "expects a number, got '" + std::string(text) + "'");
  return value;
}

int64_t parse_choice(std::string_view flag, std::string_view text,
                     std::span<const char* const> choices) {
  for (size_t i = 0; i < choices.size(); ++i) {
    if (text == choices[i]) return static_cast<int64_t>(i);
  }
  fail("", flag, "must be one of " + join_choices(choices) + ", got '" + std::string(text) + "'");
}

void check_range(std::string_view who, std::string_view flag, double value, double lo, double hi,
                 int64_t scale) {
  const double s = static_cast<double>(scale);
  if (value >= lo * s && value <= hi * s) return;  // false for NaN
  fail(who, flag, "must be " + format_range(lo, hi) + ", got " + format_number(value / s));
}

void check_choice(std::string_view who, std::string_view flag, const std::string& value,
                  std::span<const char* const> choices) {
  for (const char* name : choices) {
    if (value == name) return;
  }
  fail(who, flag, "must be one of " + join_choices(choices) + ", got '" + value + "'");
}

std::string usage_line(std::string_view flag, std::string_view value, std::string_view doc,
                       double lo, double hi, std::span<const char* const> choices) {
  std::string line = "    --";
  line += flag;
  const std::string shown = choices.empty() ? std::string(value) : join_choices(choices);
  if (!shown.empty()) line += ' ';
  line += shown;
  line.resize(std::max<size_t>(line.size(), 34), ' ');
  line += ' ';
  line += doc;
  const std::string range = format_range(lo, hi);
  if (!range.empty()) line += ' ';
  line += range;
  line += '\n';
  return line;
}

}  // namespace salnov::knob_detail
