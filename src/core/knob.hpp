// Knob rows: one constexpr row per operator knob.
//
// A serving knob (a stage budget, the ladder's hysteresis, a watchdog
// timeout, ...) is a member of a config struct. Its row holds everything
// else the system needs to know about it: the CLI flag that sets it, the
// member it sets, the unit scale between the flag and the member (1000 for
// a flag in microseconds and a member in nanoseconds), the valid range in
// flag units, the choices of an enum-valued knob, and a one-line doc. The
// table of rows sits beside its struct, and every reader reads it:
//
//   * the CLI parser (set_knob): a value must parse completely and lie in
//     range, or the error names the flag;
//   * the usage text (knob_usage);
//   * the struct's validate function or constructor (check_knobs), which
//     keeps code only for rules that span several fields;
//   * the row tests, which walk every range.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace salnov {

/// Reads and writes an integer-valued knob that is not a plain int member:
/// an enum (the value is its ordinal) or one value filled into an array.
template <typename S>
struct KnobAccess {
  int64_t (*get)(const S&);
  void (*set)(S&, int64_t);
};

/// A knob whose text is parsed into its member by a function that throws
/// std::invalid_argument on bad text (a packed schedule, for example).
template <typename S>
struct KnobParser {
  void (*parse)(S&, std::string_view text);
};

template <typename S>
using KnobMember = std::variant<int64_t S::*, int S::*, uint64_t S::*, double S::*, bool S::*,
                                std::string S::*, std::vector<int64_t> S::*, KnobAccess<S>,
                                KnobParser<S>>;

inline constexpr double kNoBound = std::numeric_limits<double>::infinity();

template <typename S>
struct Knob {
  const char* flag;        ///< CLI name, without the leading "--"
  KnobMember<S> member;    ///< what the flag sets; a bool member is a flag without a value
  const char* doc;         ///< one line for the usage text
  double lo = -kNoBound;   ///< valid range, inclusive, in flag units
  double hi = kNoBound;
  int64_t scale = 1;       ///< member units per flag unit
  std::span<const char* const> choices = {};  ///< names of an enum/text knob, by ordinal
};

namespace knob_detail {

template <typename M>
struct MemberOf;
template <typename S, typename T>
struct MemberOf<T S::*> {
  using Owner = S;
  using Type = T;
};

// Shared by every table; defined in knob.cpp.
[[noreturn]] void fail(std::string_view who, std::string_view flag, const std::string& what);
int64_t parse_int(std::string_view flag, std::string_view text, double lo, double hi);
uint64_t parse_uint(std::string_view flag, std::string_view text);
double parse_real(std::string_view flag, std::string_view text);
int64_t parse_choice(std::string_view flag, std::string_view text,
                     std::span<const char* const> choices);
void check_range(std::string_view who, std::string_view flag, double value, double lo, double hi,
                 int64_t scale);
void check_choice(std::string_view who, std::string_view flag, const std::string& value,
                  std::span<const char* const> choices);
std::string usage_line(std::string_view flag, std::string_view value, std::string_view doc,
                       double lo, double hi, std::span<const char* const> choices);

}  // namespace knob_detail

/// An enum member as a knob: its value is the enum's ordinal, and the row's
/// choices name the ordinals.
template <auto Member>
constexpr auto knob_enum() {
  using Owner = typename knob_detail::MemberOf<decltype(Member)>::Owner;
  using Enum = typename knob_detail::MemberOf<decltype(Member)>::Type;
  return KnobAccess<Owner>{
      [](const Owner& s) { return static_cast<int64_t>(s.*Member); },
      [](Owner& s, int64_t v) { s.*Member = static_cast<Enum>(v); }};
}

/// True when the row's flag takes no value (a bool member).
template <typename S>
bool knob_is_switch(const Knob<S>& row) {
  return std::holds_alternative<bool S::*>(row.member);
}

/// Sets the row's member from `text` (ignored for a switch). A value must
/// parse completely and lie in the row's range; otherwise this throws
/// std::invalid_argument naming the flag.
template <typename S>
void set_knob(const Knob<S>& row, S& target, std::string_view text) {
  using namespace knob_detail;
  const auto scaled = [&] { return parse_int(row.flag, text, row.lo, row.hi) * row.scale; };
  std::visit(
      [&](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, int64_t S::*>) {
          target.*m = scaled();
        } else if constexpr (std::is_same_v<M, int S::*>) {
          target.*m = static_cast<int>(scaled());
        } else if constexpr (std::is_same_v<M, uint64_t S::*>) {
          target.*m = parse_uint(row.flag, text);
        } else if constexpr (std::is_same_v<M, double S::*>) {
          const double v = parse_real(row.flag, text);
          check_range("", row.flag, v, row.lo, row.hi, 1);
          target.*m = v;
        } else if constexpr (std::is_same_v<M, bool S::*>) {
          target.*m = true;
        } else if constexpr (std::is_same_v<M, std::string S::*>) {
          if (!row.choices.empty()) parse_choice(row.flag, text, row.choices);
          target.*m = std::string(text);
        } else if constexpr (std::is_same_v<M, std::vector<int64_t> S::*>) {
          (target.*m).push_back(scaled());
        } else if constexpr (std::is_same_v<M, KnobAccess<S>>) {
          m.set(target, row.choices.empty() ? scaled() : parse_choice(row.flag, text, row.choices));
        } else {
          try {
            m.parse(target, text);
          } catch (const std::invalid_argument& e) {
            fail("", row.flag, std::string("rejected: ") + e.what());
          }
        }
      },
      row.member);
}

/// Throws std::invalid_argument("<who>: --flag ...") for the first member of
/// `target` outside its row's range (or choices). Switches and parsed knobs
/// have no range.
template <typename S>
void check_knob(const Knob<S>& row, const S& target, std::string_view who) {
  using namespace knob_detail;
  const auto check = [&](double v) { check_range(who, row.flag, v, row.lo, row.hi, row.scale); };
  std::visit(
      [&](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, int64_t S::*> || std::is_same_v<M, int S::*> ||
                      std::is_same_v<M, double S::*>) {
          check(static_cast<double>(target.*m));
        } else if constexpr (std::is_same_v<M, std::string S::*>) {
          if (!row.choices.empty()) check_choice(who, row.flag, target.*m, row.choices);
        } else if constexpr (std::is_same_v<M, std::vector<int64_t> S::*>) {
          for (const int64_t v : target.*m) check(static_cast<double>(v));
        } else if constexpr (std::is_same_v<M, KnobAccess<S>>) {
          if (row.choices.empty()) check(static_cast<double>(m.get(target)));
        }
      },
      row.member);
}

template <typename Rows, typename S>
void check_knobs(const Rows& rows, const S& target, std::string_view who) {
  for (const Knob<S>& row : rows) check_knob(row, target, who);
}

/// The flag of the row holding `member`: lets a cross-field rule name its
/// flags without spelling them again.
template <typename Rows, typename S, typename T>
const char* knob_flag(const Rows& rows, T S::*member) {
  for (const Knob<S>& row : rows) {
    const auto* m = std::get_if<T S::*>(&row.member);
    if (m != nullptr && *m == member) return row.flag;
  }
  throw std::logic_error("knob_flag: member has no row");
}

/// The usage line of one row: flag, value placeholder, doc, range or choices.
template <typename S>
std::string knob_usage(const Knob<S>& row) {
  // Placeholder per KnobMember alternative, in declaration order.
  constexpr const char* kValue[] = {"N", "N", "N", "X", "", "TEXT", "N", "N", "TEXT"};
  static_assert(std::size(kValue) == std::variant_size_v<KnobMember<S>>);
  return knob_detail::usage_line(row.flag, kValue[row.member.index()], row.doc, row.lo, row.hi,
                                 row.choices);
}

}  // namespace salnov
