#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ssum {

/// One command-line flag: its name, how its value is checked and stored,
/// and an optional environment-variable fallback. Build one with the
/// *Flag functions below; ParseFlags reads a command line against a list.
struct Flag {
  std::string name;  ///< "--threads", "-k"
  /// The value's placeholder in usage lines; empty for a bool flag, which
  /// takes no value.
  std::string metavar;
  /// Checks a value and stores it; the error does not name the flag
  /// (ParseFlags adds the name). A bool flag's is called with "".
  std::function<Status(std::string_view value)> set;
  /// Read when the flag is absent from the command line; an unset or empty
  /// variable leaves the destination alone.
  const char* env = nullptr;

  Flag WithEnv(const char* var) && {
    env = var;
    return std::move(*this);
  }
};

/// Bounds of a DoubleFlag's value; an open end excludes its bound. NaN and
/// infinities are always rejected.
struct DoubleRange {
  double min = -std::numeric_limits<double>::max();
  double max = std::numeric_limits<double>::max();
  bool min_open = false;
  bool max_open = false;
};

namespace flags_internal {
/// kInvalidArgument with the concatenated `parts`.
Status Invalid(std::initializer_list<std::string_view> parts);
Result<int64_t> ParseIntIn(std::string_view value, int64_t min, int64_t max);
Result<double> ParseDoubleIn(std::string_view value, const DoubleRange& range);
}  // namespace flags_internal

// The builders store into `out`: a plain value, or a std::optional that
// tells whether the flag was given.

/// An integer in [min, max]. The range must fit the destination's type,
/// which makes the conversion on store exact.
template <typename T>
Flag IntFlag(std::string name, T* out, int64_t min, int64_t max) {
  return {std::move(name), "N", [out, min, max](std::string_view value) {
            auto v = flags_internal::ParseIntIn(value, min, max);
            if (!v.ok()) return v.status();
            *out = *v;
            return Status::OK();
          }};
}

/// A finite double within `range`.
template <typename T>
Flag DoubleFlag(std::string name, T* out, DoubleRange range) {
  return {std::move(name), "X", [out, range](std::string_view value) {
            auto v = flags_internal::ParseDoubleIn(value, range);
            if (!v.ok()) return v.status();
            *out = *v;
            return Status::OK();
          }};
}

/// A non-empty string.
template <typename T>
Flag StringFlag(std::string name, T* out, std::string metavar = "S") {
  return {std::move(name), std::move(metavar), [out](std::string_view value) {
            if (value.empty()) return Status::InvalidArgument("empty value");
            *out = std::string(value);
            return Status::OK();
          }};
}

/// One of the named `choices`; stores the value paired with the name given.
template <typename T>
Flag ChoiceFlag(std::string name, T* out,
                std::vector<std::pair<std::string, T>> choices) {
  std::string metavar;
  for (const auto& [choice, value] : choices) {
    metavar += (metavar.empty() ? "" : "|") + choice;
  }
  return {std::move(name), metavar,
          [out, choices = std::move(choices), metavar](std::string_view value) {
            for (const auto& [choice, stored] : choices) {
              if (choice == value) {
                *out = stored;
                return Status::OK();
              }
            }
            return flags_internal::Invalid(
                {"'", value, "' is not one of ", metavar});
          }};
}

/// A switch: present sets *out to true. It takes no value, so "--name=V"
/// is an error.
Flag BoolFlag(std::string name, bool* out);

/// "--threads N", N in [1, kMaxThreads], with SSUM_THREADS as its fallback.
/// The caller hands the result to SetDefaultThreadCount.
Flag ThreadsFlag(uint32_t* out);

/// Parses `args`, a command line without the program name, against `flags`.
/// "--name V" and "--name=V" set a flag, a bool flag takes no value, and
/// any argument that does not start with '-' is positional. A flag absent
/// from `args` then falls back to its environment variable. Returns the
/// positional arguments in order. An unknown flag, a missing value, a
/// malformed value and an out-of-range value are each kInvalidArgument
/// naming the flag (or the variable). With `stop_at_positional`, the first
/// positional argument and everything after it are returned unparsed, and
/// the environment is not read: the caller parses the rest, where a flag
/// may still replace its variable.
Result<std::vector<std::string>> ParseFlags(
    const std::vector<std::string>& args, const std::vector<Flag>& flags,
    bool stop_at_positional = false);

}  // namespace ssum
