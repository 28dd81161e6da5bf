#include "common/flags.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/parallel.h"
#include "common/string_util.h"

namespace ssum {

namespace flags_internal {

Status Invalid(std::initializer_list<std::string_view> parts) {
  std::string message;
  for (std::string_view part : parts) message.append(part);
  return Status::InvalidArgument(std::move(message));
}

Result<int64_t> ParseIntIn(std::string_view value, int64_t min, int64_t max) {
  const Result<int64_t> v = ParseInt64(value);
  if (!v.ok() || *v < min || *v > max) {
    return Invalid({"'", value, "' is not an integer in [",
                    std::to_string(min), ", ", std::to_string(max), "]"});
  }
  return *v;
}

Result<double> ParseDoubleIn(std::string_view value, const DoubleRange& range) {
  const Result<double> v = ParseDouble(value);
  if (v.ok() && std::isfinite(*v) &&
      (range.min_open ? *v > range.min : *v >= range.min) &&
      (range.max_open ? *v < range.max : *v <= range.max)) {
    return *v;
  }
  const auto format = [](double b) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", b);
    return std::string(buf);
  };
  constexpr double kMax = std::numeric_limits<double>::max();
  const bool no_min = range.min <= -kMax, no_max = range.max >= kMax;
  return Invalid({"'", value, "' is not a finite number in ",
                  no_min || range.min_open ? "(" : "[",
                  no_min ? "-inf" : format(range.min), ", ",
                  no_max ? "inf" : format(range.max),
                  no_max || range.max_open ? ")" : "]"});
}

}  // namespace flags_internal

Flag BoolFlag(std::string name, bool* out) {
  return {std::move(name), "", [out](std::string_view) {
            *out = true;
            return Status::OK();
          }};
}

Flag ThreadsFlag(uint32_t* out) {
  return IntFlag("--threads", out, 1, kMaxThreads).WithEnv("SSUM_THREADS");
}

Result<std::vector<std::string>> ParseFlags(
    const std::vector<std::string>& args, const std::vector<Flag>& flags,
    bool stop_at_positional) {
  std::vector<std::string> positional;
  std::vector<bool> given(flags.size(), false);
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      if (stop_at_positional) {
        positional.assign(args.begin() + static_cast<ptrdiff_t>(i),
                          args.end());
        return positional;
      }
      positional.emplace_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    size_t f = 0;
    while (f < flags.size() && flags[f].name != name) ++f;
    if (f == flags.size()) {
      return flags_internal::Invalid({"unknown flag '", arg, "'"});
    }
    const Flag& flag = flags[f];
    std::string_view value;
    if (flag.metavar.empty()) {
      if (eq != std::string_view::npos) {
        return flags_internal::Invalid({flag.name, " takes no value"});
      }
    } else if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      return flags_internal::Invalid({"missing value for ", flag.name});
    }
    if (Status s = flag.set(value); !s.ok()) return s.WithContext(flag.name);
    given[f] = true;
  }
  for (size_t f = 0; f < flags.size(); ++f) {
    if (given[f] || flags[f].env == nullptr) continue;
    const char* env = std::getenv(flags[f].env);
    if (env == nullptr || *env == '\0') continue;
    if (Status s = flags[f].set(env); !s.ok()) {
      return s.WithContext(std::string(flags[f].env) + " (fallback of " +
                           flags[f].name + ")");
    }
  }
  return positional;
}

}  // namespace ssum
