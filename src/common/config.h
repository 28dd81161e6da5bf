#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse_limits.h"
#include "common/result.h"
#include "common/status.h"

namespace ssum {

/// A minimal line-oriented `key: value` configuration format — the scenario
/// case files under bench/scenarios/ and anything else that wants a human
/// editable config without a YAML dependency:
///
///   # comment
///   name: stress_skew
///   schema.elements: 600
///   instance.unit_skew: zipf
///
/// Rules: one `key: value` pair per line; `#` starts a comment (whole line
/// only); blank lines are ignored; keys are `[A-Za-z0-9_.-]+`; values are
/// trimmed raw text (no quoting, no escapes, no continuation). Duplicate
/// keys are a parse error — a config where a later line silently wins is a
/// config that lies to its reader.
///
/// Errors follow the ingestion discipline (common/status_builder.h): every
/// diagnostic carries the source name, 1-based line and byte offset, and
/// ParseLimits bound input size, line length (max_token_bytes) and entry
/// count (max_items).
class ConfigMap {
 public:
  /// Parses `text`. `source` names the input in diagnostics (a path,
  /// "<inline>", ...).
  static Result<ConfigMap> Parse(std::string_view text, std::string_view source,
                                 const ParseLimits& limits);
  static Result<ConfigMap> Parse(std::string_view text,
                                 std::string_view source) {
    return Parse(text, source, ParseLimits::Defaults());
  }

  /// Reads and parses a file (through stdio; callers wanting fault injection
  /// read the bytes themselves and call Parse).
  static Result<ConfigMap> ParseFile(const std::string& path,
                                     const ParseLimits& limits);

  bool Has(std::string_view key) const;

  /// Typed getters. The non-default forms fail with NotFound when the key
  /// is absent; every form fails with InvalidArgument (naming key, line and
  /// source) when the value does not parse as the requested type. All
  /// getters mark the key as read — see UnreadKeys().
  Result<std::string> GetString(std::string_view key) const;
  std::string GetString(std::string_view key,
                        std::string_view default_value) const;
  Result<int64_t> GetInt(std::string_view key) const;
  /// Full uint64 range; negative or overflowing text is an error.
  Result<uint64_t> GetUint(std::string_view key) const;
  int64_t GetInt(std::string_view key, int64_t default_value) const;
  Result<double> GetDouble(std::string_view key) const;
  double GetDouble(std::string_view key, double default_value) const;
  Result<bool> GetBool(std::string_view key) const;
  bool GetBool(std::string_view key, bool default_value) const;

  /// Keys present in the config that no getter has touched, in line order.
  /// Spec loaders call this after reading every field they know to reject
  /// misspelled keys:
  ///
  ///   auto unread = config.UnreadKeys();
  ///   if (!unread.empty()) return InvalidArgumentError(...);
  std::vector<std::string> UnreadKeys() const;

  /// Status naming the first unread key with its line, or OK when every key
  /// was consumed. The one-call form of the check above.
  Status CheckAllKeysRead() const;

  /// All keys in line order (for serialization / debugging).
  std::vector<std::string> Keys() const;

  /// 1-based line a key was defined on (0 when absent).
  size_t LineOf(std::string_view key) const;

  const std::string& source() const { return source_; }

 private:
  struct Entry {
    std::string value;
    size_t line = 0;
    size_t order = 0;
  };

  Status TypedError(std::string_view key, const char* type,
                    std::string_view value) const;

  std::string source_;
  std::map<std::string, Entry, std::less<>> entries_;
  mutable std::set<std::string, std::less<>> read_;
};

}  // namespace ssum
