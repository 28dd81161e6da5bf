#include "common/config.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/status_builder.h"
#include "common/string_util.h"

namespace ssum {
namespace {

bool IsKeyChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

bool IsValidKey(std::string_view key) {
  if (key.empty()) return false;
  for (char c : key) {
    if (!IsKeyChar(c)) return false;
  }
  return true;
}

/// Quoted input text in parse errors: clipped and with non-printable bytes
/// replaced, so a Status message never carries a raw dump of the file it
/// failed on (parse errors can travel over the serve wire).
std::string Preview(std::string_view text) {
  constexpr size_t kMaxPreviewBytes = 48;
  const bool clipped = text.size() > kMaxPreviewBytes;
  if (clipped) text = text.substr(0, kMaxPreviewBytes);
  std::string out;
  out.reserve(text.size() + 3);
  for (char c : text) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back((b < 0x20 || b == 0x7f) ? '?' : c);
  }
  if (clipped) out += "...";
  return out;
}

}  // namespace

Result<ConfigMap> ConfigMap::Parse(std::string_view text,
                                   std::string_view source,
                                   const ParseLimits& limits) {
  SSUM_RETURN_NOT_OK(CheckInputSize(text.size(), limits, "config"));

  ConfigMap config;
  config.source_ = std::string(source);

  size_t line_number = 0;
  size_t pos = 0;
  size_t order = 0;
  while (pos < text.size()) {
    size_t line_start = pos;
    size_t eol = text.find('\n', pos);
    std::string_view raw = (eol == std::string_view::npos)
                               ? text.substr(pos)
                               : text.substr(pos, eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() : eol + 1;
    ++line_number;

    if (raw.size() > limits.max_token_bytes) {
      return ParseErrorAt(line_number, line_start).Source(source)
             << "config line exceeds max_token_bytes ("
             << limits.max_token_bytes << ")";
    }

    std::string_view line = TrimWhitespace(raw);
    if (line.empty() || line.front() == '#') continue;

    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return ParseErrorAt(line_number, line_start).Source(source)
             << "expected 'key: value', got '" << Preview(line) << "'";
    }
    std::string_view key = TrimWhitespace(line.substr(0, colon));
    std::string_view value = TrimWhitespace(line.substr(colon + 1));
    if (!IsValidKey(key)) {
      return ParseErrorAt(line_number, line_start).Source(source)
             << "invalid config key '" << Preview(key)
             << "' (allowed: [A-Za-z0-9_.-]+)";
    }
    auto it = config.entries_.find(key);
    if (it != config.entries_.end()) {
      return ParseErrorAt(line_number, line_start).Source(source)
             << "duplicate config key '" << key << "' (first defined on line "
             << it->second.line << ")";
    }
    if (config.entries_.size() >= limits.max_items) {
      return ParseErrorAt(line_number, line_start).Source(source)
             << "config exceeds max_items (" << limits.max_items << ")";
    }
    Entry entry;
    entry.value = std::string(value);
    entry.line = line_number;
    entry.order = order++;
    config.entries_.emplace(std::string(key), std::move(entry));
  }
  return config;
}

Result<ConfigMap> ConfigMap::ParseFile(const std::string& path,
                                       const ParseLimits& limits) {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "rb"),
                                             &std::fclose);
  if (file == nullptr) {
    return Status::NotFound("cannot open config file '" + path + "'");
  }
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file.get())) > 0) {
    text.append(buffer, got);
    if (text.size() > limits.max_input_bytes) {
      return Status::OutOfRange("config file '" + path +
                             "' exceeds max_input_bytes");
    }
  }
  if (std::ferror(file.get())) {
    return Status::Unavailable("error reading config file '" + path + "'");
  }
  return Parse(text, path, limits);
}

bool ConfigMap::Has(std::string_view key) const {
  return entries_.find(key) != entries_.end();
}

Result<std::string> ConfigMap::GetString(std::string_view key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return Status::NotFound("missing config key '" + std::string(key) + "' in " +
                         source_);
  }
  read_.insert(std::string(key));
  return it->second.value;
}

std::string ConfigMap::GetString(std::string_view key,
                                 std::string_view default_value) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::string(default_value);
  read_.insert(std::string(key));
  return it->second.value;
}

Status ConfigMap::TypedError(std::string_view key, const char* type,
                             std::string_view value) const {
  auto it = entries_.find(key);
  size_t line = (it == entries_.end()) ? 0 : it->second.line;
  return StatusBuilder(StatusCode::kInvalidArgument)
             .Source(source_)
             .Line(line)
         << "config key '" << key << "': '" << Preview(value)
         << "' is not a valid " << type;
}

Result<int64_t> ConfigMap::GetInt(std::string_view key) const {
  auto value = GetString(key);
  SSUM_RETURN_NOT_OK(value.status());
  auto parsed = ParseInt64(*value);
  if (!parsed.ok()) return TypedError(key, "integer", *value);
  return *parsed;
}

Result<uint64_t> ConfigMap::GetUint(std::string_view key) const {
  auto value = GetString(key);
  SSUM_RETURN_NOT_OK(value.status());
  auto parsed = ParseUint64(*value);
  if (!parsed.ok()) return TypedError(key, "non-negative integer", *value);
  return *parsed;
}

int64_t ConfigMap::GetInt(std::string_view key, int64_t default_value) const {
  if (!Has(key)) return default_value;
  auto parsed = GetInt(key);
  return parsed.ok() ? *parsed : default_value;
}

Result<double> ConfigMap::GetDouble(std::string_view key) const {
  auto value = GetString(key);
  SSUM_RETURN_NOT_OK(value.status());
  auto parsed = ParseDouble(*value);
  if (!parsed.ok()) return TypedError(key, "number", *value);
  return *parsed;
}

double ConfigMap::GetDouble(std::string_view key, double default_value) const {
  if (!Has(key)) return default_value;
  auto parsed = GetDouble(key);
  return parsed.ok() ? *parsed : default_value;
}

Result<bool> ConfigMap::GetBool(std::string_view key) const {
  auto value = GetString(key);
  SSUM_RETURN_NOT_OK(value.status());
  std::string lower = AsciiToLower(*value);
  if (lower == "true" || lower == "yes" || lower == "on" || lower == "1") {
    return true;
  }
  if (lower == "false" || lower == "no" || lower == "off" || lower == "0") {
    return false;
  }
  return TypedError(key, "boolean", *value);
}

bool ConfigMap::GetBool(std::string_view key, bool default_value) const {
  if (!Has(key)) return default_value;
  auto parsed = GetBool(key);
  return parsed.ok() ? *parsed : default_value;
}

std::vector<std::string> ConfigMap::UnreadKeys() const {
  std::vector<std::pair<size_t, std::string>> unread;
  for (const auto& [key, entry] : entries_) {
    if (read_.find(key) == read_.end()) unread.emplace_back(entry.order, key);
  }
  std::sort(unread.begin(), unread.end());
  std::vector<std::string> keys;
  keys.reserve(unread.size());
  for (auto& [order, key] : unread) keys.push_back(std::move(key));
  return keys;
}

Status ConfigMap::CheckAllKeysRead() const {
  auto unread = UnreadKeys();
  if (unread.empty()) return Status::OK();
  return StatusBuilder(StatusCode::kInvalidArgument)
             .Source(source_)
             .Line(LineOf(unread.front()))
         << "unknown config key '" << unread.front() << "'"
         << (unread.size() > 1
                 ? " (and " + std::to_string(unread.size() - 1) + " more)"
                 : "");
}

std::vector<std::string> ConfigMap::Keys() const {
  std::vector<std::pair<size_t, std::string>> ordered;
  for (const auto& [key, entry] : entries_) {
    ordered.emplace_back(entry.order, key);
  }
  std::sort(ordered.begin(), ordered.end());
  std::vector<std::string> keys;
  keys.reserve(ordered.size());
  for (auto& [order, key] : ordered) keys.push_back(std::move(key));
  return keys;
}

size_t ConfigMap::LineOf(std::string_view key) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.line;
}

}  // namespace ssum
