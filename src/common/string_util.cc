#include "common/string_util.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ssum {

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n'))
    ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n'))
    --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string JoinStrings(const std::vector<std::string>& items,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  std::string buf(TrimWhitespace(s));
  if (buf.empty()) return Status::ParseError("empty integer");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::ParseError("integer out of range: " + buf);
  if (end != buf.c_str() + buf.size())
    return Status::ParseError("trailing characters in integer: " + buf);
  return static_cast<int64_t>(v);
}

Result<uint64_t> ParseUint64(std::string_view s) {
  std::string buf(TrimWhitespace(s));
  if (buf.empty()) return Status::ParseError("empty integer");
  // strtoull would silently wrap "-1" to 2^64 - 1.
  if (buf[0] == '-') return Status::ParseError("negative integer: " + buf);
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::ParseError("integer out of range: " + buf);
  if (end != buf.c_str() + buf.size())
    return Status::ParseError("trailing characters in integer: " + buf);
  return static_cast<uint64_t>(v);
}

Result<double> ParseDouble(std::string_view s) {
  std::string buf(TrimWhitespace(s));
  if (buf.empty()) return Status::ParseError("empty double");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return Status::ParseError("double out of range: " + buf);
  if (end != buf.c_str() + buf.size())
    return Status::ParseError("trailing characters in double: " + buf);
  return v;
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FormatWithCommas(int64_t v) {
  char digits[32];
  std::snprintf(digits, sizeof(digits), "%lld", static_cast<long long>(v < 0 ? -v : v));
  std::string body(digits);
  std::string out;
  int count = 0;
  for (auto it = body.rbegin(); it != body.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (v < 0) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

}  // namespace ssum
