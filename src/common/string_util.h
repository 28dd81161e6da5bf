#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace ssum {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view TrimWhitespace(std::string_view s);

/// True when `s` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Joins the items with `sep` between them.
std::string JoinStrings(const std::vector<std::string>& items,
                        std::string_view sep);

/// Strict integer / double parsing (whole string must be consumed).
/// ParseUint64 covers the full uint64 range and rejects a leading '-'.
Result<int64_t> ParseInt64(std::string_view s);
Result<uint64_t> ParseUint64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// Lower-cases ASCII characters.
std::string AsciiToLower(std::string_view s);

/// Formats a double with fixed precision (no locale surprises).
std::string FormatDouble(double v, int precision);

/// Formats an integer with thousands separators ("12,550").
std::string FormatWithCommas(int64_t v);

}  // namespace ssum
