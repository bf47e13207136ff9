// Strict parsing of the numbers users type: command-line flag values, the
// shell's verb arguments and the serve client's option words.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>

#include "base/error.h"

namespace esl {

/// Parses `value` as a non-negative decimal no larger than `max`: digits
/// only — no sign, no space, no trailing text. Throws EslError
/// "<what> expects a number, got '<value>'" otherwise ("... a number no
/// larger than <max> ..." when only the bound fails).
inline std::uint64_t parseNum(
    const std::string& what, const std::string& value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (value.empty() || ec != std::errc() || ptr != end)
    throw EslError(what + " expects a number, got '" + value + "'");
  if (v > max)
    throw EslError(what + " expects a number no larger than " +
                   std::to_string(max) + ", got '" + value + "'");
  return v;
}

}  // namespace esl
