// Strict parsing of numeric command-line values: the whole argument must
// be a number in range, so a typo fails instead of running a different
// experiment.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>

namespace sfc::util {

/// The unsigned integer that all of `text` spells in `base` (0 takes C
/// prefixes, as strtoull does: 0x hex, a leading 0 octal), if it is at
/// most `max`. nullopt for an empty text, a sign, leading space, trailing
/// characters, or a value above `max` or 2^64 - 1.
inline std::optional<std::uint64_t> parse_unsigned(const char* text, int base,
                                                   std::uint64_t max) {
  // strtoull skips leading space and negates after a '-', so only a digit
  // may start the text.
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, base);
  if (errno == ERANGE || *end != '\0' || value > max) return std::nullopt;
  return value;
}

/// The finite double that all of `text` spells as strtod reads it (an
/// optional sign, decimal or hex digits, an exponent). nullopt for an empty
/// text, leading space, trailing characters, nan, inf, or a value whose
/// magnitude overflows; one that underflows reads as its rounded value.
inline std::optional<double> parse_double(const char* text) {
  // strtod skips leading space, as strtoull does.
  if (std::isspace(static_cast<unsigned char>(text[0]))) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace sfc::util
