// Small string helpers for workload parsing (word count, log scan) and the
// bench harness's tabular output.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cwc {

/// The C-locale `isspace` set: space, \t, \n, \v, \f and \r. Bytes >= 0x80
/// are not whitespace.
constexpr bool is_space(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

/// Lower-cases one byte; only ASCII 'A'-'Z' change.
constexpr char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// The whitespace token walk: returns the next run of non-whitespace bytes
/// in `rest` and advances `rest` past it, or an empty view once only
/// whitespace is left. Allocates nothing; tokens view `rest`'s bytes.
///
///   for (auto t = next_token(rest); !t.empty(); t = next_token(rest)) ...
inline std::string_view next_token(std::string_view& rest) {
  const std::size_t n = rest.size();
  std::size_t begin = 0;
  while (begin < n && is_space(rest[begin])) ++begin;
  std::size_t end = begin;
  while (end < n && !is_space(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

/// Splits on a single delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Trims whitespace (`is_space`) from both ends.
std::string_view trim(std::string_view text);

/// Lower-cases with `ascii_lower`.
std::string to_lower(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Shortest decimal representation that parses back to exactly `v` (for
/// JSON emitters whose output must round-trip doubles bit-exactly).
std::string shortest_double(double v);

}  // namespace cwc
