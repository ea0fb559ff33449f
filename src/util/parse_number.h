// Whole-string number parsing for command lines and config files.
#ifndef OBJREP_UTIL_PARSE_NUMBER_H_
#define OBJREP_UTIL_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <string_view>
#include <type_traits>

namespace objrep {

/// Parses all of `v` as a U and stores it in `*out`. Rejects a blank
/// value, a trailing byte, a sign on an unsigned U, a value that overflows
/// U, and a non-finite double. Leaves `*out` unchanged on failure.
template <typename U, typename T>
bool ParseNumber(std::string_view v, T* out) {
  U n{};
  const char* end = v.data() + v.size();
  auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<U>) {
    if (!std::isfinite(n)) return false;
  }
  *out = static_cast<T>(n);
  return true;
}

}  // namespace objrep

#endif  // OBJREP_UTIL_PARSE_NUMBER_H_
