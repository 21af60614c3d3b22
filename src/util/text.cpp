#include "sttsim/util/text.hpp"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace sttsim {

std::string strprintf(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<std::size_t>(needed));
  }
  va_end(args_copy);
  return out;
}

std::string format_double(double v, int decimals) {
  return strprintf("%.*f", decimals, v);
}

std::string format_bytes(std::uint64_t bytes) {
  if (bytes >= 1024ULL * 1024 && bytes % (1024ULL * 1024) == 0) {
    return strprintf("%llu MiB",
                     static_cast<unsigned long long>(bytes / (1024ULL * 1024)));
  }
  if (bytes >= 1024 && bytes % 1024 == 0) {
    return strprintf("%llu KiB", static_cast<unsigned long long>(bytes / 1024));
  }
  return strprintf("%llu B", static_cast<unsigned long long>(bytes));
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string pad_right(std::string s, std::size_t width) {
  if (s.size() < width) s.append(width - s.size(), ' ');
  return s;
}

std::string pad_left(std::string s, std::size_t width) {
  if (s.size() < width) s.insert(0, width - s.size(), ' ');
  return s;
}

bool parse_unsigned(const char* s, std::uint64_t& out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_unsigned(const char* s, unsigned& out) {
  std::uint64_t v = 0;
  if (!parse_unsigned(s, v) || v > std::numeric_limits<unsigned>::max()) {
    return false;
  }
  out = static_cast<unsigned>(v);
  return true;
}

bool parse_finite(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return false;
  out = v;
  return true;
}

}  // namespace sttsim
