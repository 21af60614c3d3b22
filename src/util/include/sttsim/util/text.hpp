// Small text-formatting helpers used by reports and error messages.
// (C++20 <format> is avoided for toolchain portability.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sttsim {

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-point formatting of `v` with `decimals` digits after the point.
std::string format_double(double v, int decimals);

/// Human-readable byte size: "64 KiB", "2 MiB", "512 B".
std::string format_bytes(std::uint64_t bytes);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits `s` at every `sep`, keeping empty fields: "a,,b" gives
/// {"a", "", "b"} and "" gives {""}. Undoes join: for a non-empty `v`
/// whose parts hold no ',', split(join(v, ","), ',') == v.
std::vector<std::string> split(const std::string& s, char sep);

/// Pads `s` on the right (left-aligns) to at least `width` characters.
std::string pad_right(std::string s, std::size_t width);

/// Pads `s` on the left (right-aligns) to at least `width` characters.
std::string pad_left(std::string s, std::size_t width);

/// Strict command-line number parsing, shared by every front end (the
/// sttsim CLI and the bench/ tools): the whole of `s` must be one
/// non-negative decimal integer that fits `out` — no sign, no leading
/// space, no trailing characters. Returns false, leaving `out` unchanged,
/// otherwise.
bool parse_unsigned(const char* s, std::uint64_t& out);
bool parse_unsigned(const char* s, unsigned& out);

/// Same for a finite decimal number spanning all of `s`.
bool parse_finite(const char* s, double& out);

}  // namespace sttsim
