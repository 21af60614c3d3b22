// Bit- and address-manipulation helpers shared by all memory models.
#pragma once

#include <bit>
#include <cstdint>

namespace sttsim {

/// Byte address in the simulated (flat, physical) address space.
using Addr = std::uint64_t;

/// True iff `v` is a power of two (zero is not).
constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// log2 of a power of two. Precondition: is_pow2(v).
constexpr unsigned log2_exact(std::uint64_t v) {
  return static_cast<unsigned>(std::countr_zero(v));
}

/// Round `v` down to a multiple of the power-of-two `align`.
constexpr std::uint64_t align_down(std::uint64_t v, std::uint64_t align) {
  return v & ~(align - 1);
}

/// Round `v` up to a multiple of the power-of-two `align`.
constexpr std::uint64_t align_up(std::uint64_t v, std::uint64_t align) {
  return (v + align - 1) & ~(align - 1);
}

/// True iff `v` is a multiple of the power-of-two `align`.
constexpr bool is_aligned(std::uint64_t v, std::uint64_t align) {
  return (v & (align - 1)) == 0;
}

/// Ceiling division for unsigned integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Number of bits → number of bytes, rounding up.
constexpr std::uint64_t bits_to_bytes(std::uint64_t bits) {
  return ceil_div(bits, 8);
}

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;

}  // namespace sttsim
