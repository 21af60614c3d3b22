// Portable explicit-SIMD tag match for the replay hot loop.
//
// The set-associative tag-match mask is an integer-lane pattern the
// autovectorizer would otherwise be trusted with (STTSIM_VEC_LOOP). It is
// an exact integer operation, so an explicit vector lowering is
// bit-identical to the scalar loop by construction — the wrapper below just
// removes the dependence on the compiler's cost model at that hot site.
//
// Dispatch is compile-time only: AVX2 when the TU is compiled with it,
// else SSE2 (baseline on every x86-64 target), else NEON, else the same
// STTSIM_VEC_LOOP scalar loop the site used before. No runtime detection —
// the binary never executes an instruction the compiler was not told the
// target has, and every backend computes the identical result (the SIMD ≡
// scalar property tests hold on whichever backend the build selected).
#pragma once

#include <cstdint>

#include "sttsim/util/bits.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#define STTSIM_SIMD_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#include <emmintrin.h>
#define STTSIM_SIMD_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define STTSIM_SIMD_NEON 1
#endif

namespace sttsim::util::simd {

/// Selected backend, for diagnostics (replay_micro prints it).
inline constexpr const char* kBackend =
#if defined(STTSIM_SIMD_AVX2)
    "avx2";
#elif defined(STTSIM_SIMD_SSE2)
    "sse2";
#elif defined(STTSIM_SIMD_NEON)
    "neon";
#else
    "scalar";
#endif

/// Number of 64-bit lanes one native vector holds (1 = scalar fallback).
inline constexpr unsigned kLanes64 =
#if defined(STTSIM_SIMD_AVX2)
    4;
#elif defined(STTSIM_SIMD_SSE2) || defined(STTSIM_SIMD_NEON)
    2;
#else
    1;
#endif

/// Bit i of the result is set iff values[i] == key, for n <= 64 values.
/// Exactly the mask the scalar compare loop builds (the set-assoc tag
/// match); at most one bit is set when values are unique.
inline std::uint64_t match_mask_u64(const std::uint64_t* values, unsigned n,
                                    std::uint64_t key) {
  std::uint64_t mask = 0;
  unsigned w = 0;
#if defined(STTSIM_SIMD_AVX2)
  const __m256i k4 = _mm256_set1_epi64x(static_cast<long long>(key));
  for (; w + 4 <= n; w += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(values + w));
    const int m = _mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, k4)));
    mask |= static_cast<std::uint64_t>(static_cast<unsigned>(m)) << w;
  }
#elif defined(STTSIM_SIMD_SSE2)
  // SSE2 has no 64-bit compare: compare 32-bit halves and AND the result
  // with its half-swapped self, leaving each 64-bit lane all-ones iff both
  // halves matched.
  const __m128i k2 = _mm_set1_epi64x(static_cast<long long>(key));
  for (; w + 2 <= n; w += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(values + w));
    const __m128i eq32 = _mm_cmpeq_epi32(v, k2);
    const __m128i eq64 =
        _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const int m = _mm_movemask_pd(_mm_castsi128_pd(eq64));
    mask |= static_cast<std::uint64_t>(static_cast<unsigned>(m)) << w;
  }
#elif defined(STTSIM_SIMD_NEON)
  for (; w + 2 <= n; w += 2) {
    const uint64x2_t v = vld1q_u64(values + w);
    const uint64x2_t eq = vceqq_u64(v, vdupq_n_u64(key));
    mask |= (vgetq_lane_u64(eq, 0) & 1u) << w;
    mask |= (vgetq_lane_u64(eq, 1) & 1u) << (w + 1);
  }
#endif
  STTSIM_VEC_LOOP
  for (; w < n; ++w) {
    mask |= static_cast<std::uint64_t>(values[w] == key) << w;
  }
  return mask;
}

}  // namespace sttsim::util::simd
