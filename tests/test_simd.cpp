// The explicit-SIMD tag match (util/simd.hpp) must be bit-identical to the
// scalar loop it replaced, on whichever backend the build selected. Two
// layers are pinned here:
//
//   1. The primitive itself — match_mask_u64 against a scalar reference
//      over adversarial inputs (all lengths through the widest set,
//      sentinel tags).
//   2. Direct-to-decoded synthesis — every suite kernel × codegen variant
//      emits packed DecodedOps byte-identical to decode() of their
//      reassembled raw trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/util/simd.hpp"
#include "sttsim/workloads/suite.hpp"

namespace {

using namespace sttsim;

// ---- 1. Primitive vs scalar reference --------------------------------

std::uint64_t ref_mask(const std::uint64_t* v, unsigned n, std::uint64_t key) {
  std::uint64_t mask = 0;
  for (unsigned i = 0; i < n; ++i) {
    mask |= static_cast<std::uint64_t>(v[i] == key) << i;
  }
  return mask;
}

TEST(SimdPrimitives, MatchMaskMatchesScalarReference) {
  std::mt19937_64 rng(0xA11CE);
  for (unsigned n = 0; n <= 64; ++n) {
    // Small alphabet forces frequent (and multi-bit) matches; the sentinel
    // all-ones value is what invalid ways/lines hold in the real arrays.
    std::vector<std::uint64_t> v(n);
    for (unsigned trial = 0; trial < 50; ++trial) {
      for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t r = rng();
        v[i] = (r & 8) ? ~std::uint64_t{0} : (r & 7);
      }
      const std::uint64_t key = (trial & 1) ? ~std::uint64_t{0} : rng() & 7;
      EXPECT_EQ(util::simd::match_mask_u64(v.data(), n, key),
                ref_mask(v.data(), n, key))
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(SimdPrimitives, MatchMaskFindsPlantedUniqueHit) {
  std::mt19937_64 rng(7);
  for (unsigned n = 1; n <= 64; ++n) {
    std::vector<std::uint64_t> v(n, ~std::uint64_t{0});
    for (unsigned i = 0; i < n; ++i) v[i] = rng() | 1u;  // unique-ish, != key
    const unsigned pos = static_cast<unsigned>(rng() % n);
    const std::uint64_t key = (rng() << 1);  // even: cannot collide
    v[pos] = key;
    EXPECT_EQ(util::simd::match_mask_u64(v.data(), n, key),
              std::uint64_t{1} << pos)
        << "n=" << n << " pos=" << pos;
  }
}

// ---- 2. Direct synthesis == decode of its reassembly -----------------

TEST(DirectSynthesis, ByteIdenticalAcrossSuiteAndCodegen) {
  workloads::CodegenOptions vec_only;
  vec_only.vectorize = true;
  workloads::CodegenOptions pf_only;
  pf_only.prefetch = true;
  const workloads::CodegenOptions variants[] = {
      workloads::CodegenOptions::none(), vec_only, pf_only,
      workloads::CodegenOptions::all()};
  for (const workloads::Kernel& k : workloads::polybench_suite()) {
    ASSERT_TRUE(k.generate_decoded) << k.name;
    for (std::size_t v = 0; v < std::size(variants); ++v) {
      SCOPED_TRACE(k.name + " variant " + std::to_string(v));
      const cpu::DecodedTrace direct = k.generate_decoded(variants[v]);
      const cpu::DecodedTrace via_decode =
          cpu::decode(cpu::reassemble(direct));
      ASSERT_EQ(direct.ops.size(), via_decode.ops.size());
      // Packed 16-byte ops: byte identity, not just field equality.
      EXPECT_EQ(std::memcmp(direct.ops.data(), via_decode.ops.data(),
                            direct.ops.size() * sizeof(cpu::DecodedOp)),
                0);
      EXPECT_EQ(direct.store_values, via_decode.store_values);
      // Sized by the counting pass: each array was allocated once, at its
      // exact final size, and never regrew.
      EXPECT_EQ(direct.ops.capacity(), direct.ops.size());
      EXPECT_EQ(direct.store_values.capacity(), direct.store_values.size());
    }
  }
}

}  // namespace
