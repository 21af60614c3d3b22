// The explicit-SIMD tag match (util/simd.hpp) must be bit-identical to the
// scalar loop it replaced, on whichever backend the build selected. Two
// layers are pinned here:
//
//   1. The primitive itself — match_mask_u64 against a scalar reference
//      over adversarial inputs (all lengths through the widest set,
//      sentinel tags).
//   2. Direct-to-decoded synthesis — every suite kernel × codegen variant
//      emits packed DecodedOps byte-identical to decode() of their
//      reassembled raw trace, and every trace matches a pinned digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/util/hash.hpp"
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

// Field-by-field digest of each suite kernel's traces under the five
// codegen variants below, in suite order. A change to the generators that
// is meant to keep every trace as it is must leave these unchanged; replace
// an entry only for an intentional change to a kernel's model.
constexpr struct {
  const char* kernel;
  std::uint64_t digest;
} kPinnedTraces[] = {
    {"atax", 0x3750ec7840383ce6},
    {"bicg", 0x3b13367d5387fb57},
    {"gemm", 0xd3aa59f4b6388278},
    {"gemver", 0x4c0452f8252513bd},
    {"gesummv", 0xe06165961707e4d8},
    {"mvt", 0x3660cb8ac130f3f3},
    {"syrk", 0x215cea5d593aa605},
    {"syr2k", 0x18ca540c93e4dae7},
    {"trisolv", 0x4d0b949d9aaed14f},
    {"trmm", 0x6a2ea309f664497c},
    {"2mm", 0x47e19792cd22e7dd},
    {"3mm", 0x6a5596f675b777e7},
    {"jacobi-1d", 0x134af20acc9bf5fe},
    {"jacobi-2d", 0x50c97201c7a9d5f5},
    {"cholesky", 0x4f7ab5a752033745},
    {"lu", 0x2b05b6774eb0734c},
    {"symm", 0x69d8dee4fe87a129},
    {"doitgen", 0x0174cce277dd4eaf},
    {"seidel-2d", 0x54a379a3e03e86cb},
    {"covariance", 0x2d036bab77d44cb5},
    {"floyd-warshall", 0xa2203305e95d8742},
    {"durbin", 0x3b38fed934b38af3},
    {"gramschmidt", 0x29c68b3079dcb3d4},
    {"adi", 0xe494fa6d3543a046},
    {"fdtd-2d", 0x29fc62c66844507a},
    {"heat-3d", 0x00989ffbc4d9660f},
};

TEST(DirectSynthesis, ByteIdenticalAcrossSuiteAndCodegen) {
  using workloads::CodegenOptions;
  const CodegenOptions variants[] = {
      CodegenOptions::none(), CodegenOptions::only_vectorize(),
      CodegenOptions::only_prefetch(), CodegenOptions::only_branch_opts(),
      CodegenOptions::all()};
  const std::vector<workloads::Kernel>& suite = workloads::polybench_suite();
  ASSERT_EQ(suite.size(), std::size(kPinnedTraces));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const workloads::Kernel& k = suite[i];
    ASSERT_TRUE(k.generate_decoded) << k.name;
    util::Hash64 h;
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
      h.u64(direct.ops.size());
      for (const cpu::DecodedOp& op : direct.ops) {
        h.u64(op.addr).u32(op.count).u8(static_cast<std::uint8_t>(op.kind));
        h.u8(op.size).u8(op.span32).u8(op.span64);
      }
      for (const std::uint64_t value : direct.store_values) h.u64(value);
    }
    EXPECT_STREQ(kPinnedTraces[i].kernel, k.name.c_str());
    EXPECT_EQ(h.digest(), kPinnedTraces[i].digest)
        << k.name << ": 0x" << std::hex << h.digest();
  }
}

}  // namespace
