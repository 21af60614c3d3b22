// The explicit-SIMD replay primitives (util/simd.hpp) must be bit-identical
// to the scalar loops they replaced, on whichever backend the build
// selected. Three layers are pinned here:
//
//   1. The primitives themselves — match_mask_u64 / add_u64 against scalar
//      references over adversarial inputs (all lengths through the widest
//      set, sentinel tags, wrap-around adds).
//   2. The replay engine built on them — batched replay (SIMD lane-clock
//      advance, SIMD tag match) vs per-lane solo replay (the scalar
//      reference path), every RunStats counter, across all six DL1
//      organizations × batch widths × random and kernel traces.
//   3. Direct-to-decoded synthesis — every suite kernel × codegen variant
//      emits packed DecodedOps byte-identical to decode(generate(·)).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "sttsim/cpu/batch_replay.hpp"
#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/util/simd.hpp"
#include "sttsim/workloads/suite.hpp"
#include "trace_util.hpp"

namespace {

using namespace sttsim;

// ---- 1. Primitives vs scalar references ------------------------------

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

TEST(SimdPrimitives, AddMatchesScalarReference) {
  std::mt19937_64 rng(0xBEEF);
  for (unsigned n = 0; n <= 70; ++n) {
    std::vector<std::uint64_t> a(n), b(n);
    for (unsigned i = 0; i < n; ++i) a[i] = b[i] = rng();
    // Include a near-overflow lane so wrap-around is exercised.
    if (n > 0) a[n / 2] = b[n / 2] = ~std::uint64_t{0} - 1;
    const std::uint64_t deltas[] = {0, 1, 3, ~std::uint64_t{0}, rng()};
    for (const std::uint64_t d : deltas) {
      for (unsigned i = 0; i < n; ++i) a[i] += d;
      util::simd::add_u64(b.data(), n, d);
      ASSERT_EQ(a, b) << "n=" << n << " delta=" << d;
    }
  }
}

// ---- 2. Batched (SIMD) replay == solo (scalar) replay ----------------

const cpu::Dl1Organization kAllOrgs[] = {
    cpu::Dl1Organization::kSramBaseline, cpu::Dl1Organization::kNvmDropIn,
    cpu::Dl1Organization::kNvmVwb,       cpu::Dl1Organization::kNvmL0,
    cpu::Dl1Organization::kNvmEmshr,     cpu::Dl1Organization::kNvmWriteBuf};

std::vector<cpu::SystemConfig> lane_configs(cpu::Dl1Organization org,
                                            unsigned k) {
  std::vector<cpu::SystemConfig> cfgs(k);
  for (unsigned i = 0; i < k; ++i) {
    cfgs[i].organization = org;
    cfgs[i].clock_ghz = 1.0 + 0.25 * i;
  }
  return cfgs;
}

/// Full-counter equality via the JSON rendering: one comparison covers
/// every RunStats field (including ones added later) and a failure prints
/// both complete counter sets.
void expect_stats_identical(const std::vector<cpu::SystemConfig>& cfgs,
                            const cpu::DecodedTrace& decoded,
                            const std::string& context) {
  std::vector<cpu::System> systems;
  systems.reserve(cfgs.size());
  for (const cpu::SystemConfig& cfg : cfgs) systems.emplace_back(cfg);
  std::vector<cpu::System*> lanes;
  for (cpu::System& s : systems) lanes.push_back(&s);
  const std::vector<sim::RunStats> batched =
      cpu::System::run_batch(cpu::compress(decoded), lanes);
  ASSERT_EQ(batched.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cpu::System solo(cfgs[i]);
    EXPECT_EQ(sim::to_json(batched[i]), sim::to_json(solo.run(decoded)))
        << context << " lane " << i;
  }
}

TEST(SimdScalarEquivalence, BatchedCountersIdenticalOnRandomTraces) {
  const unsigned widths[] = {1, 2, 4, 8};
  const cpu::DecodedTrace decoded =
      cpu::decode(testutil::random_trace(21, 2500, 1 << 15));
  for (const cpu::Dl1Organization org : kAllOrgs) {
    for (const unsigned k : widths) {
      expect_stats_identical(lane_configs(org, k), decoded,
                             std::string(cpu::to_string(org)) +
                                 " random k=" + std::to_string(k));
    }
  }
}

TEST(SimdScalarEquivalence, BatchedCountersIdenticalOnKernelTraces) {
  const unsigned widths[] = {1, 2, 4, 8};
  const workloads::Kernel& k = workloads::find_kernel("gemm");
  const cpu::DecodedTrace decoded =
      k.generate_decoded(workloads::CodegenOptions::all());
  for (const cpu::Dl1Organization org : kAllOrgs) {
    for (const unsigned width : widths) {
      expect_stats_identical(lane_configs(org, width), decoded,
                             std::string(cpu::to_string(org)) +
                                 " gemm k=" + std::to_string(width));
    }
  }
}

// ---- 3. Direct synthesis == generate-then-decode ---------------------

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
      const cpu::DecodedTrace via_decode = cpu::decode(k.generate(variants[v]));
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
