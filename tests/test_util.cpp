// Unit tests: src/util (bit helpers, RNG, text formatting, checks).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "sttsim/util/bits.hpp"
#include "sttsim/util/check.hpp"
#include "sttsim/util/hash.hpp"
#include "sttsim/util/rng.hpp"
#include "sttsim/util/text.hpp"

namespace sttsim {
namespace {

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ULL << 63));
  EXPECT_FALSE(is_pow2((1ULL << 63) + 1));
}

TEST(Bits, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(2), 1u);
  EXPECT_EQ(log2_exact(64), 6u);
  EXPECT_EQ(log2_exact(1ULL << 40), 40u);
}

TEST(Bits, AlignDownUp) {
  EXPECT_EQ(align_down(127, 64), 64u);
  EXPECT_EQ(align_down(128, 64), 128u);
  EXPECT_EQ(align_up(127, 64), 128u);
  EXPECT_EQ(align_up(128, 64), 128u);
  EXPECT_EQ(align_up(0, 64), 0u);
}

TEST(Bits, IsAligned) {
  EXPECT_TRUE(is_aligned(0, 64));
  EXPECT_TRUE(is_aligned(192, 64));
  EXPECT_FALSE(is_aligned(100, 64));
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(Bits, BitsToBytes) {
  EXPECT_EQ(bits_to_bytes(512), 64u);
  EXPECT_EQ(bits_to_bytes(256), 32u);
  EXPECT_EQ(bits_to_bytes(1024), 128u);
  EXPECT_EQ(bits_to_bytes(9), 2u);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(99);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoolExtremes) {
  Rng r(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(r.next_bool(0.0));
    EXPECT_TRUE(r.next_bool(1.0));
  }
}

TEST(Rng, BoolRoughlyCalibrated) {
  Rng r(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.next_bool(0.25);
  EXPECT_NEAR(hits, 2500, 200);
}

TEST(Text, Strprintf) {
  EXPECT_EQ(strprintf("x=%d y=%s", 3, "ab"), "x=3 y=ab");
  EXPECT_EQ(strprintf("%.2f", 1.2345), "1.23");
  EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Text, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(64 * 1024), "64 KiB");
  EXPECT_EQ(format_bytes(2 * 1024 * 1024), "2 MiB");
  EXPECT_EQ(format_bytes(1536), "1536 B");  // not a whole KiB
}

TEST(Text, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(Text, SplitKeepsEmptyFields) {
  using V = std::vector<std::string>;
  EXPECT_EQ(split("", ','), V{""});
  EXPECT_EQ(split("a", ','), V{"a"});
  EXPECT_EQ(split("a,,b", ','), (V{"a", "", "b"}));
  EXPECT_EQ(split(",a,", ','), (V{"", "a", ""}));
  EXPECT_EQ(split("1:2:3", ':'), (V{"1", "2", "3"}));
  EXPECT_EQ(split("1:2:3", ','), V{"1:2:3"});
  for (const V& v : {V{""}, V{"x"}, V{"", ""}, V{"fig1", "", "fig5", ""}}) {
    EXPECT_EQ(split(join(v, ","), ','), v);
  }
}

TEST(Check, PassingCheckIsSilent) {
  STTSIM_CHECK(1 + 1 == 2);  // must not abort and must evaluate once
  int calls = 0;
  const auto bump = [&] { return ++calls; };
  STTSIM_CHECK(bump() == 1);
  EXPECT_EQ(calls, 1);
}

TEST(CheckDeathTest, FailingCheckAbortsWithExpressionAndLocation) {
  EXPECT_DEATH(STTSIM_CHECK(2 + 2 == 5),
               "sttsim: check failed: 2 \\+ 2 == 5 at .*test_util\\.cpp");
}

TEST(CheckDeathTest, SideEffectsVisibleInFailureMessage) {
  // The stringified expression is the one the caller wrote, not a digest.
  const int banks = 0;
  EXPECT_DEATH(STTSIM_CHECK(banks > 0), "banks > 0");
}

TEST(Check, ConfigErrorCarriesMessage) {
  const auto thrower = [] {
    throw ConfigError("dl1 size 3000 is not a power of two");
  };
  EXPECT_THROW(
      {
        try {
          thrower();
        } catch (const ConfigError& e) {
          EXPECT_STREQ(e.what(), "dl1 size 3000 is not a power of two");
          // ConfigError must stay catchable as std::runtime_error: callers
          // (CLI, tests) rely on the generic handler printing e.what().
          throw;
        }
      },
      std::runtime_error);
}

TEST(Text, Pad) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("abcd", 2), "abcd");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

// The hasher keys the persistent result store, so its digests must never
// drift: these values are pinned against an independent FNV-1a reference
// implementation. A change here invalidates every store on disk and MUST be
// accompanied by a util::kHashVersion bump.
TEST(Hash, PinnedReferenceDigests) {
  EXPECT_EQ(util::Hash64().digest(), 0xcbf29ce484222325ULL);  // FNV offset basis
  EXPECT_EQ(util::hash_bytes("abc", 3), 0xe71fa2190541574bULL);
  EXPECT_EQ(util::Hash64().u64(0).digest(), 0xa8c7f832281a39c5ULL);
  EXPECT_EQ(util::Hash64().u64(2015).digest(), 0x94d32904a80fc8f3ULL);
  EXPECT_EQ(util::Hash64().u8(7).u32(9).digest(), 0x5e7fb2a4b5214b3fULL);
  EXPECT_EQ(util::Hash64().f64(3.37).digest(), 0x6622dddd22185309ULL);
  EXPECT_EQ(util::Hash64().str("gemm").digest(), 0x0b3e53798a19c49fULL);
  EXPECT_EQ(util::Hash64().str("gemm").u8(1).u64(0x1234).f64(1.0).digest(),
            0xf87c599059176315ULL);
  EXPECT_EQ(util::kHashVersion, 1u);
}

// Multi-byte fields hash as little-endian byte sequences: feeding the bytes
// one by one through the raw byte interface must give the same digest on
// every platform.
TEST(Hash, ExplicitLittleEndianEncoding) {
  const std::uint64_t v = 0x0102030405060708ULL;
  const std::uint8_t le[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(util::Hash64().u64(v).digest(), util::Hash64().bytes(le, 8).digest());
  const std::uint32_t w = 0x0a0b0c0dU;
  const std::uint8_t le32[4] = {0x0d, 0x0c, 0x0b, 0x0a};
  EXPECT_EQ(util::Hash64().u32(w).digest(), util::Hash64().bytes(le32, 4).digest());
}

// str() is length-prefixed so adjacent strings cannot alias ("ab","c" vs
// "a","bc"); bool maps to one byte.
TEST(Hash, FieldFraming) {
  EXPECT_NE(util::Hash64().str("ab").str("c").digest(),
            util::Hash64().str("a").str("bc").digest());
  EXPECT_EQ(util::Hash64().boolean(true).digest(), util::Hash64().u8(1).digest());
  EXPECT_EQ(util::Hash64().boolean(false).digest(), util::Hash64().u8(0).digest());
  EXPECT_NE(util::Hash64().u32(5).digest(), util::Hash64().u64(5).digest());
}

}  // namespace
}  // namespace sttsim
