// Unit tests: MSHR fill registers (src/mem/fill_buffer.hpp). lookup() and
// consume() return the data-ready cycle, 0 when the line is absent.
#include <gtest/gtest.h>

#include "sttsim/mem/fill_buffer.hpp"
#include "sttsim/util/check.hpp"

namespace sttsim::mem {
namespace {

TEST(FillBuffer, EmptyLookupMisses) {
  FillBuffer fb(4);
  EXPECT_EQ(fb.lookup(0x1000), 0u);
  EXPECT_EQ(fb.occupancy(), 0u);
}

TEST(FillBuffer, InsertThenLookup) {
  FillBuffer fb(4);
  fb.insert(0x1000, 42);
  EXPECT_EQ(fb.lookup(0x1000), 42u);
  EXPECT_EQ(fb.occupancy(), 1u);
}

TEST(FillBuffer, LookupIsNonDestructive) {
  FillBuffer fb(4);
  fb.insert(0x1000, 42);
  fb.lookup(0x1000);
  EXPECT_EQ(fb.lookup(0x1000), 42u);
}

TEST(FillBuffer, ConsumeRemoves) {
  FillBuffer fb(4);
  fb.insert(0x1000, 42);
  EXPECT_EQ(fb.consume(0x1000), 42u);
  EXPECT_EQ(fb.lookup(0x1000), 0u);
  EXPECT_EQ(fb.consume(0x1000), 0u);
  EXPECT_EQ(fb.occupancy(), 0u);
}

TEST(FillBuffer, DuplicateInsertRefreshes) {
  FillBuffer fb(4);
  fb.insert(0x1000, 42);
  fb.insert(0x1000, 99);
  EXPECT_EQ(fb.occupancy(), 1u);
  EXPECT_EQ(fb.lookup(0x1000), 99u);
}

TEST(FillBuffer, LruDisplacementWhenFull) {
  FillBuffer fb(2);
  fb.insert(0x1000, 1);
  fb.insert(0x2000, 2);
  fb.lookup(0x1000);  // lookup does NOT refresh LRU (passive read)
  fb.insert(0x3000, 3);
  // 0x1000 was the LRU (insert order governs).
  EXPECT_EQ(fb.lookup(0x1000), 0u);
  EXPECT_EQ(fb.lookup(0x2000), 2u);
  EXPECT_EQ(fb.lookup(0x3000), 3u);
}

TEST(FillBuffer, InvalidateDropsEntry) {
  FillBuffer fb(4);
  fb.insert(0x1000, 1);
  fb.invalidate(0x1000);
  EXPECT_EQ(fb.lookup(0x1000), 0u);
  fb.invalidate(0x2000);  // absent: no-op
}

TEST(FillBuffer, InvalidatedSlotIsReused) {
  FillBuffer fb(2);
  fb.insert(0x1000, 1);
  fb.insert(0x2000, 2);
  fb.invalidate(0x1000);
  fb.insert(0x3000, 3);
  // 0x2000 must survive: the freed slot was used.
  EXPECT_EQ(fb.lookup(0x2000), 2u);
  EXPECT_EQ(fb.lookup(0x3000), 3u);
}

TEST(FillBuffer, RejectsZeroEntries) { EXPECT_THROW(FillBuffer(0), ConfigError); }

TEST(FillBuffer, ResetEmpties) {
  FillBuffer fb(4);
  fb.insert(0x1000, 1);
  fb.reset();
  EXPECT_EQ(fb.occupancy(), 0u);
  EXPECT_EQ(fb.lookup(0x1000), 0u);
}

TEST(FillBuffer, CapacityReported) {
  FillBuffer fb(8);
  EXPECT_EQ(fb.capacity(), 8u);
}

TEST(FillBuffer, ManyStreamsWithinCapacityAllSurvive) {
  FillBuffer fb(8);
  for (Addr a = 0; a < 8 * 64; a += 64) fb.insert(a, a + 1);
  EXPECT_EQ(fb.occupancy(), 8u);
  for (Addr a = 0; a < 8 * 64; a += 64) {
    EXPECT_EQ(fb.lookup(a), a + 1) << a;
  }
}

TEST(FillBuffer, InsertWithReadyCycleZeroFailsCheck) {
  // 0 is lookup()'s "absent": a deposit that claimed to arrive at cycle 0
  // would read back as missing.
  FillBuffer fb(4);
  EXPECT_DEATH(fb.insert(0x1000, 0), "ready != 0");
}

}  // namespace
}  // namespace sttsim::mem
