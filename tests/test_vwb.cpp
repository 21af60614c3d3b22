// Unit tests: the Very Wide Buffer structure (src/core/vwb.hpp) —
// geometry, lookup/fill/eviction/invalidation semantics, sector state.
#include <gtest/gtest.h>

#include <vector>

#include "sttsim/core/vwb.hpp"
#include "sttsim/util/check.hpp"

namespace sttsim::core {
namespace {

VwbGeometry paper_geom() {
  // The paper's default: 2 KBit in 2 lines of 1 KBit, 512-bit sectors.
  return VwbGeometry{2, 128, 64};
}

/// allocate_line, appending the dirty sectors it evicts to `wbs`.
unsigned allocate(VeryWideBuffer& vwb, Addr addr, std::vector<Addr>& wbs) {
  return vwb.allocate_line(addr,
                           [&wbs](Addr sector) { wbs.push_back(sector); });
}

TEST(VwbGeometry, PaperDefaultDerivedQuantities) {
  const VwbGeometry g = paper_geom();
  EXPECT_EQ(g.total_bits(), 2048u);
  EXPECT_EQ(g.sectors_per_line(), 2u);
  EXPECT_NO_THROW(g.validate());
}

TEST(VwbGeometry, ValidateRejectsNonsense) {
  EXPECT_THROW((VwbGeometry{0, 128, 64}.validate()), ConfigError);
  EXPECT_THROW((VwbGeometry{2, 100, 64}.validate()), ConfigError);
  EXPECT_THROW((VwbGeometry{2, 128, 48}.validate()), ConfigError);
  EXPECT_THROW((VwbGeometry{2, 32, 64}.validate()), ConfigError);  // line<sector
  EXPECT_NO_THROW((VwbGeometry{2, 64, 64}.validate()));  // 1 KBit variant
}

TEST(Vwb, EmptyBufferMissesEverything) {
  VeryWideBuffer vwb(paper_geom());
  EXPECT_FALSE(vwb.lookup(0x1000).hit);
  EXPECT_FALSE(vwb.probe(0x1000).hit);
  EXPECT_EQ(vwb.resident_sectors(), 0u);
}

TEST(Vwb, FillThenHitWithinSector) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  const unsigned slot = allocate(vwb, 0x1000, wbs);
  vwb.fill_sector(slot, 0x1000, 10);
  EXPECT_TRUE(wbs.empty());
  const VwbHit h = vwb.lookup(0x1038);  // same 64 B sector
  EXPECT_TRUE(h.hit);
  EXPECT_EQ(h.ready, 10u);
  EXPECT_FALSE(h.dirty);
}

TEST(Vwb, SiblingSectorOfSameLineInitiallyInvalid) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  const unsigned slot = allocate(vwb, 0x1000, wbs);
  vwb.fill_sector(slot, 0x1000, 0);
  EXPECT_FALSE(vwb.probe(0x1040).hit);  // second sector of the same vline
  vwb.fill_sector(slot, 0x1040, 5);
  EXPECT_TRUE(vwb.probe(0x1040).hit);
  EXPECT_EQ(vwb.resident_sectors(), 2u);
}

TEST(Vwb, VlineAddressing) {
  VeryWideBuffer vwb(paper_geom());
  EXPECT_EQ(vwb.vline_addr(0x10FF), 0x1080u);
  EXPECT_EQ(vwb.sector_addr(0x10FF), 0x10C0u);
}

TEST(Vwb, AllocateReusesExistingMapping) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  const unsigned s1 = allocate(vwb, 0x1000, wbs);
  vwb.fill_sector(s1, 0x1000, 0);
  const unsigned s2 = allocate(vwb, 0x1040, wbs);  // same vline
  EXPECT_EQ(s1, s2);
  // The resident sector must have survived.
  EXPECT_TRUE(vwb.probe(0x1000).hit);
}

TEST(Vwb, EvictionChoosesLru) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  const unsigned a = allocate(vwb, 0x1000, wbs);
  vwb.fill_sector(a, 0x1000, 0);
  const unsigned b = allocate(vwb, 0x2000, wbs);
  vwb.fill_sector(b, 0x2000, 0);
  vwb.lookup(0x1000);  // line A becomes MRU
  allocate(vwb, 0x3000, wbs);
  EXPECT_TRUE(vwb.probe(0x1000).hit);   // A kept
  EXPECT_FALSE(vwb.probe(0x2000).hit);  // B evicted
}

TEST(Vwb, EvictionSurfacesDirtySectors) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  const unsigned a = allocate(vwb, 0x1000, wbs);
  vwb.fill_sector(a, 0x1000, 0);
  vwb.fill_sector(a, 0x1040, 0);
  vwb.mark_dirty(0x1040);
  const unsigned b = allocate(vwb, 0x2000, wbs);
  vwb.fill_sector(b, 0x2000, 0);
  vwb.lookup(0x2000);
  // Force eviction of line A (LRU is A since B was just used... make sure):
  allocate(vwb, 0x3000, wbs);
  ASSERT_EQ(wbs.size(), 1u);
  EXPECT_EQ(wbs[0], 0x1040u);
}

TEST(Vwb, EvictionHandsDirtySectorsOverInAscendingOrder) {
  // A 4-sector line with two dirty sectors, dirtied high one first: the
  // handler sees them by address, once each.
  VeryWideBuffer vwb(VwbGeometry{2, 256, 64});
  std::vector<Addr> wbs;
  const unsigned a = allocate(vwb, 0x1000, wbs);
  for (Addr s = 0x1000; s < 0x1100; s += 64) vwb.fill_sector(a, s, 0);
  vwb.mark_dirty(0x10C0);
  vwb.mark_dirty(0x1040);
  vwb.fill_sector(allocate(vwb, 0x2000, wbs), 0x2000, 0);
  allocate(vwb, 0x3000, wbs);  // evicts 0x1000's line (LRU)
  EXPECT_EQ(wbs, (std::vector<Addr>{0x1040, 0x10C0}));
  EXPECT_FALSE(vwb.probe(0x1040).hit);
}

TEST(Vwb, CleanEvictionProducesNoWritebacks) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  vwb.fill_sector(allocate(vwb, 0x1000, wbs), 0x1000, 0);
  vwb.fill_sector(allocate(vwb, 0x2000, wbs), 0x2000, 0);
  allocate(vwb, 0x3000, wbs);
  EXPECT_TRUE(wbs.empty());
}

TEST(Vwb, MarkDirtyReflectsInLookup) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  vwb.fill_sector(allocate(vwb, 0x1000, wbs), 0x1000, 0);
  vwb.mark_dirty(0x1008);
  EXPECT_TRUE(vwb.lookup(0x1000).dirty);
}

TEST(Vwb, InvalidateSectorReturnsDirtiness) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  const unsigned slot = allocate(vwb, 0x1000, wbs);
  vwb.fill_sector(slot, 0x1000, 0);
  vwb.fill_sector(slot, 0x1040, 0);
  vwb.mark_dirty(0x1040);
  EXPECT_FALSE(vwb.invalidate_sector(0x1000));
  EXPECT_TRUE(vwb.invalidate_sector(0x1040));
  EXPECT_FALSE(vwb.invalidate_sector(0x1040));  // already gone
  EXPECT_EQ(vwb.resident_sectors(), 0u);
}

TEST(Vwb, InvalidateAbsentSectorIsNoop) {
  VeryWideBuffer vwb(paper_geom());
  EXPECT_FALSE(vwb.invalidate_sector(0x9000));
}

TEST(Vwb, ReadyCycleCarriedThroughPromotion) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  const unsigned slot = allocate(vwb, 0x1000, wbs);
  vwb.fill_sector(slot, 0x1000, 123);
  EXPECT_EQ(vwb.lookup(0x1000).ready, 123u);
}

TEST(Vwb, ProbeDoesNotUpdateLru) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  vwb.fill_sector(allocate(vwb, 0x1000, wbs), 0x1000, 0);
  vwb.fill_sector(allocate(vwb, 0x2000, wbs), 0x2000, 0);
  vwb.probe(0x1000);  // must NOT make A MRU
  allocate(vwb, 0x3000, wbs);
  EXPECT_FALSE(vwb.probe(0x1000).hit);  // A evicted (still LRU)
}

TEST(Vwb, SlotMaps) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  const unsigned slot = allocate(vwb, 0x1000, wbs);
  EXPECT_TRUE(vwb.slot_maps(slot, 0x1040));   // same vline
  EXPECT_FALSE(vwb.slot_maps(slot, 0x2000));  // different vline
}

TEST(Vwb, SingleSectorLineGeometry) {
  // 1 KBit variant: 2 lines x 64 B, sector == line.
  VeryWideBuffer vwb(VwbGeometry{2, 64, 64});
  std::vector<Addr> wbs;
  const unsigned slot = allocate(vwb, 0x1000, wbs);
  vwb.fill_sector(slot, 0x1000, 0);
  EXPECT_TRUE(vwb.probe(0x103F).hit);
  EXPECT_FALSE(vwb.probe(0x1040).hit);  // different vline now
}

TEST(Vwb, FourLineGeometryHoldsFourStreams) {
  VeryWideBuffer vwb(VwbGeometry{4, 128, 64});
  std::vector<Addr> wbs;
  for (Addr base : {0x1000u, 0x2000u, 0x3000u, 0x4000u}) {
    vwb.fill_sector(allocate(vwb, base, wbs), base, 0);
  }
  EXPECT_TRUE(wbs.empty());
  for (Addr base : {0x1000u, 0x2000u, 0x3000u, 0x4000u}) {
    EXPECT_TRUE(vwb.probe(base).hit) << base;
  }
}

TEST(Vwb, ResetClearsEverything) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  vwb.fill_sector(allocate(vwb, 0x1000, wbs), 0x1000, 0);
  vwb.reset();
  EXPECT_EQ(vwb.resident_sectors(), 0u);
  EXPECT_FALSE(vwb.probe(0x1000).hit);
}

TEST(Vwb, EvictionClearsAllSectorStateOfVictim) {
  VeryWideBuffer vwb(paper_geom());
  std::vector<Addr> wbs;
  const unsigned a = allocate(vwb, 0x1000, wbs);
  vwb.fill_sector(a, 0x1000, 7);
  vwb.fill_sector(a, 0x1040, 9);
  vwb.fill_sector(allocate(vwb, 0x2000, wbs), 0x2000, 0);
  allocate(vwb, 0x3000, wbs);  // evicts 0x1000's line (LRU)
  // Re-allocate the old vline: sectors must be invalid again.
  const unsigned a2 = allocate(vwb, 0x1000, wbs);
  EXPECT_FALSE(vwb.probe(0x1000).hit);
  EXPECT_FALSE(vwb.probe(0x1040).hit);
  (void)a2;
}

}  // namespace
}  // namespace sttsim::core
