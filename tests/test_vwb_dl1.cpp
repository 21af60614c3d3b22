// Unit tests: the proposal organization (VwbDl1System) — the paper's
// Section IV load/store/prefetch policies and their cycle-level behaviour.
#include <gtest/gtest.h>

#include "sttsim/core/vwb_dl1.hpp"
#include "sttsim/mem/l2_system.hpp"
#include "sttsim/util/check.hpp"

namespace sttsim::core {
namespace {

VwbDl1Config paper_config() {
  VwbDl1Config c;
  c.dl1.geometry = {64 * kKiB, 2, 64};
  c.dl1.timing = {1, 4, 2, 4};
  c.vwb = {2, 128, 64};  // 2 KBit, 2 lines of 1 KBit
  c.mshr_entries = 8;
  return c;
}

class VwbDl1Test : public ::testing::Test {
 protected:
  mem::L2System l2_{mem::L2Config{}};
};

TEST_F(VwbDl1Test, ConfigRejectsSectorLineMismatch) {
  VwbDl1Config c = paper_config();
  c.vwb.sector_bytes = 32;
  EXPECT_THROW(VwbDl1System("x", c, &l2_), ConfigError);
}

TEST_F(VwbDl1Test, ColdLoadMissesThroughToMemory) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  // VWB miss (parallel probe) -> L1 miss: tag 1 + L2 12 + memory 100.
  EXPECT_EQ(dl1.load(0x1000, 8, 0), 113u);
  EXPECT_EQ(dl1.stats().front_misses, 1u);
  EXPECT_EQ(dl1.stats().l1_misses, 1u);
}

TEST_F(VwbDl1Test, SecondLoadToPromotedSectorIsOneCycle) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);
  const sim::Cycle t = 1000;
  EXPECT_EQ(dl1.load(0x1018, 8, t), t + 1);  // VWB hit via the MUX
  EXPECT_EQ(dl1.stats().front_hits, 1u);
}

TEST_F(VwbDl1Test, VwbMissOnL1HitCostsTheNvmRead) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);
  // Evict the VWB (two other vlines), keeping the line in the DL1.
  dl1.load(0x8000, 8, 500);
  dl1.load(0x9000, 8, 700);
  const sim::Cycle t = 2000;
  EXPECT_EQ(dl1.load(0x1000, 8, t), t + 4);  // parallel probe: 4, not 5
  EXPECT_EQ(dl1.stats().l1_read_hits, 1u);
}

TEST_F(VwbDl1Test, RideAlongPromotesSiblingSectorWhenResident) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  // Make both sectors of vline 0x1000 DL1-resident.
  dl1.load(0x1000, 8, 0);
  dl1.load(0x1040, 8, 500);
  // Evict the VWB.
  dl1.load(0x8000, 8, 1000);
  dl1.load(0x9000, 8, 1500);
  // Demand 0x1000: the wide promotion also brings 0x1040 along.
  dl1.load(0x1000, 8, 2000);
  const sim::Cycle t = 3000;
  EXPECT_EQ(dl1.load(0x1040, 8, t), t + 1);  // already in the VWB
}

TEST_F(VwbDl1Test, RideAlongSkipsNonResidentSibling) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);  // sibling 0x1040 never touched -> not in L1
  EXPECT_EQ(dl1.stats().l1_misses, 1u);  // no speculative L2 fetch
  // Sibling demand load must miss the VWB and the DL1.
  dl1.load(0x1040, 8, 1000);
  EXPECT_EQ(dl1.stats().l1_misses, 2u);
}

TEST_F(VwbDl1Test, StoreToVwbResidentSectorIsAbsorbed) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);  // promotion lands at cycle 113
  const std::uint64_t writes_before = dl1.stats().l1_array_writes;
  EXPECT_EQ(dl1.store(0x1008, 8, 200), 201u);
  EXPECT_EQ(dl1.stats().front_store_hits, 1u);
  // No NVM array write happened (deferred until eviction).
  EXPECT_EQ(dl1.stats().l1_array_writes, writes_before);
}

TEST_F(VwbDl1Test, StoreToNonResidentSectorGoesStraightToArray) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);   // 0x1000 in VWB and L1
  dl1.store(0x5000, 8, 500);  // miss everywhere: write-allocate in DL1 only
  EXPECT_TRUE(dl1.l1_contains(0x5000));
  EXPECT_FALSE(dl1.vwb().probe(0x5000).hit);  // no-allocate in the VWB
  EXPECT_EQ(dl1.stats().front_store_hits, 0u);
}

TEST_F(VwbDl1Test, DirtyVwbEvictionWritesBackToArray) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);
  dl1.store(0x1000, 8, 100);  // absorbed, VWB sector dirty
  EXPECT_FALSE(dl1.l1_dirty(0x1000));
  // Evict the VWB line with two new vlines.
  dl1.load(0x8000, 8, 500);
  dl1.load(0x9000, 8, 900);
  EXPECT_EQ(dl1.stats().front_writebacks, 1u);
  EXPECT_TRUE(dl1.l1_dirty(0x1000));  // dirtiness landed in the NVM array
}

TEST_F(VwbDl1Test, L1EvictionInvalidatesVwbCopyAndMergesDirt) {
  VwbDl1Config cfg = paper_config();
  cfg.dl1.geometry.capacity_bytes = 1024;  // 8 sets: easy to evict
  VwbDl1System dl1("vwb", cfg, &l2_);
  dl1.load(0x0000, 8, 0);
  dl1.store(0x0000, 8, 200);  // dirty in the VWB only
  // Two more set-0 lines (set stride = 512) evict 0x0000 from the DL1.
  // Stores are used so the VWB itself is untouched (no-allocate policy).
  dl1.store(0x0200, 8, 500);
  dl1.store(0x0400, 8, 900);
  EXPECT_FALSE(dl1.l1_contains(0x0000));
  EXPECT_FALSE(dl1.vwb().probe(0x0000).hit);  // inclusion maintained
  // The VWB's dirt went out with the victim.
  EXPECT_GE(dl1.stats().l1_writebacks, 1u);
  EXPECT_TRUE(l2_.contains(0x0000));
}

TEST_F(VwbDl1Test, PrefetchThenLoadHitsFillRegister) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);     // line into DL1 (and VWB)
  dl1.load(0x8000, 8, 500);   // evict 0x1000's vline from the VWB
  dl1.load(0x9000, 8, 900);
  dl1.prefetch(0x1000, 1500);  // NVM read into a fill register (done ~1505)
  const sim::Cycle t = 1600;
  EXPECT_EQ(dl1.load(0x1000, 8, t), t + 1);  // served from the register
  EXPECT_EQ(dl1.stats().prefetch_hits, 1u);
}

TEST_F(VwbDl1Test, DemandShortlyAfterPrefetchWaitsForTheRead) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);
  dl1.load(0x8000, 8, 500);
  dl1.load(0x9000, 8, 900);
  dl1.prefetch(0x1000, 1500);  // array read done at 1501+4 = 1505
  const sim::Cycle done = dl1.load(0x1000, 8, 1502);
  EXPECT_EQ(done, 1505u);  // merged with the in-flight read
}

TEST_F(VwbDl1Test, PrefetchOfVwbResidentSectorIsFree) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);
  const std::uint64_t reads = dl1.stats().l1_array_reads;
  dl1.prefetch(0x1000, 100);
  EXPECT_EQ(dl1.stats().l1_array_reads, reads);  // no array activity
}

TEST_F(VwbDl1Test, PrefetchDoesNotEvictTheVwb) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);
  dl1.load(0x2000, 8, 500);
  // Prefetch a third region: both resident vlines must survive.
  dl1.prefetch(0x3000, 1000);
  EXPECT_TRUE(dl1.vwb().probe(0x1000).hit);
  EXPECT_TRUE(dl1.vwb().probe(0x2000).hit);
}

TEST_F(VwbDl1Test, StoreInvalidatesStaleFillRegister) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);
  dl1.load(0x8000, 8, 500);
  dl1.load(0x9000, 8, 900);
  dl1.prefetch(0x1000, 1500);
  dl1.store(0x1000, 8, 1600);  // direct array write; register copy stale
  // The subsequent load must NOT be served from the (invalidated) register;
  // it promotes from the NVM array.
  const std::uint64_t reads = dl1.stats().l1_array_reads;
  dl1.load(0x1000, 8, 1700);
  EXPECT_EQ(dl1.stats().prefetch_hits, 0u);
  EXPECT_GT(dl1.stats().l1_array_reads, reads);
}

TEST_F(VwbDl1Test, StoreLatchesIntoInFlightPromotionWithoutStalling) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);
  dl1.load(0x8000, 8, 500);
  dl1.load(0x9000, 8, 900);
  // Demand load at t starts a 4-cycle promotion; a store 1 cycle later to
  // the same sector latches into the cells and merges on arrival — the
  // core is not stalled.
  dl1.load(0x1000, 8, 2000);  // promotion lands at 2004
  const sim::Cycle acc = dl1.store(0x1000, 8, 2001);
  EXPECT_EQ(acc, 2002u);
  EXPECT_EQ(dl1.stats().front_store_hits, 1u);
  EXPECT_TRUE(dl1.vwb().probe(0x1000).dirty);
}

TEST_F(VwbDl1Test, SingleSectorVwbGeometryWorks) {
  VwbDl1Config cfg = paper_config();
  cfg.vwb = {2, 64, 64};  // 1 KBit variant
  VwbDl1System dl1("vwb", cfg, &l2_);
  dl1.load(0x1000, 8, 0);  // promotion lands at 113
  EXPECT_EQ(dl1.load(0x1008, 8, 200), 201u);
  dl1.load(0x1040, 8, 300);  // neighbouring sector is a different vline now
  EXPECT_TRUE(dl1.vwb().probe(0x1000).hit);
  EXPECT_TRUE(dl1.vwb().probe(0x1040).hit);
}

TEST_F(VwbDl1Test, PromotionCountsTracked) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);
  dl1.load(0x2000, 8, 500);
  EXPECT_EQ(dl1.stats().promotions, 2u);
}

TEST_F(VwbDl1Test, ResetForgetsEverything) {
  VwbDl1System dl1("vwb", paper_config(), &l2_);
  dl1.load(0x1000, 8, 0);
  dl1.store(0x1000, 8, 200);
  dl1.reset();
  l2_.reset();  // the L2 is shared state owned by the platform
  EXPECT_EQ(dl1.stats().loads, 0u);
  EXPECT_FALSE(dl1.l1_contains(0x1000));
  EXPECT_FALSE(dl1.vwb().probe(0x1000).hit);
  EXPECT_EQ(dl1.load(0x1000, 8, 0), 113u);  // cold again
}

// ---- Parameterized VWB geometry sweep: policy invariants for every
// capacity Fig. 7 explores (and beyond). ----

class VwbGeometrySweep : public ::testing::TestWithParam<unsigned> {
 protected:
  mem::L2System l2_{mem::L2Config{}};

  VwbDl1Config config() const {
    VwbDl1Config c = paper_config();
    const std::uint64_t total_bytes = GetParam() * 1024ull / 8;
    const unsigned lines = std::max(2u, GetParam());
    c.vwb = {lines, total_bytes / lines, 64};
    return c;
  }
};

TEST_P(VwbGeometrySweep, LoadPromotesAndSecondLoadHits) {
  VwbDl1System dl1("vwb", config(), &l2_);
  dl1.load(0x1000, 8, 0);
  EXPECT_EQ(dl1.load(0x1000, 8, 1000), 1001u);
  EXPECT_EQ(dl1.stats().promotions, 1u);
  EXPECT_EQ(dl1.stats().front_hits, 1u);
}

TEST_P(VwbGeometrySweep, DistinctStreamsUpToLineCountCoexist) {
  VwbDl1System dl1("vwb", config(), &l2_);
  const unsigned lines = config().vwb.num_lines;
  for (unsigned i = 0; i < lines; ++i) {
    dl1.load(0x10000 + i * 0x1000, 8, i * 500);
  }
  for (unsigned i = 0; i < lines; ++i) {
    EXPECT_TRUE(dl1.vwb().probe(0x10000 + i * 0x1000).hit) << i;
  }
}

TEST_P(VwbGeometrySweep, StorePolicyHoldsAtEveryGeometry) {
  VwbDl1System dl1("vwb", config(), &l2_);
  dl1.load(0x1000, 8, 0);
  dl1.store(0x1000, 8, 500);  // absorbed
  EXPECT_EQ(dl1.stats().front_store_hits, 1u);
  dl1.store(0x20000, 8, 600);  // miss: write-allocate DL1, no-allocate VWB
  EXPECT_TRUE(dl1.l1_contains(0x20000));
  EXPECT_FALSE(dl1.vwb().probe(0x20000).hit);
}

INSTANTIATE_TEST_SUITE_P(CapacitiesKBit, VwbGeometrySweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

}  // namespace
}  // namespace sttsim::core
