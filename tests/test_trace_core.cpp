// Unit tests: trace ops, the in-order core's timing/stall attribution (the
// replay loop over a fake DL1), and the System builder.
#include <gtest/gtest.h>

#include <cmath>

#include "sttsim/cpu/replay.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/util/check.hpp"

namespace sttsim::cpu {
namespace {

TEST(Trace, Constructors) {
  const TraceOp e = make_exec(5);
  EXPECT_EQ(e.kind, OpKind::kExec);
  EXPECT_EQ(e.count, 5u);
  const TraceOp l = make_load(0x100, 8);
  EXPECT_EQ(l.kind, OpKind::kLoad);
  EXPECT_EQ(l.addr, 0x100u);
  EXPECT_EQ(l.size, 8u);
  EXPECT_TRUE(l.is_memory());
  const TraceOp s = make_store(0x200, 32);
  EXPECT_TRUE(s.is_memory());
  const TraceOp p = make_prefetch(0x300);
  EXPECT_FALSE(p.is_memory());
}

TEST(Trace, Summarize) {
  Trace t{make_exec(10), make_load(0, 8), make_load(8, 8), make_store(16, 4),
          make_prefetch(64), make_exec(2)};
  const TraceSummary s = summarize(t);
  EXPECT_EQ(s.instructions, 10u + 2 + 1 + 1 + 2);
  EXPECT_EQ(s.loads, 2u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.prefetches, 1u);
  EXPECT_EQ(s.exec_instructions, 12u);
  EXPECT_EQ(s.bytes_loaded, 16u);
  EXPECT_EQ(s.bytes_stored, 4u);
}

TEST(Trace, DescribeMentionsCounts) {
  Trace t{make_load(0, 8), make_exec(3)};
  const std::string d = describe(t);
  EXPECT_NE(d.find("1 ld"), std::string::npos);
  EXPECT_NE(d.find("3 ex"), std::string::npos);
}

// A deterministic fake DL1 for isolating the core's accounting.
class FakeDl1 final : public core::Dl1System {
 public:
  sim::Cycles load_latency = 1;
  sim::Cycles store_delay = 0;  // acceptance = now + store_delay

  const mem::SetAssocCache& array() const override { return array_; }

  sim::Cycle load(Addr, unsigned, sim::Cycle now) override {
    stats_.loads += 1;
    return now + load_latency;
  }
  sim::Cycle store(Addr, unsigned, sim::Cycle now) override {
    stats_.stores += 1;
    return now + store_delay;
  }
  std::string name() const override { return "fake"; }
  void reset() override { stats_ = {}; }

 private:
  mem::SetAssocCache array_{mem::CacheGeometry{1024, 2, 64}};
};

/// The replay loop over `trace`; FakeDl1 has no single-granule entries, so
/// every access takes its full load/store.
sim::RunStats replay_trace(const Trace& trace, FakeDl1& dl1) {
  return replay(decode(trace), dl1);
}

TEST(CoreReplay, ExecAdvancesOneCyclePerInstruction) {
  FakeDl1 dl1;
  const auto s = replay_trace({make_exec(100)}, dl1);
  EXPECT_EQ(s.core.total_cycles, 100u);
  EXPECT_EQ(s.core.instructions, 100u);
  EXPECT_EQ(s.core.stall_cycles(), 0u);
}

TEST(CoreReplay, OneCycleLoadDoesNotStall) {
  FakeDl1 dl1;
  const auto s = replay_trace({make_load(0, 8), make_load(8, 8)}, dl1);
  EXPECT_EQ(s.core.total_cycles, 2u);
  EXPECT_EQ(s.core.read_stall_cycles, 0u);
}

TEST(CoreReplay, SlowLoadChargesReadStalls) {
  FakeDl1 dl1;
  dl1.load_latency = 4;  // the NVM read
  const auto s = replay_trace({make_load(0, 8)}, dl1);
  EXPECT_EQ(s.core.total_cycles, 4u);
  EXPECT_EQ(s.core.read_stall_cycles, 3u);
  EXPECT_EQ(s.core.write_stall_cycles, 0u);
}

TEST(CoreReplay, StoreBackpressureChargesWriteStalls) {
  FakeDl1 dl1;
  dl1.store_delay = 5;
  const auto s = replay_trace({make_store(0, 8)}, dl1);
  EXPECT_EQ(s.core.total_cycles, 5u);
  EXPECT_EQ(s.core.write_stall_cycles, 4u);
}

TEST(CoreReplay, PrefetchTakesOneCycle) {
  FakeDl1 dl1;
  const auto s = replay_trace({make_prefetch(0), make_prefetch(64)}, dl1);
  EXPECT_EQ(s.core.total_cycles, 2u);
  EXPECT_EQ(s.core.instructions, 2u);
  EXPECT_EQ(dl1.stats().prefetches, 2u);
}

TEST(CoreReplay, MixedSequenceAddsUp) {
  FakeDl1 dl1;
  dl1.load_latency = 4;
  // exec(3) -> 3; load -> 1 issue + 3 stall; exec(2) -> 2; store -> 1.
  const auto s = replay_trace(
      {make_exec(3), make_load(0, 8), make_exec(2), make_store(0, 8)}, dl1);
  EXPECT_EQ(s.core.total_cycles, 3u + 4 + 2 + 1);
  EXPECT_EQ(s.core.instructions, 7u);
  EXPECT_EQ(s.core.mem_instructions, 2u);
}

TEST(SystemConfig, Dl1ConfigDerivesFromTechnology) {
  SystemConfig cfg;
  cfg.organization = Dl1Organization::kNvmDropIn;
  const core::Dl1Config c = cfg.dl1_config();
  EXPECT_EQ(c.geometry.line_bytes, 64u);     // 512-bit STT line
  EXPECT_EQ(c.timing.read_cycles, 4u);       // Table I @ 1 GHz
  EXPECT_EQ(c.timing.write_cycles, 2u);
  cfg.organization = Dl1Organization::kSramBaseline;
  const core::Dl1Config s = cfg.dl1_config();
  EXPECT_EQ(s.geometry.line_bytes, 32u);     // 256-bit SRAM line
  EXPECT_EQ(s.timing.read_cycles, 1u);
}

TEST(SystemConfig, VwbGeometryAutoScalesLines) {
  SystemConfig cfg;
  cfg.vwb_total_kbit = 2;
  core::VwbGeometry g = cfg.vwb_geometry();
  EXPECT_EQ(g.num_lines, 2u);
  EXPECT_EQ(g.line_bytes, 128u);  // 1 KBit lines
  cfg.vwb_total_kbit = 4;
  g = cfg.vwb_geometry();
  EXPECT_EQ(g.num_lines, 4u);
  EXPECT_EQ(g.line_bytes, 128u);
  cfg.vwb_total_kbit = 1;
  g = cfg.vwb_geometry();
  EXPECT_EQ(g.num_lines, 2u);
  EXPECT_EQ(g.line_bytes, 64u);
  EXPECT_EQ(g.sector_bytes, 64u);
}

TEST(SystemConfig, ExplicitLineCountHonored) {
  SystemConfig cfg;
  cfg.vwb_total_kbit = 2;
  cfg.vwb_lines = 4;
  const core::VwbGeometry g = cfg.vwb_geometry();
  EXPECT_EQ(g.num_lines, 4u);
  EXPECT_EQ(g.line_bytes, 64u);
}

TEST(SystemConfig, ValidateRejectsBadClock) {
  SystemConfig cfg;
  cfg.clock_ghz = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(System, EveryOrganizationConstructsAndRuns) {
  const Trace trace{make_exec(10), make_load(0x1000, 8), make_store(0x1000, 8),
                    make_prefetch(0x2000), make_load(0x2000, 8)};
  for (const auto org :
       {Dl1Organization::kSramBaseline, Dl1Organization::kNvmDropIn,
        Dl1Organization::kNvmVwb, Dl1Organization::kNvmL0,
        Dl1Organization::kNvmEmshr}) {
    SystemConfig cfg;
    cfg.organization = org;
    System system(cfg);
    const auto stats = system.run(trace);
    EXPECT_GT(stats.core.total_cycles, 0u) << to_string(org);
    EXPECT_EQ(stats.mem.loads, 2u) << to_string(org);
    EXPECT_EQ(stats.mem.stores, 1u) << to_string(org);
    EXPECT_EQ(system.dl1().name(), to_string(org));
  }
}

TEST(System, RunResetsState) {
  SystemConfig cfg;
  cfg.organization = Dl1Organization::kNvmVwb;
  System system(cfg);
  const Trace trace{make_load(0x1000, 8)};
  const auto first = system.run(trace);
  const auto second = system.run(trace);
  EXPECT_EQ(first.core.total_cycles, second.core.total_cycles);
  EXPECT_EQ(first.mem.l1_misses, second.mem.l1_misses);
}

TEST(System, RunWarmKeepsState) {
  SystemConfig cfg;
  cfg.organization = Dl1Organization::kNvmVwb;
  System system(cfg);
  const Trace trace{make_load(0x1000, 8)};
  system.run(trace);                           // cold miss
  const auto warm = system.run_warm(trace);    // now a hit
  EXPECT_EQ(warm.mem.l1_misses, 1u);           // stats accumulate; no new miss
  EXPECT_EQ(warm.mem.loads, 2u);
}

TEST(System, SubKBitVwbFallsBackToNarrowFront) {
  SystemConfig cfg;
  cfg.organization = Dl1Organization::kNvmVwb;
  cfg.vwb_total_kbit = 1;
  cfg.vwb_lines = 4;  // 4 x 32 B lines: narrower than a DL1 line
  System system(cfg);
  const auto stats = system.run({make_load(0x1000, 8)});
  EXPECT_GT(stats.core.total_cycles, 0u);
}

TEST(OrganizationNames, Stable) {
  EXPECT_STREQ(to_string(Dl1Organization::kSramBaseline), "sram-baseline");
  EXPECT_STREQ(to_string(Dl1Organization::kNvmDropIn), "nvm-drop-in");
  EXPECT_STREQ(to_string(Dl1Organization::kNvmVwb), "nvm-vwb");
  EXPECT_STREQ(to_string(Dl1Organization::kNvmL0), "nvm-l0");
  EXPECT_STREQ(to_string(Dl1Organization::kNvmEmshr), "nvm-emshr");
  EXPECT_STREQ(to_string(Dl1Organization::kNvmWriteBuf), "nvm-writebuf");
}

TEST(System, WriteBufferOrganizationRuns) {
  SystemConfig cfg;
  cfg.organization = Dl1Organization::kNvmWriteBuf;
  System system(cfg);
  const auto stats = system.run(
      {make_store(0x1000, 8), make_store(0x1008, 8), make_load(0x1000, 8)});
  EXPECT_EQ(stats.mem.stores, 2u);
  EXPECT_GE(stats.mem.front_store_hits, 1u);
}

// ---- Clock sweep: cycle derivation from the analog Table I latencies. ----

class ClockSweep : public ::testing::TestWithParam<double> {};

TEST_P(ClockSweep, DerivedCyclesAreCeilOfLatencyTimesClock) {
  SystemConfig cfg;
  cfg.clock_ghz = GetParam();
  cfg.organization = Dl1Organization::kNvmDropIn;
  const core::Dl1Config c = cfg.dl1_config();
  const auto expected = [&](double ns) {
    const double cycles = ns * GetParam();
    const auto up = static_cast<unsigned>(std::ceil(cycles - 1e-9));
    return std::max(up, 1u);
  };
  EXPECT_EQ(c.timing.read_cycles, expected(3.37));
  EXPECT_EQ(c.timing.write_cycles, expected(1.86));
}

TEST_P(ClockSweep, SystemRunsAtEveryClock) {
  SystemConfig cfg;
  cfg.clock_ghz = GetParam();
  cfg.organization = Dl1Organization::kNvmVwb;
  System system(cfg);
  const auto s = system.run({make_load(0x1000, 8), make_store(0x1000, 8)});
  EXPECT_GT(s.core.total_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Clocks, ClockSweep,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0, 3.0));

}  // namespace
}  // namespace sttsim::cpu
