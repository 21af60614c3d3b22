// Unit tests: wear tracking, endurance projection, and the retention-fault
// / ECC model (reliability/fault.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sttsim/cpu/system.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/mem/set_assoc_cache.hpp"
#include "sttsim/reliability/endurance.hpp"
#include "sttsim/reliability/fault.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/util/check.hpp"
#include "sttsim/util/hash.hpp"
#include "sttsim/util/rng.hpp"
#include "sttsim/workloads/kernels.hpp"

namespace sttsim::reliability {
namespace {

TEST(Wear, AccessWritesIncrementFrameCounter) {
  mem::SetAssocCache c(mem::CacheGeometry{1024, 2, 64});
  c.fill(0x0000, false);  // the fill itself writes once
  EXPECT_EQ(c.frame_writes(0x0000), 1u);
  c.access(0x0000, /*is_write=*/true);
  c.access(0x0000, /*is_write=*/true);
  EXPECT_EQ(c.frame_writes(0x0000), 3u);
  c.access(0x0000, /*is_write=*/false);  // reads do not wear
  EXPECT_EQ(c.frame_writes(0x0000), 3u);
}

TEST(Wear, MarkDirtyCountsAsWrite) {
  mem::SetAssocCache c(mem::CacheGeometry{1024, 2, 64});
  c.fill(0x0000, false);
  c.mark_dirty(0x0000);
  EXPECT_EQ(c.frame_writes(0x0000), 2u);
}

TEST(Wear, SurvivesReplacement) {
  mem::SetAssocCache c(mem::CacheGeometry{1024, 2, 64});
  // Hammer one frame, then replace its resident line: wear persists.
  c.fill(0x0000, false);
  for (int i = 0; i < 10; ++i) c.access(0x0000, true);
  c.fill(0x0200, false);            // second way of set 0
  c.fill(0x0400, false);            // evicts 0x0000's frame (LRU)
  EXPECT_GE(c.max_frame_writes(), 11u);  // 1 fill + 10 writes (+ new fill)
}

TEST(Wear, TotalsAccumulateAcrossFrames) {
  mem::SetAssocCache c(mem::CacheGeometry{1024, 2, 64});
  c.fill(0x0000, false);
  c.fill(0x0040, false);
  c.access(0x0000, true);
  EXPECT_EQ(c.total_writes(), 3u);
}

TEST(Wear, ResetClearsCounters) {
  mem::SetAssocCache c(mem::CacheGeometry{1024, 2, 64});
  c.fill(0x0000, true);
  c.reset();
  EXPECT_EQ(c.total_writes(), 0u);
  EXPECT_EQ(c.max_frame_writes(), 0u);
}

TEST(Endurance, PaperBudgets) {
  EXPECT_DOUBLE_EQ(stt_mram_endurance().write_endurance, 1e16);
  EXPECT_DOUBLE_EQ(reram_endurance().write_endurance, 1e8);
  EXPECT_DOUBLE_EQ(pram_endurance().write_endurance, 1e6);
}

TEST(Endurance, WriteRates) {
  WearProfile w;
  w.max_frame_writes = 1000;
  w.total_writes = 16000;
  w.frames = 16;
  w.elapsed_cycles = 1'000'000;  // 1 ms at 1 GHz
  w.clock_ghz = 1.0;
  EXPECT_DOUBLE_EQ(w.max_write_rate_hz(), 1000.0 / 1e-3);  // 1e6 writes/s
  EXPECT_DOUBLE_EQ(w.avg_write_rate_hz(), 1e6);
}

TEST(Endurance, LifetimeProjection) {
  WearProfile w;
  w.max_frame_writes = 1'000'000;  // 1e6 writes over 1 ms -> 1e9 writes/s
  w.elapsed_cycles = 1'000'000;
  w.frames = 1;
  w.clock_ghz = 1.0;
  // PRAM at 1e6 endurance / 1e9 writes/s = 1 ms to failure.
  const LifetimeEstimate pram = project_lifetime(w, pram_endurance());
  EXPECT_NEAR(pram.seconds, 1e-3, 1e-9);
  // STT-MRAM at 1e16: 1e7 seconds ~ 116 days... still finite but far.
  const LifetimeEstimate stt = project_lifetime(w, stt_mram_endurance());
  EXPECT_NEAR(stt.seconds, 1e7, 1);
}

TEST(Endurance, IdealLevellingUsesAverageRate) {
  WearProfile w;
  w.max_frame_writes = 1000;
  w.total_writes = 2000;  // spread over 100 frames -> avg 20 writes/frame
  w.frames = 100;
  w.elapsed_cycles = 1'000'000;  // 1 ms
  w.clock_ghz = 1.0;
  const double plain = project_lifetime(w, pram_endurance()).seconds;
  const double leveled = project_lifetime_leveled(w, pram_endurance()).seconds;
  // max rate 1e6/s vs avg rate 2e4/s: 50x lifetime from ideal levelling.
  EXPECT_NEAR(leveled / plain, 50.0, 1e-9);
}

TEST(Endurance, ZeroWritesMeansUnlimited) {
  WearProfile w;
  w.elapsed_cycles = 1000;
  w.frames = 4;
  const LifetimeEstimate e = project_lifetime(w, pram_endurance());
  EXPECT_TRUE(e.effectively_unlimited());
  EXPECT_EQ(format_lifetime(e), "unlimited (no writes observed)");
}

TEST(Endurance, FormatLifetimeRanges) {
  EXPECT_EQ(format_lifetime({30.0}), "30.0 seconds");
  EXPECT_EQ(format_lifetime({120.0}), "2.0 minutes");
  EXPECT_EQ(format_lifetime({7200.0}), "2.0 hours");
  EXPECT_EQ(format_lifetime({3 * 24 * 3600.0}), "3.0 days");
  EXPECT_EQ(format_lifetime({2 * 365.25 * 24 * 3600.0}), "2.0 years");
  EXPECT_NE(format_lifetime({1e12}).find("years"), std::string::npos);
}

TEST(Endurance, RejectsBadInputs) {
  WearProfile w;
  EXPECT_THROW(project_lifetime(w, EnduranceSpec{"x", 0}), ConfigError);
  mem::SetAssocCache c(mem::CacheGeometry{1024, 2, 64});
  EXPECT_THROW(profile_wear(c, 100, 0.0), ConfigError);
}

TEST(Endurance, EndToEndSttOutlivesPramByTenOrders) {
  // Run a store-heavy kernel and compare projected lifetimes — the paper's
  // reason to dismiss PRAM/ReRAM at L1.
  cpu::SystemConfig cfg;
  cfg.organization = cpu::Dl1Organization::kNvmVwb;
  cpu::System system(cfg);
  const auto trace = workloads::emit(workloads::CodegenOptions::none(),
                                     workloads::jacobi_1d_into, 2048, 4);
  const auto stats = system.run(trace);
  const WearProfile wear =
      profile_wear(system.dl1().array(), stats.core.total_cycles);
  EXPECT_GT(wear.max_frame_writes, 0u);
  const double stt_s = project_lifetime(wear, stt_mram_endurance()).seconds;
  const double pram_s = project_lifetime(wear, pram_endurance()).seconds;
  EXPECT_NEAR(stt_s / pram_s, 1e10, 1e10 * 1e-9);
  EXPECT_TRUE(project_lifetime(wear, stt_mram_endurance())
                  .effectively_unlimited());
  EXPECT_LT(project_lifetime(wear, pram_endurance()).years(), 0.1);
}

TEST(Endurance, ProfileFromCountersMatchesProfileWear) {
  mem::SetAssocCache c(mem::CacheGeometry{1024, 2, 64});
  c.fill(0x0000, false);
  c.access(0x0000, true);
  c.fill(0x0040, false);
  const WearProfile direct = profile_wear(c, 5000, 2.0);
  const WearProfile rebuilt = profile_from_counters(
      c.max_frame_writes(), c.total_writes(), 16, 5000, 2.0);
  EXPECT_EQ(rebuilt.max_frame_writes, direct.max_frame_writes);
  EXPECT_EQ(rebuilt.total_writes, direct.total_writes);
  EXPECT_EQ(rebuilt.frames, direct.frames);
  EXPECT_EQ(rebuilt.elapsed_cycles, direct.elapsed_cycles);
  EXPECT_DOUBLE_EQ(rebuilt.clock_ghz, direct.clock_ghz);
}

// ---- Retention-fault injection ----------------------------------------

FaultConfig test_faults(std::uint32_t ppm, std::uint32_t double_pct = 0) {
  FaultConfig f;
  f.enabled = true;
  f.seed = 7;
  f.fail_ppm = ppm;
  f.double_fault_pct = double_pct;
  f.retention_window_log2 = 10;  // 1024-cycle window
  f.wear_sensitivity_log2 = 12;
  return f;
}

constexpr sim::Cycle kWindow = 1024;

TEST(FaultInjector, CertainFailureAfterOneRetentionWindow) {
  // fail_ppm = 1e6: every (line, generation) draws failure epoch 1, so a
  // read one full window after the refresh always faults; a read inside
  // the window never does.
  FaultInjector inj(test_faults(1'000'000), EccConfig{}, 64);
  EXPECT_EQ(inj.on_load(0x1000, 8, 0).total(), 0u);  // first touch: refresh
  EXPECT_EQ(inj.on_load(0x1000, 8, kWindow - 1).total(), 0u);  // in-window
  const auto p = inj.on_load(0x1000, 8, kWindow);
  EXPECT_GT(p.total(), 0u);  // one window elapsed: certain fault
  EXPECT_EQ(inj.corrections() + inj.refills(), 1u);
  // The delivered fault scrubbed the line: reading again inside the new
  // window is clean, one window later it faults again.
  EXPECT_EQ(inj.on_load(0x1000, 8, kWindow + 1).total(), 0u);
  EXPECT_GT(inj.on_load(0x1000, 8, 2 * kWindow).total(), 0u);
}

TEST(FaultInjector, ZeroRateNeverFaults) {
  FaultInjector inj(test_faults(0), EccConfig{}, 64);
  for (sim::Cycle t = 0; t < 100 * kWindow; t += kWindow) {
    EXPECT_EQ(inj.on_load(0x2000, 8, t).total(), 0u);
  }
  EXPECT_EQ(inj.corrections(), 0u);
  EXPECT_EQ(inj.refills(), 0u);
}

TEST(FaultInjector, StoresRefreshRetention) {
  FaultInjector inj(test_faults(1'000'000), EccConfig{}, 64);
  inj.on_load(0x3000, 8, 0);  // first touch
  // Keep writing just before each deadline: reads stay clean forever.
  for (int w = 1; w <= 10; ++w) {
    inj.on_store(0x3000, 8, w * kWindow - 2);
    EXPECT_EQ(inj.on_load(0x3000, 8, w * kWindow).total(), 0u) << w;
  }
}

TEST(FaultInjector, DoubleFaultShareControlsEscalation) {
  EccConfig ecc;
  ecc.correction_cycles = 3;
  ecc.refill_cycles = 30;
  {
    FaultInjector inj(test_faults(1'000'000, /*double_pct=*/0), ecc, 64);
    inj.on_load(0x4000, 8, 0);
    const auto p = inj.on_load(0x4000, 8, kWindow);
    EXPECT_EQ(p.correction_cycles, 3u);
    EXPECT_EQ(p.refill_cycles, 0u);
    EXPECT_EQ(inj.corrections(), 1u);
    EXPECT_EQ(inj.refills(), 0u);
  }
  {
    FaultInjector inj(test_faults(1'000'000, /*double_pct=*/100), ecc, 64);
    inj.on_load(0x4000, 8, 0);
    const auto p = inj.on_load(0x4000, 8, kWindow);
    EXPECT_EQ(p.correction_cycles, 0u);
    EXPECT_EQ(p.refill_cycles, 30u);
    EXPECT_EQ(inj.corrections(), 0u);
    EXPECT_EQ(inj.refills(), 1u);
  }
}

TEST(FaultInjector, WearAcceleratesRetentionLoss) {
  // fail_ppm = 1000 and wear_sensitivity 0: after >= 1000 writes the
  // effective rate saturates at 1e6 ppm, so the next out-of-window read
  // faults with certainty. A lightly written twin does not (its failure
  // epoch at 1000 ppm is hundreds of windows for this seed).
  FaultConfig f = test_faults(1000);
  f.wear_sensitivity_log2 = 0;  // boost = 1 + wear
  FaultInjector worn(f, EccConfig{}, 64);
  FaultInjector fresh(f, EccConfig{}, 64);
  fresh.on_load(0x5000, 8, 0);
  for (int i = 0; i < 1000; ++i) worn.on_store(0x5000, 8, 0);
  EXPECT_GT(worn.on_load(0x5000, 8, kWindow).total(), 0u);
  EXPECT_EQ(fresh.on_load(0x5000, 8, kWindow).total(), 0u);
}

TEST(FaultInjector, DeterministicUnderReplayAndReset) {
  // The schedule is a pure function of (seed, access stream): an
  // independently constructed injector — and the same injector after
  // reset() — reproduces every penalty exactly. This is the property the
  // differential oracle relies on.
  const FaultConfig f = test_faults(400'000, 30);
  const auto drive = [&f](FaultInjector& inj) {
    std::vector<std::uint64_t> log;
    Rng rng(99);
    sim::Cycle now = 0;
    for (int i = 0; i < 3000; ++i) {
      const Addr addr = rng.next_below(64) * 64;
      now += rng.next_below(200);
      if (rng.next_below(4) == 0) {
        inj.on_store(addr, 8, now);
      } else {
        const auto p = inj.on_load(addr, 8, now);
        log.push_back(p.correction_cycles);
        log.push_back(p.refill_cycles);
      }
    }
    log.push_back(inj.corrections());
    log.push_back(inj.refills());
    return log;
  };
  FaultInjector a(f, EccConfig{}, 64);
  FaultInjector b(f, EccConfig{}, 64);
  const auto log_a = drive(a);
  EXPECT_EQ(log_a, drive(b));
  EXPECT_GT(a.corrections() + a.refills(), 0u) << "campaign never faulted";
  a.reset();
  EXPECT_EQ(a.corrections(), 0u);
  EXPECT_EQ(log_a, drive(a)) << "reset() did not restore the cold schedule";
}

/// The "Deterministic fault schedule" of EXPERIMENTS.md, evaluated afresh
/// on every load: nothing is cached between loads. Per line it
/// keeps {refreshed_at, generation, wear}. A load of a known line draws
/// Hash64(seed, line, generation), takes u = draw % 1e6 + 1 and
/// eff_ppm = min(1e6, fail_ppm * (1 + wear >> wear_sensitivity_log2)), and
/// faults once (now - refreshed_at) >> retention_window_log2 reaches the
/// failure epoch ceil(u / eff_ppm): double-bit when (draw >> 40) % 100 <
/// double_fault_pct, else corrected. The ECC scrub then refreshes the line
/// and advances its generation. A store refreshes, advances the generation
/// and adds wear.
class ScheduleModel {
 public:
  ScheduleModel(const FaultConfig& f, const EccConfig& ecc, unsigned shift)
      : f_(f), ecc_(ecc), shift_(shift) {}

  FaultInjector::LoadPenalty load(Addr addr, unsigned size, sim::Cycle now) {
    FaultInjector::LoadPenalty p;
    for (std::uint64_t line = addr >> shift_;
         line <= (addr + size - 1) >> shift_; ++line) {
      const auto [it, fresh] = lines_.try_emplace(line, Line{now, 0, 0});
      if (fresh || f_.fail_ppm == 0) continue;
      Line& l = it->second;
      const std::uint64_t draw =
          util::Hash64().u64(f_.seed).u64(line).u64(l.generation).digest();
      const std::uint64_t boost = 1 + (l.wear >> f_.wear_sensitivity_log2);
      max_boost = std::max(max_boost, boost);
      const std::uint64_t eff_ppm = std::min<std::uint64_t>(
          1'000'000, std::uint64_t{f_.fail_ppm} * boost);
      const std::uint64_t u = draw % 1'000'000 + 1;
      const std::uint64_t epoch = (u + eff_ppm - 1) / eff_ppm;
      if (((now - l.refreshed_at) >> f_.retention_window_log2) < epoch) {
        continue;
      }
      if ((draw >> 40) % 100 < f_.double_fault_pct) {
        p.refill_cycles += ecc_.refill_cycles;
      } else {
        p.correction_cycles += ecc_.correction_cycles;
      }
      l.refreshed_at = now;
      ++l.generation;
    }
    return p;
  }

  void store(Addr addr, unsigned size, sim::Cycle now) {
    for (std::uint64_t line = addr >> shift_;
         line <= (addr + size - 1) >> shift_; ++line) {
      Line& l = lines_[line];
      l.refreshed_at = now;
      ++l.generation;
      ++l.wear;
    }
  }

  std::uint64_t max_boost = 1;  ///< largest wear boost any load saw

 private:
  struct Line {
    sim::Cycle refreshed_at = 0;
    std::uint64_t generation = 0;
    std::uint64_t wear = 0;
  };
  FaultConfig f_;
  EccConfig ecc_;
  unsigned shift_;
  std::map<std::uint64_t, Line> lines_;
};

// The injector keeps each line's draw for a whole generation; the model
// recomputes it on every load. Random streams over a few hot lines mix
// loads, stores (wear boosts after 2^wear_sensitivity_log2 writes),
// accesses that span two lines, and double faults; every load's penalty
// must agree. check::FaultedOracle uses FaultInjector itself, so it cannot
// catch a stale draw.
TEST(FaultInjector, MatchesThePerLoadScheduleFormula) {
  struct Case {
    std::uint32_t ppm, double_pct, window_log2, wear_log2;
  };
  const Case cases[] = {{200'000, 30, 6, 2},
                        {5'000, 50, 4, 0},
                        {1'000'000, 100, 3, 1},
                        {60'000, 0, 5, 3},
                        {0, 50, 4, 1}};
  EccConfig ecc;
  ecc.correction_cycles = 3;
  ecc.refill_cycles = 40;
  for (const Case& c : cases) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      FaultConfig f = test_faults(c.ppm, c.double_pct);
      f.seed = seed * 977;
      f.retention_window_log2 = c.window_log2;
      f.wear_sensitivity_log2 = c.wear_log2;
      SCOPED_TRACE("ppm " + std::to_string(c.ppm) + " seed " +
                   std::to_string(seed));
      FaultInjector inj(f, ecc, 64);
      ScheduleModel model(f, ecc, 6);
      Rng rng(seed);
      sim::Cycle now = 0;
      std::uint64_t corrections = 0, refills = 0, mismatches = 0;
      for (int i = 0; i < 20'000; ++i) {
        const Addr addr = 0x10000 + rng.next_below(16 * 64);
        const unsigned size = 1u << rng.next_below(6);  // 1..32 bytes
        now += rng.next_below(3u << c.window_log2);
        if (rng.next_below(3) == 0) {
          inj.on_store(addr, size, now);
          model.store(addr, size, now);
          continue;
        }
        const auto got = inj.on_load(addr, size, now);
        const auto want = model.load(addr, size, now);
        mismatches += got.correction_cycles != want.correction_cycles ||
                      got.refill_cycles != want.refill_cycles;
        corrections += want.correction_cycles / ecc.correction_cycles;
        refills += want.refill_cycles / ecc.refill_cycles;
      }
      EXPECT_EQ(mismatches, 0u);
      EXPECT_EQ(inj.corrections(), corrections);
      EXPECT_EQ(inj.refills(), refills);
      if (c.ppm != 0) {
        EXPECT_GT(model.max_boost, 1u) << "no load saw a wear boost";
        EXPECT_GT(corrections + refills, 0u) << "the stream never faulted";
      }
      if (c.ppm != 0 && c.double_pct != 0) {
        EXPECT_GT(refills, 0u) << "no double fault";
      }
    }
  }
}

TEST(FaultInjector, SeedSelectsADifferentSchedule) {
  FaultConfig f1 = test_faults(200'000);
  FaultConfig f2 = f1;
  f2.seed = f1.seed + 1;
  FaultInjector a(f1, EccConfig{}, 64);
  FaultInjector b(f2, EccConfig{}, 64);
  std::uint64_t faults_a = 0, faults_b = 0;
  bool differed = false;
  for (int line = 0; line < 64 && !differed; ++line) {
    const Addr addr = static_cast<Addr>(line) * 64;
    a.on_load(addr, 8, 0);
    b.on_load(addr, 8, 0);
    for (int w = 1; w <= 16; ++w) {
      const bool fa = a.on_load(addr, 8, w * kWindow).total() > 0;
      const bool fb = b.on_load(addr, 8, w * kWindow).total() > 0;
      faults_a += fa;
      faults_b += fb;
      if (fa != fb) differed = true;
    }
  }
  EXPECT_TRUE(differed) << "seeds produced identical schedules";
}

TEST(FaultConfig, ValidationRejectsBadParameters) {
  FaultConfig f = test_faults(1'000'001);
  EXPECT_THROW(f.validate(), ConfigError);
  f = test_faults(100);
  f.double_fault_pct = 101;
  EXPECT_THROW(f.validate(), ConfigError);
  f = test_faults(100);
  f.retention_window_log2 = 32;
  EXPECT_THROW(f.validate(), ConfigError);
  EccConfig e;
  e.word_bits = 0;
  EXPECT_THROW(e.validate(), ConfigError);
  EXPECT_DOUBLE_EQ(EccConfig{}.storage_overhead(), 0.125);
}

// ---- FaultyDl1System (the production decorator) ------------------------

TEST(FaultyDl1, AddsPenaltiesAndSurfacesCountersThroughStats) {
  cpu::SystemConfig clean_cfg;
  clean_cfg.organization = cpu::Dl1Organization::kNvmVwb;
  cpu::SystemConfig faulty_cfg = clean_cfg;
  faulty_cfg.faults = test_faults(300'000, 20);
  ASSERT_TRUE(faulty_cfg.faults_active());

  const auto trace = workloads::emit(workloads::CodegenOptions::none(),
                                     workloads::jacobi_1d_into, 2048, 4);
  cpu::System clean(clean_cfg);
  cpu::System faulty(faulty_cfg);
  const auto clean_stats = clean.run(trace);
  const auto faulty_stats = faulty.run(trace);

  // The decorator is timing-only: hit/miss behaviour is untouched...
  EXPECT_EQ(faulty_stats.mem.loads, clean_stats.mem.loads);
  EXPECT_EQ(faulty_stats.mem.l1_misses, clean_stats.mem.l1_misses);
  EXPECT_EQ(faulty_stats.mem.front_hits, clean_stats.mem.front_hits);
  // ...but corrected/refilled reads cost cycles and are counted.
  const std::uint64_t events =
      faulty_stats.mem.ecc_corrections + faulty_stats.mem.ecc_refills;
  EXPECT_GT(events, 0u) << "campaign parameters never delivered a fault";
  EXPECT_GT(faulty_stats.core.total_cycles, clean_stats.core.total_cycles);
  EXPECT_EQ(clean_stats.mem.ecc_corrections, 0u);
  EXPECT_EQ(clean_stats.mem.ecc_refills, 0u);
  // The decorator preserves the inner organization's identity.
  EXPECT_EQ(faulty.dl1().name(), clean.dl1().name());
}

TEST(FaultyDl1, CountersCurrentAtEveryObservedOp) {
  // The decorator copies the inner counters once per run; an observed run
  // must still see every counter current after each op, because the
  // differential oracle compares every MemStats field there.
  cpu::SystemConfig cfg;
  cfg.organization = cpu::Dl1Organization::kNvmVwb;
  cfg.faults = test_faults(300'000, 20);
  ASSERT_TRUE(cfg.faults_active());
  const cpu::DecodedTrace trace = cpu::decode(workloads::emit(
      workloads::CodegenOptions::none(), workloads::jacobi_1d_into, 2048, 4));
  cpu::System sys(cfg);
  std::uint64_t events = 0;
  std::uint64_t loads = 0;
  bool monotone = true;
  bool loads_current = true;
  const sim::RunStats stats =
      sys.run_observed(trace, [&](const cpu::OpEvent& ev) {
        const sim::MemStats& m = sys.dl1().stats();
        const std::uint64_t now_events = m.ecc_corrections + m.ecc_refills;
        monotone = monotone && now_events >= events;
        events = now_events;
        if (trace[ev.index].kind == cpu::OpKind::kLoad) ++loads;
        loads_current = loads_current && m.loads == loads;
      });
  EXPECT_TRUE(monotone);
  EXPECT_TRUE(loads_current) << "inner counters lag the observed op";
  EXPECT_GT(events, 0u) << "campaign parameters never delivered a fault";
  EXPECT_EQ(events, stats.mem.ecc_corrections + stats.mem.ecc_refills);
}

TEST(FaultyDl1, ZeroRateReplaysOnTheFaultFreePath) {
  // fail_ppm == 0 can never deliver a fault, so the config is not faulted:
  // it replays undecorated, and keys the result store as fault-free.
  cpu::SystemConfig clean_cfg;
  clean_cfg.organization = cpu::Dl1Organization::kNvmVwb;
  cpu::SystemConfig zero_cfg = clean_cfg;
  zero_cfg.faults = test_faults(0);
  EXPECT_FALSE(zero_cfg.faults_active());

  const auto trace = workloads::emit(workloads::CodegenOptions::none(),
                                     workloads::jacobi_1d_into, 2048, 4);
  cpu::System clean(clean_cfg);
  cpu::System zero(zero_cfg);
  EXPECT_EQ(dynamic_cast<const FaultyDl1System*>(&zero.dl1()), nullptr);
  EXPECT_EQ(sim::to_json(zero.run(trace)), sim::to_json(clean.run(trace)));

  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  EXPECT_EQ(experiments::simulation_digest("gemm", none, zero_cfg),
            experiments::simulation_digest("gemm", none, clean_cfg));
  // A nonzero rate still folds the campaign into the key.
  cpu::SystemConfig faulty_cfg = clean_cfg;
  faulty_cfg.faults = test_faults(1);
  EXPECT_NE(experiments::simulation_digest("gemm", none, faulty_cfg),
            experiments::simulation_digest("gemm", none, clean_cfg));
}

TEST(FaultyDl1, SramBaselineIgnoresFaultConfig) {
  // Retention faults are an STT-MRAM phenomenon: the SRAM baseline never
  // activates the decorator even with faults.enabled set.
  cpu::SystemConfig cfg;
  cfg.organization = cpu::Dl1Organization::kSramBaseline;
  cfg.faults = test_faults(1'000'000);
  EXPECT_FALSE(cfg.faults_active());
  cpu::System sys(cfg);
  const auto trace = workloads::emit(workloads::CodegenOptions::none(),
                                     workloads::jacobi_1d_into, 1024, 2);
  const auto stats = sys.run(trace);
  EXPECT_EQ(stats.mem.ecc_corrections, 0u);
  EXPECT_EQ(stats.mem.ecc_refills, 0u);
}

TEST(FaultyDl1, WearCountersPopulatedOnEveryReplayPath) {
  cpu::SystemConfig cfg;
  cfg.organization = cpu::Dl1Organization::kNvmVwb;
  const auto trace = workloads::emit(workloads::CodegenOptions::none(),
                                     workloads::jacobi_1d_into, 1024, 2);
  cpu::System sys(cfg);
  const auto from_decoded = sys.run(cpu::decode(trace));
  cpu::System sys2(cfg);
  const auto from_raw = sys2.run(trace);
  EXPECT_GT(from_decoded.mem.l1_frame_writes_total, 0u);
  EXPECT_EQ(from_decoded.mem.l1_frame_writes_max,
            from_raw.mem.l1_frame_writes_max);
  EXPECT_EQ(from_decoded.mem.l1_frame_writes_total,
            from_raw.mem.l1_frame_writes_total);
}

}  // namespace
}  // namespace sttsim::reliability
