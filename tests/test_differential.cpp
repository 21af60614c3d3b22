// Differential oracle campaign: every DL1 organization, simulated by the
// production cpu::System — the replay path the figures run — must
// agree op-for-op with the independently written reference model
// (src/check): completion cycles, every stats counter, and the
// data-content shadow, on random traces and on whole kernel traces. The
// checker itself is validated by fault injection: a deliberately wrong
// oracle must be caught, and the ddmin minimizer must shrink the offending
// trace to a handful of ops.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "sttsim/check/differential.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/workloads/suite.hpp"
#include "trace_util.hpp"

namespace sttsim {
namespace {

using cpu::Dl1Organization;
using testutil::random_trace;

constexpr Dl1Organization kAllOrgs[] = {
    Dl1Organization::kSramBaseline, Dl1Organization::kNvmDropIn,
    Dl1Organization::kNvmVwb,       Dl1Organization::kNvmL0,
    Dl1Organization::kNvmEmshr,     Dl1Organization::kNvmWriteBuf,
};

/// Campaign size: 200 seeds by default (the acceptance bar); override with
/// STTSIM_FUZZ_SEEDS for quicker local runs or deeper soaks.
std::uint64_t campaign_seeds() {
  if (const char* env = std::getenv("STTSIM_FUZZ_SEEDS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 200;
}

/// Whether the simulator and the oracle agree on one campaign trace. On a
/// divergence the trace is minimized and written as a reproducer named
/// `tag` into the working directory, and the failure gives its path;
/// `sttsim --trace-in=PATH --org=ORG --check-oracle` replays it (the .txt
/// beside it holds the full configuration).
::testing::AssertionResult agrees(const cpu::SystemConfig& cfg,
                                  const cpu::Trace& trace,
                                  const std::string& tag) {
  const check::Divergence div = check::run_differential(cfg, trace);
  if (!div.diverged) return ::testing::AssertionSuccess();
  const check::MinimizeResult min = check::minimize_trace(cfg, trace);
  const std::string path = check::write_reproducer(
      std::filesystem::current_path().string(), tag, cfg, min);
  return ::testing::AssertionFailure()
         << tag << ": " << div.detail << "\nreproducer (" << min.trace.size()
         << " ops): " << path;
}

/// The reproducer name of one campaign trace.
std::string campaign_tag(const char* campaign, Dl1Organization org,
                         Addr region, std::uint64_t seed) {
  return std::string(campaign) + "_" + cpu::to_string(org) + "_region" +
         std::to_string(region) + "_seed" + std::to_string(seed);
}

class DifferentialCampaign
    : public ::testing::TestWithParam<Dl1Organization> {};

TEST_P(DifferentialCampaign, SimulatorMatchesOracleOnRandomTraces) {
  cpu::SystemConfig cfg;
  cfg.organization = GetParam();
  const std::uint64_t seeds = campaign_seeds();
  // The three working-set regimes: in-L1, L1-straddling, and L2-bound.
  for (const Addr region : {4 * kKiB, 96 * kKiB, 512 * kKiB}) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      ASSERT_TRUE(agrees(cfg, random_trace(seed, 600, region),
                         campaign_tag("random", GetParam(), region, seed)));
    }
  }
}

// The L2's dirty-victim path: under a 128 KiB 4-way L2, a 1 MiB region
// evicts dirty L2 lines, which neither the 2 MiB default L2 above nor any
// artifact reaches. A fixed 30 seeds keep it a quick-tier cost.
TEST_P(DifferentialCampaign, SmallL2DirtyVictimsMatchOracle) {
  cpu::SystemConfig cfg;
  cfg.organization = GetParam();
  cfg.l2.capacity_bytes = 128 * kKiB;
  cfg.l2.associativity = 4;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    ASSERT_TRUE(agrees(cfg, random_trace(seed, 4000, kMiB),
                       campaign_tag("small_l2", GetParam(), kMiB, seed)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrgs, DifferentialCampaign,
                         ::testing::ValuesIn(kAllOrgs),
                         [](const auto& param_info) {
                           std::string n = cpu::to_string(param_info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

/// Retention-fault campaign parameters: aggressive enough that faults
/// actually fire inside a 600-op trace (window 1024 cycles, ~1 in 3 reads
/// of a stale line), with a double-bit share so both the correction and
/// the refill path are exercised.
cpu::SystemConfig faulted_campaign_config(Dl1Organization org,
                                          std::uint64_t fault_seed) {
  cpu::SystemConfig cfg;
  cfg.organization = org;
  cfg.faults.enabled = true;
  cfg.faults.seed = fault_seed;
  cfg.faults.fail_ppm = 300'000;
  cfg.faults.double_fault_pct = 25;
  cfg.faults.retention_window_log2 = 10;
  return cfg;
}

class FaultedDifferentialCampaign
    : public ::testing::TestWithParam<Dl1Organization> {};

TEST_P(FaultedDifferentialCampaign, OraclePredictsEccCorrectedOutcomes) {
  // With fault injection live, the oracle rebuilds the retention-fault
  // schedule from its own independently seeded injector and must still
  // agree op-for-op: completion cycles (now including correction/refill
  // penalties), every counter (including ecc_corrections / ecc_refills),
  // and the data shadow. The fault seed varies with the trace seed so the
  // campaign covers many schedules, not one.
  const std::uint64_t seeds = campaign_seeds();
  for (const Addr region : {4 * kKiB, 96 * kKiB}) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const cpu::SystemConfig cfg =
          faulted_campaign_config(GetParam(), /*fault_seed=*/seed);
      ASSERT_TRUE(agrees(cfg, random_trace(seed, 600, region),
                         campaign_tag("faulted", GetParam(), region, seed)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrgs, FaultedDifferentialCampaign,
                         ::testing::ValuesIn(kAllOrgs),
                         [](const auto& param_info) {
                           std::string n = cpu::to_string(param_info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

/// Adversarial trace for inclusion bugs: addresses confined to two L1 sets
/// with four conflicting way-stride lines each (64 KiB 2-way DL1 → 32 KiB
/// way stride), so lines are constantly evicted while their sectors are
/// still front-buffer resident, then immediately re-touched.
cpu::Trace conflict_trace(std::uint64_t seed, std::size_t ops) {
  Rng rng(seed);
  cpu::Trace t;
  t.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    const Addr addr = 0x10000 + rng.next_below(4) * (32 * kKiB) +
                      rng.next_below(2) * 64 +
                      align_down(rng.next_below(64), 8);
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 60) {
      t.push_back(cpu::make_load(addr, 8));
    } else if (dice < 90) {
      t.push_back(cpu::make_store(addr, 8));
    } else {
      t.push_back(cpu::make_prefetch(addr));
    }
  }
  cpu::assign_store_values(t, seed);
  return t;
}

/// Finds a seed whose trace diverges under the injected fault. The fault
/// perturbs the *oracle* (the reference model stands in for a buggy
/// simulator); the driver must flag the disagreement either way.
template <typename TraceGen>
cpu::Trace find_diverging_trace(const cpu::SystemConfig& cfg,
                                const check::OracleFaults& faults,
                                TraceGen gen) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    cpu::Trace trace = gen(seed);
    if (check::run_differential(cfg, trace, faults).diverged) return trace;
  }
  return {};
}

TEST(FaultInjection, DroppedFrontInvalidateIsCaughtAndMinimized) {
  // Simulates the classic VWB inclusion bug: on an L1 eviction the victim's
  // sectors are left valid in the buffer, serving stale data later.
  cpu::SystemConfig cfg;
  cfg.organization = Dl1Organization::kNvmVwb;
  check::OracleFaults faults;
  faults.drop_front_invalidate_on_l1_evict = true;

  const cpu::Trace trace = find_diverging_trace(
      cfg, faults, [](std::uint64_t seed) { return conflict_trace(seed, 400); });
  ASSERT_FALSE(trace.empty()) << "fault was never exposed";

  const check::MinimizeResult min = check::minimize_trace(cfg, trace, faults);
  EXPECT_TRUE(min.divergence.diverged);
  EXPECT_LE(min.trace.size(), 20u) << "minimizer left a bloated reproducer";
  EXPECT_GE(min.probes, 2u);
  // The minimal trace must still be a genuine reproducer on a fresh run.
  EXPECT_TRUE(check::run_differential(cfg, min.trace, faults).diverged);
}

TEST(FaultInjection, SkippedFillRegisterInvalidateIsCaught) {
  // Simulates a stale-prefetch bug: a store to a line parked in an MSHR fill
  // register does not invalidate it, so a later promotion serves old bytes.
  cpu::SystemConfig cfg;
  cfg.organization = Dl1Organization::kNvmVwb;
  check::OracleFaults faults;
  faults.skip_fill_register_invalidate_on_store = true;

  const cpu::Trace trace = find_diverging_trace(
      cfg, faults,
      [](std::uint64_t seed) { return random_trace(seed, 4000, 96 * kKiB); });
  ASSERT_FALSE(trace.empty()) << "fault was never exposed";

  const check::MinimizeResult min = check::minimize_trace(cfg, trace, faults);
  EXPECT_TRUE(min.divergence.diverged);
  EXPECT_LE(min.trace.size(), 20u);
}

TEST(FaultInjection, SkippedEccCorrectionLatencyIsCaughtAndMinimized) {
  // Deliberately broken ECC: the oracle omits the single-bit correction
  // latency from faulted loads (the timing bug an ECC implementation would
  // most plausibly have). The differential driver must flag the cycle
  // disagreement and ddmin must shrink the trace to a handful of ops.
  cpu::SystemConfig cfg = faulted_campaign_config(Dl1Organization::kNvmVwb, 3);
  cfg.faults.double_fault_pct = 0;  // all faults take the correction path
  check::OracleFaults faults;
  faults.skip_ecc_correction_latency = true;

  const cpu::Trace trace = find_diverging_trace(
      cfg, faults,
      [](std::uint64_t seed) { return random_trace(seed, 600, 8 * kKiB); });
  ASSERT_FALSE(trace.empty()) << "fault was never exposed";

  const check::MinimizeResult min = check::minimize_trace(cfg, trace, faults);
  EXPECT_TRUE(min.divergence.diverged);
  EXPECT_LE(min.trace.size(), 20u) << "minimizer left a bloated reproducer";
  // The minimal trace must still be a genuine reproducer on a fresh run,
  // and a clean oracle must agree with the simulator on it.
  EXPECT_TRUE(check::run_differential(cfg, min.trace, faults).diverged);
  EXPECT_FALSE(check::run_differential(cfg, min.trace).diverged);

  // The reproducer artifact records the fault campaign so the divergence
  // is replayable from the command line.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sttsim_ecc_repro").string();
  const std::string path = check::write_reproducer(dir, "ecc_skip", cfg, min);
  EXPECT_EQ(cpu::read_trace_file(path), min.trace);
  std::ifstream txt(dir + "/ecc_skip.txt");
  std::ostringstream ss;
  ss << txt.rdbuf();
  const std::string body = ss.str();
  EXPECT_NE(body.find("--faults="), std::string::npos);
  EXPECT_NE(body.find("--ecc="), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(FaultInjection, ReproducerArtifactRoundTrips) {
  cpu::SystemConfig cfg;
  cfg.organization = Dl1Organization::kNvmVwb;
  check::OracleFaults faults;
  faults.drop_front_invalidate_on_l1_evict = true;

  const cpu::Trace trace = find_diverging_trace(
      cfg, faults, [](std::uint64_t seed) { return conflict_trace(seed, 400); });
  ASSERT_FALSE(trace.empty());
  const check::MinimizeResult min = check::minimize_trace(cfg, trace, faults);
  ASSERT_TRUE(min.divergence.diverged);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "sttsim_repro_test").string();
  const std::string path =
      check::write_reproducer(dir, "vwb_inclusion", cfg, min);
  // The written trace replays to the same divergence field at the same op.
  const cpu::Trace replay = cpu::read_trace_file(path);
  EXPECT_EQ(replay, min.trace);
  const check::Divergence again = check::run_differential(cfg, replay, faults);
  EXPECT_TRUE(again.diverged);
  EXPECT_EQ(again.field, min.divergence.field);
  EXPECT_EQ(again.op_index, min.divergence.op_index);
  EXPECT_TRUE(std::filesystem::exists(dir + "/vwb_inclusion.txt"));
  std::filesystem::remove_all(dir);
}

TEST(Differential, CleanOracleNeverFlagsItself) {
  // Sanity for the fault plumbing: the same trace shapes used by the fault
  // tests pass cleanly when no fault is injected — including the
  // conflict-heavy pattern, which the main campaign does not generate.
  for (const auto org : kAllOrgs) {
    cpu::SystemConfig cfg;
    cfg.organization = org;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const check::Divergence a =
          check::run_differential(cfg, conflict_trace(seed, 2000));
      EXPECT_FALSE(a.diverged)
          << cpu::to_string(org) << " conflict seed " << seed << ": "
          << a.detail;
    }
    const check::Divergence b =
        check::run_differential(cfg, random_trace(1, 4000, 128 * kKiB));
    EXPECT_FALSE(b.diverged) << cpu::to_string(org) << ": " << b.detail;
  }
}

TEST(Differential, KernelTracesMatchOpByOp) {
  // Whole kernel traces, op by op: the golden figures' kernels under both
  // codegen extremes, on every organization's default system and on an
  // ECC-protected nvm-vwb with retention faults firing (1e5 ppm, a quarter
  // of them double-bit, so both the correction and the refill path run).
  std::vector<cpu::SystemConfig> configs;
  for (const auto org : kAllOrgs) {
    configs.push_back(experiments::make_config(org));
  }
  cpu::SystemConfig faulted =
      experiments::make_config(Dl1Organization::kNvmVwb);
  faulted.faults.enabled = true;
  faulted.faults.fail_ppm = 100'000;
  faulted.faults.double_fault_pct = 25;
  configs.push_back(faulted);

  for (const char* kernel : {"trisolv", "gesummv"}) {
    for (const bool optimized : {false, true}) {
      const workloads::CodegenOptions opts =
          optimized ? workloads::CodegenOptions::all()
                    : workloads::CodegenOptions::none();
      cpu::Trace trace = cpu::reassemble(
          workloads::find_kernel(kernel).generate_decoded(opts));
      cpu::assign_store_values(trace, 1);
      for (const cpu::SystemConfig& cfg : configs) {
        const check::Divergence div = check::run_differential(cfg, trace);
        EXPECT_FALSE(div.diverged)
            << kernel << (optimized ? " all " : " none ")
            << cpu::to_string(cfg.organization)
            << (cfg.faults_active() ? " faulted: " : ": ") << div.detail;
      }
    }
  }
}

}  // namespace
}  // namespace sttsim
