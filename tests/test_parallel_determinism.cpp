// The parallel experiment engine's correctness contract: every figure
// function produces byte-identical output at --jobs=1 (the historical
// serial path) and --jobs=8, and the concurrent TraceCache generates each
// trace exactly once no matter how many threads request it.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/experiments/figures.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/report/figure.hpp"
#include "sttsim/sim/stats.hpp"

namespace sttsim::experiments {
namespace {

/// Runs `make()` with the process-wide job default forced to `jobs`,
/// restoring the hardware default afterwards.
template <typename F>
auto at_jobs(unsigned jobs, F&& make) {
  exec::set_default_jobs(jobs);
  auto result = make();
  exec::set_default_jobs(0);
  return result;
}

class ParallelDeterminism : public ::testing::Test {
 protected:
  const KernelFilter subset_{"trisolv", "gesummv"};

  void expect_identical(
      const char* name,
      const std::function<report::FigureData(const KernelFilter&)>& fig) {
    const std::string serial =
        report::render_csv(at_jobs(1, [&] { return fig(subset_); }));
    const std::string parallel =
        report::render_csv(at_jobs(8, [&] { return fig(subset_); }));
    EXPECT_EQ(serial, parallel) << name;
  }
};

TEST_F(ParallelDeterminism, AllFigureFunctionsAreJobCountInvariant) {
  expect_identical("fig1", fig1_dropin_penalty);
  expect_identical("fig3", fig3_vwb_penalty);
  expect_identical("fig4", fig4_rw_breakdown);
  expect_identical("fig5", fig5_transformations);
  expect_identical("fig6", fig6_contributions);
  expect_identical("fig7", fig7_vwb_size);
  expect_identical("fig7_optimized", fig7_vwb_size_optimized);
  expect_identical("fig8", fig8_alternatives);
  expect_identical("fig9", fig9_baseline_gain);
  expect_identical("ablation_banking", ablation_banking);
  expect_identical("ablation_store_buffer", ablation_store_buffer);
  expect_identical("ablation_write_mitigation", ablation_write_mitigation);
  expect_identical("energy_report", energy_report);
  expect_identical("exploration_iso_area", exploration_iso_area);
  expect_identical("sensitivity_clock", sensitivity_clock);
  expect_identical("sensitivity_cell", sensitivity_cell);
  expect_identical("fig_reliability_retention", fig_reliability_retention);
  expect_identical("fig_reliability_lifetime", fig_reliability_lifetime);
  expect_identical("fig_reliability_ecc_overhead", fig_reliability_ecc_overhead);
}

TEST_F(ParallelDeterminism, LifetimeReportIsJobCountInvariant) {
  const std::string serial = at_jobs(1, [&] {
    return lifetime_report(subset_);
  });
  const std::string parallel = at_jobs(8, [&] {
    return lifetime_report(subset_);
  });
  EXPECT_EQ(serial, parallel);
}

TEST(TraceCacheConcurrency, ManyThreadsOneGenerationPerKey) {
  TraceCache cache;
  const auto kernels = select_kernels({"trisolv", "gesummv"});
  const workloads::CodegenOptions base = workloads::CodegenOptions::none();
  const workloads::CodegenOptions full = workloads::CodegenOptions::all();
  std::vector<std::thread> threads;
  std::vector<const cpu::Trace*> seen(8 * 4, nullptr);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        const auto& kernel = kernels[static_cast<std::size_t>(i) % 2];
        const auto& opts = (i / 2 == 0) ? base : full;
        seen[static_cast<std::size_t>(t * 4 + i)] = &cache.get(kernel, opts);
      }
    });
  }
  for (auto& th : threads) th.join();
  // 2 kernels x 2 codegen variants -> exactly 4 generated traces.
  EXPECT_EQ(cache.entries(), 4u);
  // Every requester of the same key observed the same object.
  for (int t = 1; t < 8; ++t) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t * 4 + i)],
                seen[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(TraceCacheConcurrency, GridMatchesPerCallRuns) {
  // run_grid's fan-out must agree with run_kernel one at a time.
  const auto kernels = select_kernels({"trisolv", "gesummv"});
  const workloads::CodegenOptions base = workloads::CodegenOptions::none();
  const auto sram_cfg = make_config(cpu::Dl1Organization::kSramBaseline);
  const auto vwb_cfg = make_config(cpu::Dl1Organization::kNvmVwb);
  TraceCache grid_cache;
  const auto grid = at_jobs(8, [&] {
    return run_grid(grid_cache, kernels, {{sram_cfg, base}, {vwb_cfg, base}});
  });
  TraceCache serial_cache;
  for (std::size_t j = 0; j < 2; ++j) {
    const auto& cfg = j == 0 ? sram_cfg : vwb_cfg;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      const auto one = run_kernel(serial_cache, kernels[k], cfg, base);
      EXPECT_EQ(grid[j][k].core.total_cycles, one.core.total_cycles);
      EXPECT_EQ(grid[j][k].mem.loads, one.mem.loads);
      EXPECT_EQ(grid[j][k].mem.stores, one.mem.stores);
    }
  }
}

}  // namespace
}  // namespace sttsim::experiments
