// The parallel experiment engine's correctness contract: every artifact
// renders byte-identically at --jobs=1 (the historical serial path) and
// --jobs=8, the concurrent TraceCache generates each trace exactly once no
// matter how many threads request it, and a grid drops each trace after
// the last point that replays it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/experiments/artifacts.hpp"
#include "sttsim/experiments/harness.hpp"
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

TEST(ParallelDeterminism, AllArtifactsAreJobCountInvariant) {
  const KernelFilter subset = {"trisolv", "gesummv"};
  for (const Artifact& a : artifacts()) {
    const std::string serial =
        at_jobs(1, [&] { return render_artifact(a, subset, /*csv=*/true); });
    const std::string parallel =
        at_jobs(8, [&] { return render_artifact(a, subset, /*csv=*/true); });
    EXPECT_EQ(serial, parallel) << a.name;
  }
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
  // run_grid's fan-out must agree with one System::run per point.
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
      cpu::System system(cfg);
      const auto one =
          system.run(serial_cache.get_decoded(kernels[k], base));
      EXPECT_EQ(grid[j][k].core.total_cycles, one.core.total_cycles);
      EXPECT_EQ(grid[j][k].mem.loads, one.mem.loads);
      EXPECT_EQ(grid[j][k].mem.stores, one.mem.stores);
    }
  }
}

// A grid generates each (kernel, codegen) trace once and drops it after
// its last point. Two codegen groups: three jobs replay each `none` trace,
// one job each `all` trace. The hooked generators record how many traces
// the cache holds whenever a generation starts: at most the lookahead
// window (pool width) plus the traces of the other workers' running
// points. Without the drops, the grid's earlier traces all stay resident.
TEST(TraceCacheConcurrency,
     GridGeneratesEachTraceOnceAndDropsItAfterItsLastPoint) {
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  const workloads::CodegenOptions all = workloads::CodegenOptions::all();
  const std::vector<SuiteJob> jobs = {
      {make_config(cpu::Dl1Organization::kSramBaseline), none},
      {make_config(cpu::Dl1Organization::kNvmVwb), all},
      {make_config(cpu::Dl1Organization::kNvmDropIn), none},
      {make_config(cpu::Dl1Organization::kNvmVwb), none}};
  const std::vector<std::string> names = {"trisolv", "gesummv", "atax",
                                          "mvt",     "bicg",    "durbin"};
  TraceCache ref_cache;
  const auto reference = at_jobs(
      1, [&] { return run_grid(ref_cache, select_kernels(names), jobs); });

  for (const unsigned width : {1u, 3u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    TraceCache cache;
    std::mutex mu;
    std::map<std::uint64_t, int> generated;  // by trace_digest
    std::size_t max_resident = 0;
    std::vector<workloads::Kernel> kernels = select_kernels(names);
    for (workloads::Kernel& k : kernels) {
      k.generate_decoded = [&, gen = k.generate_decoded,
                            name = k.name](const workloads::CodegenOptions& o) {
        {
          std::lock_guard<std::mutex> lock(mu);
          ++generated[trace_digest(name, o)];
          max_resident = std::max(max_resident, cache.resident());
        }
        return gen(o);
      };
    }
    const auto grid =
        at_jobs(width, [&] { return run_grid(cache, kernels, jobs); });

    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (std::size_t k = 0; k < names.size(); ++k) {
        EXPECT_EQ(sim::to_json(grid[j][k]), sim::to_json(reference[j][k]));
      }
    }
    EXPECT_EQ(generated.size(), 2 * names.size());
    for (const auto& [digest, count] : generated) EXPECT_EQ(count, 1);
    EXPECT_EQ(cache.entries(), 2 * names.size());
    EXPECT_EQ(cache.resident(), 0u)
        << "every trace is dropped after its last point";
    EXPECT_LE(max_resident, 2 * width - 1);
    // The grid kept no copy: asking again generates the trace again.
    cache.acquire(kernels[0], none);
    EXPECT_EQ(generated[trace_digest(names[0], none)], 2);
  }
}

}  // namespace
}  // namespace sttsim::experiments
