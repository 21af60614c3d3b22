// Engine-level campaign-lifecycle tests: whole grids run through
// run_grid with hand-rolled workloads::Kernel objects whose generators
// sleep, throw, or trip the interrupt flag from inside a grid point's task
// (a deadline skips only points that have not started, a failing point
// aborts the grid with the lowest-index error, an interrupted campaign
// resumes from the store), plus fork-based two-process campaigns sharing
// one store file.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/request.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/workloads/suite.hpp"

namespace sttsim {
namespace {

std::string temp_store_path(const char* name) {
  return ::testing::TempDir() + "sttsim_campaign_" + name + ".bin";
}

/// RAII: installs a fresh store for one test and restores the previous
/// process-wide registration on exit.
class ScopedStore {
 public:
  explicit ScopedStore(const std::string& path)
      : store_(path, sim::kRunStatsBytes) {
    exec::set_result_store(&store_);
  }
  ~ScopedStore() { exec::set_result_store(nullptr); }
  exec::ResultStore& get() { return store_; }

 private:
  exec::ResultStore store_;
};

std::vector<experiments::SuiteJob> small_grid() {
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  std::vector<experiments::SuiteJob> jobs;
  jobs.push_back(
      {experiments::make_config(cpu::Dl1Organization::kSramBaseline), none});
  jobs.push_back(
      {experiments::make_config(cpu::Dl1Organization::kNvmDropIn), none});
  jobs.push_back({experiments::make_config(cpu::Dl1Organization::kNvmVwb),
                  workloads::CodegenOptions::all()});
  return jobs;
}

/// Suite kernel `name` with `hook` run at the start of every trace
/// generation — inside the grid point's task. Name and trace are those of
/// the suite kernel, so results and store digests match it exactly.
workloads::Kernel hooked_kernel(const std::string& name,
                                std::function<void()> hook) {
  workloads::Kernel k = workloads::find_kernel(name);
  k.generate = [gen = k.generate, hook](const workloads::CodegenOptions& o) {
    hook();
    return gen(o);
  };
  k.generate_decoded = nullptr;  // the trace cache decodes generate() then
  return k;
}

std::string grid_fingerprint(
    const std::vector<std::vector<sim::RunStats>>& grid) {
  std::string out;
  for (const auto& row : grid) {
    for (const sim::RunStats& s : row) out += sim::to_json(s) + "\n";
  }
  return out;
}

/// Clears every piece of process-wide lifecycle state between tests.
class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_lifecycle(); }
  void TearDown() override { reset_lifecycle(); }

  static void reset_lifecycle() {
    exec::interrupt_source().reset();
    exec::set_default_request(exec::CampaignRequest{});
    exec::set_result_store(nullptr);
    exec::set_default_jobs(0);
    exec::set_default_batch(1);
  }
};

// ---- Deadline, failure and interrupt -----------------------------------

// A deadline skips the points that have not started, never a running one.
// The first point's trace generation sleeps past the deadline, yet that
// point finishes with the reference result and is persisted; every later
// point starts past the deadline and keeps default RunStats. Width 1 fixes
// the execution order (j-major).
TEST_F(CampaignTest, DeadlineSkipsUnstartedPointsAndKeepsTheRunningOne) {
  const auto kernels = experiments::select_kernels({"atax", "mvt"});
  const auto jobs = small_grid();
  const std::size_t n = jobs.size() * kernels.size();
  const std::string path = temp_store_path("deadline");
  std::remove(path.c_str());

  experiments::TraceCache ref_cache;
  const auto reference = experiments::run_grid(ref_cache, kernels, jobs);

  exec::set_default_jobs(1);
  exec::CampaignRequest request;
  request.deadline_s = 0.5;
  exec::set_default_request(request);
  const auto nap = [] {
    std::this_thread::sleep_for(std::chrono::seconds(1));
  };
  const std::vector<workloads::Kernel> slow = {hooked_kernel("atax", nap),
                                               kernels[1]};

  auto& telemetry = exec::Telemetry::instance();
  {
    ScopedStore store(path);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    experiments::TraceCache cache;
    const auto degraded = experiments::run_grid(cache, slow, jobs);
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;

    EXPECT_EQ(sim::to_json(degraded[0][0]), sim::to_json(reference[0][0]))
        << "the point running at the deadline must finish, not degrade";
    EXPECT_EQ(delta.tasks_timed_out, n - 1);
    EXPECT_EQ(delta.simulations, 1u);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (std::size_t k = 0; k < kernels.size(); ++k) {
        if (j == 0 && k == 0) continue;
        EXPECT_EQ(degraded[j][k].core.total_cycles, 0u)
            << "point (" << j << ", " << k << ") started past the deadline";
      }
    }
    EXPECT_EQ(store.get().entries(), 1u) << "the finished point is persisted";
  }
  std::remove(path.c_str());
}

// A bug keeps the historical abort semantics: run_grid rethrows the
// lowest-index failure, after every other point finished and was
// persisted, instead of silently degrading. Two kernels fail in every
// point; mvt's points come first in the j-major order.
TEST_F(CampaignTest, FailingPointAbortsTheGridWithTheLowestIndexError) {
  const auto jobs = small_grid();
  const std::vector<workloads::Kernel> kernels = {
      workloads::find_kernel("atax"),
      hooked_kernel("mvt", [] { throw std::runtime_error("mvt failed"); }),
      hooked_kernel("gesummv",
                    [] { throw std::runtime_error("gesummv failed"); })};
  const std::string path = temp_store_path("abort");
  std::remove(path.c_str());
  {
    ScopedStore store(path);
    experiments::TraceCache cache;
    try {
      experiments::run_grid(cache, kernels, jobs);
      FAIL() << "expected the failing point to propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "mvt failed");
    }
    EXPECT_EQ(store.get().entries(), jobs.size())
        << "every healthy atax point finishes and persists before the throw";
  }
  std::remove(path.c_str());
}

// Ctrl-C mid-campaign: the first point's generator trips the interrupt
// flag from inside its task. That point finishes and is persisted, the
// next one is skipped, and run_grid throws CampaignInterrupted. Width 1
// fixes the order; at a larger width both points can start before the
// interrupt. The re-run serves the finished point from the store
// (memo_hits == completed-before-interrupt) and generates a trace only for
// the kernel that was still missing.
TEST_F(CampaignTest, InterruptedCampaignResumesOnlyMissingPoints) {
  const auto kernels = experiments::select_kernels({"atax", "mvt"});
  const std::vector<experiments::SuiteJob> jobs = {small_grid().front()};
  const std::string path = temp_store_path("resume");
  std::remove(path.c_str());

  experiments::TraceCache ref_cache;
  const std::string reference =
      grid_fingerprint(experiments::run_grid(ref_cache, kernels, jobs));

  exec::set_default_jobs(1);
  auto& telemetry = exec::Telemetry::instance();
  {
    ScopedStore store(path);
    const std::vector<workloads::Kernel> tripwire = {
        hooked_kernel("atax", [] { exec::interrupt_source().cancel(); }),
        kernels[1]};
    experiments::TraceCache cache;
    EXPECT_THROW(experiments::run_grid(cache, tripwire, jobs),
                 exec::CampaignInterrupted);
    // The point that was running when the interrupt tripped was persisted.
    EXPECT_EQ(store.get().entries(), 1u);
  }

  // Resume: clear the interrupt and run the plain grid.
  exec::interrupt_source().reset();
  {
    ScopedStore store(path);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    experiments::TraceCache cache;  // fresh: regenerates only what it needs
    const std::string resumed =
        grid_fingerprint(experiments::run_grid(cache, kernels, jobs));
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.memo_hits, 1u) << "completed point must come from disk";
    EXPECT_EQ(delta.memo_misses, 1u);
    EXPECT_EQ(delta.simulations, 1u) << "only the missing point simulates";
    EXPECT_EQ(delta.traces_generated, 1u)
        << "only the missing kernel's trace regenerates";
    EXPECT_EQ(resumed, reference);
    EXPECT_EQ(store.get().entries(), 2u);
  }
  std::remove(path.c_str());
}

// ---- Two-process campaigns over one store ------------------------------

// A forked child campaign and the parent campaign run CONCURRENTLY against
// one store file (child: atax, parent: atax+mvt — overlapping grids). The
// resulting store must equal the single-process union: a warm re-run of
// the superset grid is all hits, zero simulations, byte-identical to the
// no-store reference.
TEST_F(CampaignTest, TwoProcessCampaignsUnionIntoOneStore) {
  const auto kernels_child = experiments::select_kernels({"atax"});
  const auto kernels_parent = experiments::select_kernels({"atax", "mvt"});
  const auto jobs = small_grid();
  const std::size_t union_points = jobs.size() * kernels_parent.size();
  const std::string path = temp_store_path("twoprocess");
  std::remove(path.c_str());

  experiments::TraceCache ref_cache;
  const std::string reference = grid_fingerprint(
      experiments::run_grid(ref_cache, kernels_parent, jobs));

  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    // Child process: its own store instance on the shared path.
    int code = 0;
    try {
      exec::ResultStore child_store(path, sim::kRunStatsBytes);
      exec::set_result_store(&child_store);
      experiments::TraceCache cache;
      experiments::run_grid(cache, kernels_child, jobs);
      exec::set_result_store(nullptr);
    } catch (...) {
      code = 1;
    }
    _exit(code);
  }
  ASSERT_GT(pid, 0);
  {
    // Parent campaign runs while the child is running.
    ScopedStore store(path);
    experiments::TraceCache cache;
    experiments::run_grid(cache, kernels_parent, jobs);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child campaign failed";

  // The store now holds exactly the union (overlapping points deduplicated
  // by cross-process first-write-wins), and a warm re-run of the superset
  // grid never simulates.
  auto& telemetry = exec::Telemetry::instance();
  {
    ScopedStore store(path);  // fresh open indexes the whole shared file
    EXPECT_EQ(store.get().entries(), union_points);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    experiments::TraceCache cache;
    const std::string warm = grid_fingerprint(
        experiments::run_grid(cache, kernels_parent, jobs));
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.memo_hits, union_points);
    EXPECT_EQ(delta.memo_misses, 0u);
    EXPECT_EQ(delta.simulations, 0u);
    EXPECT_EQ(warm, reference)
        << "two-process union diverged from the single-process result";
  }
  std::remove(path.c_str());
}

// Disjoint grids: neither campaign's records shadow the other's; the
// parent sees the child's half only after run_grid's refresh, and both
// halves re-run warm.
TEST_F(CampaignTest, DisjointTwoProcessCampaignsBothStayWarm) {
  const auto kernels_a = experiments::select_kernels({"atax"});
  const auto kernels_b = experiments::select_kernels({"mvt"});
  const auto jobs = small_grid();
  const std::string path = temp_store_path("disjoint");
  std::remove(path.c_str());

  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    int code = 0;
    try {
      exec::ResultStore child_store(path, sim::kRunStatsBytes);
      exec::set_result_store(&child_store);
      experiments::TraceCache cache;
      experiments::run_grid(cache, kernels_a, jobs);
      exec::set_result_store(nullptr);
    } catch (...) {
      code = 1;
    }
    _exit(code);
  }
  ASSERT_GT(pid, 0);
  {
    ScopedStore store(path);
    experiments::TraceCache cache;
    experiments::run_grid(cache, kernels_b, jobs);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // Warm re-runs of BOTH halves from one fresh process: all hits — the
  // run_grid refresh makes the other process's appends visible.
  auto& telemetry = exec::Telemetry::instance();
  ScopedStore store(path);
  const exec::TelemetrySnapshot before = telemetry.snapshot();
  experiments::TraceCache cache;
  experiments::run_grid(cache, kernels_a, jobs);
  experiments::run_grid(cache, kernels_b, jobs);
  const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
  EXPECT_EQ(delta.memo_hits, 2 * jobs.size());
  EXPECT_EQ(delta.memo_misses, 0u);
  EXPECT_EQ(delta.simulations, 0u);
  std::remove(path.c_str());
}

// The scheduler plumbing must not perturb the happy path: a grid with
// default request settings equals the reference at several pool widths and
// on the batched path.
TEST_F(CampaignTest, DefaultLifecycleIsInvisibleAtAnyWidth) {
  const auto kernels = experiments::select_kernels({"atax"});
  const auto jobs = small_grid();
  experiments::TraceCache ref_cache;
  const std::string reference =
      grid_fingerprint(experiments::run_grid(ref_cache, kernels, jobs));
  for (const unsigned width : {1u, 4u}) {
    exec::set_default_jobs(width);
    experiments::TraceCache cache;
    EXPECT_EQ(grid_fingerprint(experiments::run_grid(cache, kernels, jobs)),
              reference)
        << "lifecycle changed results at --jobs=" << width;
  }
  exec::set_default_jobs(0);
  exec::set_default_batch(4);
  experiments::TraceCache cache;
  EXPECT_EQ(grid_fingerprint(experiments::run_grid(cache, kernels, jobs)),
            reference)
      << "lifecycle changed results on the batched path";
}

}  // namespace
}  // namespace sttsim
