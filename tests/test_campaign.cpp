// Engine-level campaign-lifecycle tests: whole grids run through
// run_grid with hand-rolled workloads::Kernel objects whose generators
// throw or trip the interrupt flag from inside a grid point's task (a
// failing point aborts the grid with the lowest-index error, an
// interrupted campaign resumes from the store).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

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

/// The process id keeps concurrent runs of this binary (other build trees
/// share the temp directory) off each other's store paths.
std::string temp_store_path(const char* name) {
  return ::testing::TempDir() + "sttsim_campaign_" + name + "_" +
         std::to_string(::getpid()) + ".bin";
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
  k.generate_decoded = [gen = k.generate_decoded,
                        hook](const workloads::CodegenOptions& o) {
    hook();
    return gen(o);
  };
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
    exec::set_result_store(nullptr);
    exec::set_default_jobs(0);
  }
};

// ---- Failure and interrupt ---------------------------------------------

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

// The scheduler plumbing must not perturb the happy path: a grid that
// nothing interrupts equals the reference at several pool widths.
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
}

}  // namespace
}  // namespace sttsim
