// Standalone differential-oracle soak: random traces through every DL1
// organization vs the reference model, fanned across the parallel
// experiment engine. Prints throughput and exits nonzero on the first
// divergence (after ddmin minimization, writing a replayable reproducer).
//
//   oracle_campaign [--seeds=N] [--ops=N] [--jobs=N]
//
// --seeds and --ops must be positive and --jobs non-negative decimal
// integers (util/text.hpp's strict parser); anything else prints usage and
// exits 2, so a soak that would run nothing is never reported clean.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "sttsim/check/differential.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/util/rng.hpp"
#include "sttsim/util/text.hpp"

// The same generator the test tier uses, so a soak failure is replayable
// as a test case by seed alone.
#include "../tests/trace_util.hpp"

namespace {

using namespace sttsim;

constexpr cpu::Dl1Organization kAllOrgs[] = {
    cpu::Dl1Organization::kSramBaseline, cpu::Dl1Organization::kNvmDropIn,
    cpu::Dl1Organization::kNvmVwb,       cpu::Dl1Organization::kNvmL0,
    cpu::Dl1Organization::kNvmEmshr,     cpu::Dl1Organization::kNvmWriteBuf,
};

struct Job {
  cpu::Dl1Organization org;
  std::uint64_t seed;
  Addr region;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--seeds=N] [--ops=N] [--jobs=N]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 500;
  std::uint64_t ops = 2000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seeds=", 0) == 0) {
      if (!parse_unsigned(arg.c_str() + 8, seeds) || seeds == 0) {
        usage(argv[0]);
      }
    } else if (arg.rfind("--ops=", 0) == 0) {
      if (!parse_unsigned(arg.c_str() + 6, ops) || ops == 0) usage(argv[0]);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      unsigned jobs = 0;
      if (!parse_unsigned(arg.c_str() + 7, jobs)) usage(argv[0]);
      exec::set_default_jobs(jobs);
    } else {
      usage(argv[0]);
    }
  }

  std::vector<Job> jobs;
  for (const auto org : kAllOrgs) {
    for (const Addr region : {4 * kKiB, 96 * kKiB, 512 * kKiB}) {
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        jobs.push_back({org, seed, region});
      }
    }
  }

  std::atomic<std::uint64_t> done{0};
  std::mutex fail_mutex;
  bool failed = false;
  const auto start = std::chrono::steady_clock::now();

  exec::ParallelExecutor pool;
  std::vector<std::future<void>> futures;
  futures.reserve(jobs.size());
  for (const Job& job : jobs) {
    futures.push_back(pool.submit([&, job] {
      {
        std::lock_guard<std::mutex> lock(fail_mutex);
        if (failed) return;  // first divergence wins; drain the rest
      }
      cpu::SystemConfig cfg;
      cfg.organization = job.org;
      const cpu::Trace trace = testutil::random_trace(job.seed, ops, job.region);
      const check::Divergence div = check::run_differential(cfg, trace);
      done.fetch_add(1, std::memory_order_relaxed);
      if (!div.diverged) return;
      std::lock_guard<std::mutex> lock(fail_mutex);
      if (failed) return;
      failed = true;
      std::fprintf(stderr, "DIVERGENCE [%s seed=%llu region=%llu]: %s\n",
                   cpu::to_string(job.org),
                   static_cast<unsigned long long>(job.seed),
                   static_cast<unsigned long long>(job.region),
                   div.detail.c_str());
      const check::MinimizeResult min = check::minimize_trace(cfg, trace);
      const std::string path = check::write_reproducer(
          "repro", std::string("campaign_") + cpu::to_string(job.org), cfg,
          min);
      std::fprintf(stderr, "minimal reproducer: %zu ops -> %s\n",
                   min.trace.size(), path.c_str());
    }));
  }
  for (auto& f : futures) f.get();

  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::uint64_t n = done.load();
  std::printf("oracle campaign: %llu differential runs (%llu ops each), "
              "%.1f s, %.0f runs/s — %s\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(ops), secs,
              secs > 0 ? n / secs : 0.0, failed ? "DIVERGED" : "clean");
  return failed ? 1 : 0;
}
