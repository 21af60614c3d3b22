// Pool scaling of the experiment engine: regenerates fig1, fig3 and fig5
// serially (--jobs=1) and on a pool of N workers, and prints for each the
// two wall times, their speedup and trace_wait_ns: the thread time the
// parallel pass's grid points spent blocked on a trace another worker was
// still generating. perfbench (BENCHMARK.json) times whole artifact runs
// and each layer; the tier-1 tests check that output is identical at any
// pool width. No store is opened and no file is written.
//
// Usage: perf_smoke [--jobs=N] [--kernels=a,b,c]
//   --jobs=N     pool width of the parallel pass (default or 0: hardware)
//   --kernels    kernel subset (default: the full suite)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/experiments/artifacts.hpp"
#include "sttsim/util/text.hpp"

namespace {

using namespace sttsim;

struct TimedRun {
  double wall_ms = 0.0;
  std::uint64_t trace_wait_ns = 0;
};

TimedRun time_figure(const experiments::Artifact& artifact,
                     const experiments::KernelFilter& kernels, unsigned jobs) {
  exec::set_default_jobs(jobs);
  auto& telemetry = exec::Telemetry::instance();
  const exec::TelemetrySnapshot before = telemetry.snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  (void)artifact.figure(kernels);
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double, std::milli>(t1 - t0).count(),
          (telemetry.snapshot() - before).trace_wait_ns};
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--jobs=N] [--kernels=a,b,c]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  experiments::KernelFilter kernels;
  unsigned jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      if (!parse_unsigned(arg.c_str() + 7, jobs)) usage(argv[0]);
    } else if (arg.rfind("--kernels=", 0) == 0) {
      for (std::string& name : split(arg.substr(10), ',')) {
        if (!name.empty()) kernels.push_back(std::move(name));
      }
    } else {
      usage(argv[0]);
    }
  }
  if (jobs == 0) jobs = exec::hardware_jobs();

  try {
    for (const char* name :
         {"fig1_dropin_penalty", "fig3_vwb_penalty", "fig5_transformations"}) {
      const experiments::Artifact& artifact = *experiments::find_artifact(name);
      const TimedRun serial = time_figure(artifact, kernels, 1);
      const TimedRun parallel = time_figure(artifact, kernels, jobs);
      std::printf("%-20s serial %8.1f ms | x%u %8.1f ms | speedup %.2fx | "
                  "trace_wait_ns %llu\n",
                  name, serial.wall_ms, jobs, parallel.wall_ms,
                  serial.wall_ms / parallel.wall_ms,
                  static_cast<unsigned long long>(parallel.trace_wait_ns));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_smoke: %s\n", e.what());
    return 1;
  }
  return 0;
}
