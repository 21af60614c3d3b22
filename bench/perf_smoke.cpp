// Throughput telemetry for the simulator: times (a) a set of paper figures
// regenerated serially (--jobs=1) and on the full worker pool, checking the
// outputs are byte-identical, (b) the single-thread replay microbenchmark —
// every DL1 organization replaying one decoded gemm trace through the
// replay loop instantiated over its concrete class and over the virtual
// core::Dl1System interface (System::run_reference) — and (c) result-store
// and trace-store cold/warm passes. Results go to BENCH_perf.json at the
// repo root — the repo's performance trajectory file, diffed by
// tools/perf_compare.
//
// Usage: perf_smoke [--jobs=N] [--kernels=a,b,c] [--out=FILE] [--quick]
//   --jobs=N     pool width for the parallel pass (default: hardware)
//   --kernels    kernel subset (default: the full suite)
//   --quick      time fig1 only and shorten the replay bench (CI-friendly)
//   --out=FILE   output path (default: BENCH_perf.json at the repo root)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "sttsim/cpu/system.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/exec/trace_store.hpp"
#include "sttsim/experiments/figures.hpp"
#include "sttsim/report/figure.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/util/text.hpp"
#include "sttsim/workloads/kernels.hpp"

namespace {

using namespace sttsim;

struct TimedRun {
  double wall_ms = 0.0;
  exec::TelemetrySnapshot counts;
  std::string csv;
};

struct FigureCase {
  const char* name;
  std::function<report::FigureData(const experiments::KernelFilter&)> make;
};

TimedRun time_figure(const FigureCase& fc,
                     const experiments::KernelFilter& kernels,
                     unsigned jobs) {
  exec::set_default_jobs(jobs);
  auto& telemetry = exec::Telemetry::instance();
  const exec::TelemetrySnapshot before = telemetry.snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  const report::FigureData fig = fc.make(kernels);
  const auto t1 = std::chrono::steady_clock::now();
  TimedRun r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.counts = telemetry.snapshot() - before;
  r.csv = report::render_csv(fig);
  return r;
}

double per_sec(std::uint64_t count, double wall_ms) {
  return wall_ms <= 0.0 ? 0.0 : static_cast<double>(count) / (wall_ms / 1e3);
}

/// Timing for a pass that is idempotent and fully warm (store hits only):
/// one pass takes tens of microseconds, so a single shot is at the mercy of
/// one page fault or scheduler hiccup. Each rep times `iters` back-to-back
/// passes in one region — long enough that a preemption is a fraction of
/// the window, not a multiple of it — and the best rep's per-pass average
/// is the stable number. Counts and CSV come from an initial single pass.
TimedRun time_figure_batched(const FigureCase& fc,
                             const experiments::KernelFilter& kernels,
                             unsigned jobs, int iters, int reps) {
  TimedRun r = time_figure(fc, kernels, jobs);
  double best_ms = r.wall_ms * iters;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) (void)fc.make(kernels);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (ms < best_ms) best_ms = ms;
  }
  r.wall_ms = best_ms / iters;
  return r;
}

// ---- Replay microbenchmark -------------------------------------------
// One decoded gemm trace, replayed back-to-back on a fresh system per run:
// the same inner loop the experiment grid spends its time in, minus trace
// generation, so the number isolates the per-access hot path.

struct ReplayResult {
  const char* org = "";
  double fast_ops_per_sec = 0.0;
  double ref_ops_per_sec = 0.0;
  bool identical_stats = false;
};

// Best-of-reps: each rep is timed individually and the fastest is kept. On
// a shared host the rep-to-rep spread is dominated by preemption and clock
// noise that only ever slows a rep down, so the minimum is the stable
// estimator of the code's actual cost; a mean smears scheduler noise into
// the trajectory file and triggers spurious perf_compare regressions.
double time_replays(const std::function<void()>& run, unsigned reps) {
  double best = 0.0;
  for (unsigned i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    if (i == 0 || s < best) best = s;
  }
  return best;
}

ReplayResult bench_replay(cpu::Dl1Organization org,
                          const cpu::DecodedTrace& decoded, unsigned fast_reps,
                          unsigned ref_reps) {
  cpu::SystemConfig cfg;
  cfg.organization = org;
  cpu::System system(cfg);

  ReplayResult r;
  r.org = cpu::to_string(org);
  // Field-for-field equality of the two loops (the flat JSON dump covers
  // every core and memory counter).
  const sim::RunStats fast = system.run(decoded);
  const sim::RunStats ref = system.run_reference(decoded);
  r.identical_stats = sim::to_json(fast) == sim::to_json(ref);

  const double ops = static_cast<double>(decoded.size());
  const double fast_s =
      time_replays([&] { system.run(decoded); }, fast_reps);
  const double ref_s =
      time_replays([&] { system.run_reference(decoded); }, ref_reps);
  r.fast_ops_per_sec = fast_s <= 0.0 ? 0.0 : ops / fast_s;
  r.ref_ops_per_sec = ref_s <= 0.0 ? 0.0 : ops / ref_s;
  return r;
}

std::string run_json(const TimedRun& r) {
  // The phase split (generate / decode / replay, summed across worker
  // threads — it can exceed wall_ms on a pool) separates trace synthesis
  // cost from store-decode cost from replay cost, so the trajectory file
  // shows where a cold or warm campaign actually spends its time.
  // trace_wait_ns is the time grid points blocked on a trace another
  // worker was still generating.
  return strprintf(
      "{\"wall_ms\": %.2f, \"simulations\": %llu, \"sims_per_sec\": %.2f, "
      "\"trace_ops\": %llu, \"trace_ops_per_sec\": %.0f, "
      "\"traces_generated\": %llu, \"generate_ms\": %.2f, "
      "\"decode_ms\": %.2f, \"replay_ms\": %.2f, \"memo_hits\": %llu, "
      "\"memo_misses\": %llu, \"tasks_timed_out\": %llu, "
      "\"tasks_cancelled\": %llu, \"trace_wait_ns\": %llu}",
      r.wall_ms, static_cast<unsigned long long>(r.counts.simulations),
      per_sec(r.counts.simulations, r.wall_ms),
      static_cast<unsigned long long>(r.counts.trace_ops),
      per_sec(r.counts.trace_ops, r.wall_ms),
      static_cast<unsigned long long>(r.counts.traces_generated),
      static_cast<double>(r.counts.generate_ns) / 1e6,
      static_cast<double>(r.counts.decode_ns) / 1e6,
      static_cast<double>(r.counts.replay_ns) / 1e6,
      static_cast<unsigned long long>(r.counts.memo_hits),
      static_cast<unsigned long long>(r.counts.memo_misses),
      static_cast<unsigned long long>(r.counts.tasks_timed_out),
      static_cast<unsigned long long>(r.counts.tasks_cancelled),
      static_cast<unsigned long long>(r.counts.trace_wait_ns));
}

}  // namespace

int main(int argc, char** argv) {
  experiments::KernelFilter kernels;
  unsigned jobs = exec::hardware_jobs();
#ifdef STTSIM_REPO_ROOT
  std::string out_path = std::string(STTSIM_REPO_ROOT) + "/BENCH_perf.json";
#else
  std::string out_path = "BENCH_perf.json";
#endif
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      jobs = static_cast<unsigned>(std::strtoul(arg.c_str() + 7, nullptr, 10));
      if (jobs == 0) jobs = exec::hardware_jobs();
    } else if (arg.rfind("--kernels=", 0) == 0) {
      std::string list = arg.substr(10);
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        const std::string name =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!name.empty()) kernels.push_back(name);
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs=N] [--kernels=a,b,c] [--out=FILE] "
                   "[--quick]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<FigureCase> cases{
      {"fig1_dropin_penalty", experiments::fig1_dropin_penalty}};
  if (!quick) {
    cases.push_back({"fig3_vwb_penalty", experiments::fig3_vwb_penalty});
    cases.push_back(
        {"fig5_transformations", experiments::fig5_transformations});
  }

  double serial_total_ms = 0.0;
  double parallel_total_ms = 0.0;
  bool all_identical = true;
  std::string entries;
  for (const FigureCase& fc : cases) {
    const TimedRun serial = time_figure(fc, kernels, 1);
    const TimedRun parallel = time_figure(fc, kernels, jobs);
    const bool identical = serial.csv == parallel.csv;
    all_identical = all_identical && identical;
    serial_total_ms += serial.wall_ms;
    parallel_total_ms += parallel.wall_ms;
    const double speedup =
        parallel.wall_ms <= 0.0 ? 0.0 : serial.wall_ms / parallel.wall_ms;
    if (!entries.empty()) entries += ",\n";
    entries += strprintf(
        "    {\"name\": \"%s\",\n     \"serial\": %s,\n"
        "     \"parallel\": %s,\n     \"speedup\": %.2f,\n"
        "     \"identical_output\": %s}",
        fc.name, run_json(serial).c_str(), run_json(parallel).c_str(),
        speedup, identical ? "true" : "false");
    std::printf("%-22s serial %8.1f ms | x%u %8.1f ms | speedup %.2fx | "
                "%.0f sims/s, %.3g trace-ops/s%s\n",
                fc.name, serial.wall_ms, jobs, parallel.wall_ms, speedup,
                per_sec(parallel.counts.simulations, parallel.wall_ms),
                per_sec(parallel.counts.trace_ops, parallel.wall_ms),
                identical ? "" : "  [OUTPUT MISMATCH]");
  }

  // Replay microbenchmark: all six organizations over one shared decoded
  // trace. Rep counts are fixed (not adaptive) so runs stay comparable.
  const cpu::DecodedTrace gemm_decoded = cpu::decode(
      workloads::gemm(32, 32, 32, workloads::CodegenOptions::none()));
  const unsigned fast_reps = quick ? 24 : 96;
  const unsigned ref_reps = quick ? 8 : 24;
  const cpu::Dl1Organization orgs[] = {
      cpu::Dl1Organization::kSramBaseline, cpu::Dl1Organization::kNvmDropIn,
      cpu::Dl1Organization::kNvmVwb,       cpu::Dl1Organization::kNvmL0,
      cpu::Dl1Organization::kNvmEmshr,     cpu::Dl1Organization::kNvmWriteBuf};
  std::string replay_entries;
  double fast_time_s = 0.0;
  double ref_time_s = 0.0;
  bool all_stats_identical = true;
  for (const cpu::Dl1Organization org : orgs) {
    const ReplayResult r =
        bench_replay(org, gemm_decoded, fast_reps, ref_reps);
    all_stats_identical = all_stats_identical && r.identical_stats;
    const double ops = static_cast<double>(gemm_decoded.size());
    fast_time_s += r.fast_ops_per_sec <= 0.0 ? 0.0 : ops / r.fast_ops_per_sec;
    ref_time_s += r.ref_ops_per_sec <= 0.0 ? 0.0 : ops / r.ref_ops_per_sec;
    const double speedup =
        r.ref_ops_per_sec <= 0.0 ? 0.0 : r.fast_ops_per_sec / r.ref_ops_per_sec;
    if (!replay_entries.empty()) replay_entries += ",\n";
    replay_entries += strprintf(
        "      {\"org\": \"%s\", \"fast_ops_per_sec\": %.0f, "
        "\"reference_ops_per_sec\": %.0f, \"speedup\": %.2f, "
        "\"identical_stats\": %s}",
        r.org, r.fast_ops_per_sec, r.ref_ops_per_sec, speedup,
        r.identical_stats ? "true" : "false");
    std::printf("replay %-14s fast %8.3g ops/s | reference %8.3g ops/s | "
                "x%.2f%s\n",
                r.org, r.fast_ops_per_sec, r.ref_ops_per_sec, speedup,
                r.identical_stats ? "" : "  [STATS MISMATCH]");
  }
  const double agg_ops = static_cast<double>(gemm_decoded.size()) *
                         static_cast<double>(std::size(orgs));
  const double fast_agg = fast_time_s <= 0.0 ? 0.0 : agg_ops / fast_time_s;
  const double ref_agg = ref_time_s <= 0.0 ? 0.0 : agg_ops / ref_time_s;
  const std::string replay_json = strprintf(
      "{\n    \"trace\": \"gemm_32\", \"trace_ops\": %llu,\n"
      "    \"organizations\": [\n%s\n    ],\n"
      "    \"fast_agg_ops_per_sec\": %.0f, \"reference_agg_ops_per_sec\": "
      "%.0f, \"speedup\": %.2f, \"identical_stats\": %s\n  }",
      static_cast<unsigned long long>(gemm_decoded.size()),
      replay_entries.c_str(), fast_agg, ref_agg,
      ref_agg <= 0.0 ? 0.0 : fast_agg / ref_agg,
      all_stats_identical ? "true" : "false");
  all_identical = all_identical && all_stats_identical;

  // ---- Result-store cold/warm section --------------------------------
  // One figure regenerated twice against a fresh on-disk result store: the
  // cold pass simulates everything and appends, the warm pass (store
  // reopened from disk, so persistence — not in-memory caching — is what's
  // measured) must answer every grid point from the store, generate zero
  // traces, and emit byte-identical FigureData. Run at --jobs=1 and
  // --jobs=8: the warm path must be exact at any pool width.
  const std::string store_path = out_path + ".store.tmp";
  const FigureCase& store_case = cases.front();
  std::string store_entries;
  bool store_identical = true;
  for (const unsigned sj : {1u, 8u}) {
    std::remove(store_path.c_str());
    auto store =
        std::make_unique<exec::ResultStore>(store_path, sim::kRunStatsBytes);
    exec::set_result_store(store.get());
    const TimedRun cold = time_figure(store_case, kernels, sj);
    // Reopen: the warm run must be served from the bytes on disk.
    exec::set_result_store(nullptr);
    store =
        std::make_unique<exec::ResultStore>(store_path, sim::kRunStatsBytes);
    exec::set_result_store(store.get());
    const TimedRun warm = time_figure_batched(store_case, kernels, sj, 20, 3);
    exec::set_result_store(nullptr);
    store.reset();
    const bool identical = cold.csv == warm.csv;
    store_identical = store_identical && identical;
    const double speedup =
        warm.wall_ms <= 0.0 ? 0.0 : cold.wall_ms / warm.wall_ms;
    if (!store_entries.empty()) store_entries += ",\n";
    store_entries += strprintf(
        "      {\"jobs\": %u, \"cold\": %s,\n       \"warm\": %s,\n"
        "       \"warm_speedup\": %.2f, \"identical_output\": %s}",
        sj, run_json(cold).c_str(), run_json(warm).c_str(), speedup,
        identical ? "true" : "false");
    std::printf("store  %-14s cold %8.1f ms | warm(x%u) %8.1f ms | "
                "x%.1f | %llu hits / %llu misses%s\n",
                store_case.name, cold.wall_ms, sj, warm.wall_ms, speedup,
                static_cast<unsigned long long>(warm.counts.memo_hits),
                static_cast<unsigned long long>(warm.counts.memo_misses),
                identical ? "" : "  [OUTPUT MISMATCH]");
  }
  std::remove(store_path.c_str());
  const std::string store_json = strprintf(
      "{\n    \"figure\": \"%s\",\n    \"runs\": [\n%s\n    ],\n"
      "    \"identical_output\": %s\n  }",
      store_case.name, store_entries.c_str(),
      store_identical ? "true" : "false");
  all_identical = all_identical && store_identical;

  // ---- Trace-store cold/warm section ---------------------------------
  // One figure regenerated three ways: with trace persistence disabled
  // (the reference), cold against a fresh on-disk trace store (synthesizes
  // and appends every trace), and warm with the store reopened from disk —
  // the warm pass must deserialize every trace (traces_generated == 0) and
  // emit byte-identical FigureData in all three modes.
  const std::string tstore_path = out_path + ".traces.tmp";
  const FigureCase& tstore_case = cases.front();
  std::remove(tstore_path.c_str());
  const TimedRun tdisabled = time_figure(tstore_case, kernels, jobs);
  auto tstore = std::make_unique<exec::TraceStore>(tstore_path,
                                                   cpu::kTraceFormatVersion);
  exec::set_trace_store(tstore.get());
  const TimedRun tcold = time_figure(tstore_case, kernels, jobs);
  // Reopen: the warm run must be served from the bytes on disk.
  exec::set_trace_store(nullptr);
  tstore =
      std::make_unique<exec::TraceStore>(tstore_path, cpu::kTraceFormatVersion);
  exec::set_trace_store(tstore.get());
  const TimedRun twarm = time_figure(tstore_case, kernels, jobs);
  exec::set_trace_store(nullptr);
  tstore.reset();
  std::remove(tstore_path.c_str());
  const bool tstore_identical =
      tdisabled.csv == tcold.csv && tcold.csv == twarm.csv;
  const bool tstore_zero_gen = twarm.counts.traces_generated == 0;
  all_identical = all_identical && tstore_identical && tstore_zero_gen;
  const std::string tstore_json = strprintf(
      "{\n    \"figure\": \"%s\",\n    \"disabled\": %s,\n"
      "    \"cold\": %s,\n    \"warm\": %s,\n"
      "    \"warm_traces_generated\": %llu, \"identical_output\": %s\n  }",
      tstore_case.name, run_json(tdisabled).c_str(), run_json(tcold).c_str(),
      run_json(twarm).c_str(),
      static_cast<unsigned long long>(twarm.counts.traces_generated),
      tstore_identical ? "true" : "false");
  std::printf("traces %-14s off %8.1f ms | cold %8.1f ms | warm %8.1f ms | "
              "%llu generated warm%s%s\n",
              tstore_case.name, tdisabled.wall_ms, tcold.wall_ms,
              twarm.wall_ms,
              static_cast<unsigned long long>(twarm.counts.traces_generated),
              tstore_identical ? "" : "  [OUTPUT MISMATCH]",
              tstore_zero_gen ? "" : "  [WARM REGENERATED]");

  const double total_speedup =
      parallel_total_ms <= 0.0 ? 0.0 : serial_total_ms / parallel_total_ms;
  const std::string json = strprintf(
      "{\n  \"bench\": \"perf_smoke\",\n  \"hardware_jobs\": %u,\n"
      "  \"parallel_jobs\": %u,\n  \"figures\": [\n%s\n  ],\n"
      "  \"replay\": %s,\n"
      "  \"store\": %s,\n"
      "  \"trace_store\": %s,\n"
      "  \"total\": {\"serial_wall_ms\": %.2f, \"parallel_wall_ms\": %.2f, "
      "\"speedup\": %.2f, \"identical_output\": %s}\n}\n",
      exec::hardware_jobs(), jobs, entries.c_str(), replay_json.c_str(),
      store_json.c_str(), tstore_json.c_str(),
      serial_total_ms, parallel_total_ms, total_speedup,
      all_identical ? "true" : "false");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_smoke: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("total speedup %.2fx (serial %.1f ms -> %.1f ms at --jobs=%u); "
              "wrote %s\n",
              total_speedup, serial_total_ms, parallel_total_ms, jobs,
              out_path.c_str());
  return all_identical ? 0 : 1;
}
