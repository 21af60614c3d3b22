// Shared command-line handling for the figure benches.
//
// Usage of every fig binary:
//   figN [--csv] [--kernels=a,b,c] [--jobs=N] [--store=PATH] [--no-store]
//        [--trace-store=PATH] [--no-trace-store] [--deadline=SECS]
// With no arguments the full 14-kernel suite is run and a fixed-width table
// (matching the paper figure's bars, plus the AVERAGE bar) is printed.
// --jobs sets the worker-pool width of the parallel experiment engine
// (default: one per hardware thread; --jobs=1 is the serial path).
// --store=PATH opens (creating if absent) the persistent result store:
// previously simulated grid points are read back instead of re-simulated,
// new points are appended. The STTSIM_RESULT_STORE environment variable
// supplies a default path; --no-store ignores it for one run. Results are
// byte-identical with or without a store.
// --trace-store=PATH opens (creating if absent) the persistent
// compressed-trace store: kernel traces generated by a previous run are
// deserialized from disk instead of re-synthesized (a fully warm run
// generates zero traces), new traces are appended. The STTSIM_TRACE_STORE
// environment variable supplies a default path; --no-trace-store ignores it
// for one run. Figure outputs are byte-identical cold vs warm vs disabled.
// --deadline=SECS gives each grid a wall-clock budget: points that have not
// started when it expires are skipped and reported timed-out; started
// points always finish (0 = none, the default). Every bench installs the
// graceful SIGINT handler: after the first Ctrl-C, in-flight points finish
// (and stay persisted in the store, so a re-run resumes where it left off)
// and the rest are skipped; a second Ctrl-C kills the process.
// --jobs and --deadline take numbers, read by the strict parsers the sttsim
// CLI shares (util/text.hpp); a malformed value, like an unknown flag,
// prints the usage line and exits 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/request.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/trace_store.hpp"
#include "sttsim/report/figure.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/util/text.hpp"

namespace sttsim::benchcli {

struct Options {
  bool csv = false;
  std::vector<std::string> kernels;
  unsigned jobs = 0;   ///< 0 = hardware_concurrency
  std::string store;   ///< result-store path; "" = memoization disabled
  std::string trace_store;  ///< trace-store path; "" = persistence disabled
  double deadline_s = 0.0;  ///< wall-clock budget per grid; 0 = none
};

/// Opens (creating if needed) the persistent result store at `path` and
/// registers it process-wide; every subsequent run_kernel/run_grid call
/// probes it. The store object lives until process exit.
inline void open_result_store(const std::string& path) {
  static std::unique_ptr<exec::ResultStore> holder;
  holder = std::make_unique<exec::ResultStore>(path, sim::kRunStatsBytes);
  exec::set_result_store(holder.get());
}

/// Same for the persistent compressed-trace store: registered process-wide,
/// probed by every TraceCache miss. The blob content version is the trace
/// format version, so a format bump re-initializes old files.
inline void open_trace_store(const std::string& path) {
  static std::unique_ptr<exec::TraceStore> holder;
  holder = std::make_unique<exec::TraceStore>(path, cpu::kTraceFormatVersion);
  exec::set_trace_store(holder.get());
}

/// Appends the non-empty names of a comma-separated list to `out`.
inline void append_names(const std::string& list,
                         std::vector<std::string>& out) {
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t comma = list.find(',', pos);
    const std::string name =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!name.empty()) out.push_back(name);
    pos = comma == std::string::npos ? comma : comma + 1;
  }
}

[[noreturn]] inline void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--csv] [--kernels=a,b,c] [--jobs=N] "
               "[--store=PATH] [--no-store] "
               "[--trace-store=PATH] [--no-trace-store] "
               "[--deadline=SECS]\n",
               argv0);
  std::exit(2);
}

inline Options parse(int argc, char** argv) {
  Options o;
  bool no_store = false;
  bool no_trace_store = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      o.csv = true;
    } else if (arg == "--no-store") {
      no_store = true;
    } else if (arg == "--no-trace-store") {
      no_trace_store = true;
    } else if (arg.rfind("--store=", 0) == 0) {
      o.store = arg.substr(8);
    } else if (arg.rfind("--trace-store=", 0) == 0) {
      o.trace_store = arg.substr(14);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!parse_unsigned(arg.c_str() + 7, o.jobs)) usage(argv[0]);
    } else if (arg.rfind("--deadline=", 0) == 0) {
      if (!parse_finite(arg.c_str() + 11, o.deadline_s)) usage(argv[0]);
    } else if (arg.rfind("--kernels=", 0) == 0) {
      append_names(arg.substr(10), o.kernels);
    } else {
      usage(argv[0]);
    }
  }
  if (o.store.empty() && !no_store) {
    if (const char* env = std::getenv("STTSIM_RESULT_STORE");
        env != nullptr && *env != '\0') {
      o.store = env;
    }
  }
  if (no_store) o.store.clear();
  if (o.trace_store.empty() && !no_trace_store) {
    if (const char* env = std::getenv("STTSIM_TRACE_STORE");
        env != nullptr && *env != '\0') {
      o.trace_store = env;
    }
  }
  if (no_trace_store) o.trace_store.clear();
  exec::set_default_jobs(o.jobs);
  exec::set_default_request(exec::CampaignRequest{o.deadline_s});
  exec::install_interrupt_handler();
  if (!o.store.empty()) open_result_store(o.store);
  if (!o.trace_store.empty()) open_trace_store(o.trace_store);
  return o;
}

inline int print_figure(const report::FigureData& fig, const Options& o) {
  std::fputs(o.csv ? report::render_csv(fig).c_str()
                   : report::render(fig).c_str(),
             stdout);
  return 0;
}

/// Parses flags, runs the bench body, and turns campaign errors into clean
/// exits instead of std::terminate: an interrupted campaign (first Ctrl-C
/// drains, completed points are persisted) exits 130 like a shell SIGINT,
/// any other error — a failed grid point, a result-store open diagnostic —
/// prints and exits 1.
template <typename Body>
int guarded_main(int argc, char** argv, Body body) {
  try {
    return body(parse(argc, argv));
  } catch (const exec::CampaignInterrupted& e) {
    std::fprintf(stderr, "sttsim: %s\n", e.what());
    return 130;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sttsim: %s\n", e.what());
    return 1;
  }
}

}  // namespace sttsim::benchcli
