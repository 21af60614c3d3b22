// Microbenchmark for the replay engine, self-checking.
//
//   replay    System::run of the suite's gemm trace, under `none` and `all`
//             codegen, on every organization's default system and on a
//             faulted nvm-vwb (1e5 ppm): host ns per trace op, min and
//             median over the repetitions
//   generate  synthesis of the same two traces (Kernel::generate_decoded):
//             host ns per emitted op, min and median over the repetitions
//   cursor    CompressedCursor streaming decode of the compressed gemm
//             trace (the trace store's decode path)
//
// Each replay must reproduce its first repetition's cycle count, each
// generation its first repetition's op count, and the cursor pass is
// checked against the decoded trace it was compressed from: a mismatch
// prints both values and exits 1.
//
// Usage: replay_micro [--reps=N] [--quick]
//   --reps=N  timing repetitions, N >= 1 (default 5)
//   --quick   replay a 1/8 prefix of each trace, at most 3 reps (same checks)
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/util/text.hpp"
#include "sttsim/workloads/suite.hpp"

namespace {

using sttsim::cpu::Dl1Organization;
using sttsim::workloads::CodegenOptions;

const CodegenOptions kCodegens[] = {CodegenOptions::none(),
                                    CodegenOptions::all()};

/// Wall time of `fn()`, in seconds.
template <typename Fn>
double seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Accumulator the timed loops feed so their work cannot be optimized away;
// printed once at the end (also a cheap cross-run determinism witness).
std::uint64_t g_sink = 0;

struct ReplayPoint {
  std::string label;
  sttsim::cpu::SystemConfig config;
};

std::vector<ReplayPoint> replay_points() {
  std::vector<ReplayPoint> points;
  for (const Dl1Organization org :
       {Dl1Organization::kSramBaseline, Dl1Organization::kNvmDropIn,
        Dl1Organization::kNvmVwb, Dl1Organization::kNvmL0,
        Dl1Organization::kNvmEmshr, Dl1Organization::kNvmWriteBuf}) {
    points.push_back({sttsim::cpu::to_string(org),
                      sttsim::experiments::make_config(org)});
  }
  ReplayPoint faulted{"nvm-vwb 1e5ppm",
                      sttsim::experiments::make_config(
                          Dl1Organization::kNvmVwb)};
  faulted.config.faults.enabled = true;
  faulted.config.faults.fail_ppm = 100'000;
  points.push_back(faulted);
  return points;
}

/// The first size() / 8 ops of `trace`.
sttsim::cpu::DecodedTrace eighth_of(const sttsim::cpu::DecodedTrace& trace) {
  sttsim::cpu::DecodedTrace prefix;
  for (std::size_t i = 0; i < trace.size() / 8; ++i) {
    prefix.push_back(trace[i]);
  }
  return prefix;
}

void bench_replay(unsigned reps, bool quick) {
  const sttsim::workloads::Kernel& k = sttsim::workloads::find_kernel("gemm");
  std::vector<sttsim::cpu::DecodedTrace> traces;
  for (const CodegenOptions& o : kCodegens) {
    traces.push_back(k.generate_decoded(o));
    if (quick) traces.back() = eighth_of(traces.back());
  }
  std::printf("-- replay: gemm, %zu ops (none) / %zu ops (all); "
              "ns/op, min / median of %u\n",
              traces[0].size(), traces[1].size(), reps);
  std::printf("   %-16s %17s %17s\n", "system", "none", "all");
  for (const ReplayPoint& p : replay_points()) {
    sttsim::cpu::System system(p.config);
    std::printf("   %-16s", p.label.c_str());
    for (const sttsim::cpu::DecodedTrace& trace : traces) {
      std::vector<double> ns_per_op;
      std::uint64_t cycles = 0;
      for (unsigned r = 0; r < reps; ++r) {
        sttsim::sim::RunStats stats;
        const double t = seconds([&] { stats = system.run(trace); });
        if (r == 0) {
          cycles = stats.core.total_cycles;
        } else if (stats.core.total_cycles != cycles) {
          std::fprintf(stderr, "replay MISMATCH %s: %" PRIu64 " vs %" PRIu64
                               " cycles\n", p.label.c_str(),
                       stats.core.total_cycles, cycles);
          std::exit(1);
        }
        ns_per_op.push_back(t / static_cast<double>(trace.size()) * 1e9);
      }
      g_sink += cycles;
      std::printf("   %6.2f / %6.2f",
                  *std::min_element(ns_per_op.begin(), ns_per_op.end()),
                  median(ns_per_op));
    }
    std::printf("\n");
  }
}

void bench_generate(unsigned reps) {
  const sttsim::workloads::Kernel& k = sttsim::workloads::find_kernel("gemm");
  std::printf("-- generate: gemm; ns/op, min / median of %u\n", reps);
  std::printf("   %-16s", "synthesize");
  for (const CodegenOptions& o : kCodegens) {
    std::vector<double> ns_per_op;
    std::size_t ops = 0;
    for (unsigned r = 0; r < reps; ++r) {
      sttsim::cpu::DecodedTrace trace;
      const double t = seconds([&] { trace = k.generate_decoded(o); });
      if (r == 0) {
        ops = trace.size();
      } else if (trace.size() != ops) {
        std::fprintf(stderr, "generate MISMATCH %s: %zu vs %zu ops\n",
                     o.label().c_str(), trace.size(), ops);
        std::exit(1);
      }
      ns_per_op.push_back(t / static_cast<double>(ops) * 1e9);
    }
    g_sink += ops;
    std::printf("   %6.2f / %6.2f",
                *std::min_element(ns_per_op.begin(), ns_per_op.end()),
                median(ns_per_op));
  }
  std::printf("\n");
}

void bench_cursor_decode(unsigned reps) {
  const sttsim::workloads::Kernel& k = sttsim::workloads::find_kernel("gemm");
  const sttsim::cpu::DecodedTrace decoded =
      k.generate_decoded(CodegenOptions::none());
  const sttsim::cpu::CompressedTrace compressed = sttsim::cpu::compress(decoded);
  const double bytes_per_op =
      static_cast<double>(compressed.bytes.size()) /
      static_cast<double>(compressed.op_count);
  // Correctness witness: the streamed cursor must reproduce every op.
  std::uint64_t ref = 0;
  for (std::size_t c = 0; c < decoded.chunk_count(); ++c) {
    for (const sttsim::cpu::DecodedOp& op : decoded.chunk(c)) {
      ref += op.addr + op.count + op.size;
    }
  }
  double best = 1e300;
  for (unsigned r = 0; r < reps; ++r) {
    best = std::min(best, seconds([&] {
      sttsim::cpu::CompressedCursor cur(compressed);
      sttsim::cpu::DecodedOp op;
      std::uint64_t acc = 0;
      while (cur.next(op)) acc += op.addr + op.count + op.size;
      if (acc != ref) {
        std::fprintf(stderr, "cursor MISMATCH acc=%#" PRIx64 " ref=%#" PRIx64
                             "\n", acc, ref);
        std::exit(1);
      }
      g_sink += acc;
    }));
  }
  std::printf(
      "-- cursor: gemm %" PRIu64 " ops, %.2f B/op   %6.1f Mops/s decode\n",
      compressed.op_count, bytes_per_op,
      static_cast<double>(compressed.op_count) / best / 1e6);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--reps=N] [--quick]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  unsigned reps = 5;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--reps=", 0) == 0) {
      if (!sttsim::parse_unsigned(arg.c_str() + 7, reps) || reps == 0) {
        usage(argv[0]);
      }
    } else if (arg == "--quick") {
      quick = true;
    } else {
      usage(argv[0]);
    }
  }
  if (quick) reps = std::min(reps, 3u);
  std::printf("replay_micro: reps=%u\n", reps);
  bench_replay(reps, quick);
  bench_generate(reps);
  bench_cursor_decode(reps);
  std::printf("sink %#" PRIx64 "  OK\n", g_sink);
  return 0;
}
