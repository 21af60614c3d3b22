// Microbenchmark for the replay-engine hot primitives, self-checking.
//
//   vwb-probe   VeryWideBuffer::probe over a resident/absent address mix
//               (the L0/EMSHR front's per-access tag scan)
//   cursor      CompressedCursor streaming decode of the compressed gemm
//               trace (the trace store's decode path)
//
// The cursor pass is checked against the decoded trace it was compressed
// from in the same run: a mismatch prints both sums and exits 1.
//
// Usage: replay_micro [--reps=N] [--quick]
//   --reps=N  best-of-N timing repetitions, N >= 1 (default 5)
//   --quick   smaller probe counts (same checks)
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "sttsim/core/vwb.hpp"
#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/util/text.hpp"
#include "sttsim/workloads/suite.hpp"

namespace {

using sttsim::Addr;

/// Best-of-`reps` wall time of `fn()`, in seconds.
template <typename Fn>
double best_seconds(unsigned reps, Fn&& fn) {
  double best = 1e300;
  for (unsigned r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// Accumulator the timed loops feed so their work cannot be optimized away;
// printed once at the end (also a cheap cross-run determinism witness).
std::uint64_t g_sink = 0;

void bench_vwb_probe(std::mt19937_64& rng, unsigned reps, std::size_t probes) {
  // A wider-than-default front (16 lines) so the probe exercises the packed
  // match-mask scan rather than the two-entry fast case.
  sttsim::core::VwbGeometry geom;
  geom.num_lines = 16;
  geom.line_bytes = 128;
  geom.sector_bytes = 64;
  sttsim::core::VeryWideBuffer vwb(geom);
  std::vector<sttsim::core::VwbWriteback> wbs;
  constexpr Addr kBase = 0x10000;
  for (unsigned l = 0; l < geom.num_lines; ++l) {
    const Addr line = kBase + l * geom.line_bytes;
    const unsigned slot = vwb.allocate_line(line, wbs);
    for (std::uint64_t s = 0; s < geom.line_bytes; s += geom.sector_bytes) {
      vwb.fill_sector(slot, line + s, 0);
    }
  }
  std::vector<Addr> addrs(probes);
  for (std::size_t i = 0; i < probes; ++i) {
    addrs[i] = (i & 1) ? kBase + (rng() % (geom.num_lines * geom.line_bytes))
                       : kBase + 0x100000 + (rng() & 0xFFFF);
  }
  const double t = best_seconds(reps, [&] {
    std::uint64_t hits = 0;
    for (const Addr a : addrs) hits += vwb.probe(a).hit;
    g_sink += hits;
  });
  std::printf("-- vwb-probe: %u lines   %6.2f ns/probe\n", geom.num_lines,
              t / static_cast<double>(probes) * 1e9);
}

void bench_cursor_decode(unsigned reps) {
  const sttsim::workloads::Kernel& k = sttsim::workloads::find_kernel("gemm");
  const sttsim::workloads::CodegenOptions opts;
  const sttsim::cpu::DecodedTrace decoded =
      k.generate_decoded(opts);
  const sttsim::cpu::CompressedTrace compressed = sttsim::cpu::compress(decoded);
  const double bytes_per_op =
      static_cast<double>(compressed.bytes.size()) /
      static_cast<double>(compressed.op_count);
  // Correctness witness: the streamed cursor must reproduce every op.
  std::uint64_t ref = 0;
  for (const sttsim::cpu::DecodedOp& op : decoded.ops) {
    ref += op.addr + op.count + op.size;
  }
  const double t = best_seconds(reps, [&] {
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
  });
  std::printf(
      "-- cursor: gemm %" PRIu64 " ops, %.2f B/op   %6.1f Mops/s decode\n",
      compressed.op_count, bytes_per_op,
      static_cast<double>(compressed.op_count) / t / 1e6);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [--reps=N] [--quick]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  unsigned reps = 5;
  std::size_t probes = 1u << 16;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--reps=", 0) == 0) {
      if (!sttsim::parse_unsigned(arg.c_str() + 7, reps) || reps == 0) {
        usage(argv[0]);
      }
    } else if (arg == "--quick") {
      probes = 1u << 12;
      reps = std::min(reps, 3u);
    } else {
      usage(argv[0]);
    }
  }
  std::printf("replay_micro: reps=%u\n", reps);
  std::mt19937_64 rng(0x5eed);
  bench_vwb_probe(rng, reps, probes);
  bench_cursor_decode(reps);
  std::printf("sink %#" PRIx64 "  OK\n", g_sink);
  return 0;
}
