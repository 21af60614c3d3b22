// Microbenchmark for the replay-engine hot primitives, self-checking.
//
//   tag-match   scalar reference mask loop vs util::simd::match_mask_u64
//               over packed tag arrays at the associativities the sweeps
//               exercise (8/16/32/64 ways)
//   vwb-probe   VeryWideBuffer::probe over a resident/absent address mix
//               (the L0/EMSHR front's per-access tag scan)
//   cursor      CompressedCursor streaming decode of the compressed gemm
//               trace (the trace store's decode path)
//
// Every SIMD result is compared against the scalar reference in the same
// run — a mismatch prints the offending probe and exits 1 — on whatever
// backend the build selected (printed in the header line).
//
// Usage: replay_micro [--reps=N] [--quick]
//   --reps=N  best-of-N timing repetitions, N >= 1 (default 5)
//   --quick   smaller probe counts (same checks)
#include <bit>
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
#include "sttsim/util/simd.hpp"
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

/// The pre-SIMD tag compare, kept out of line so the compiler cannot fuse
/// it with the vector path it is being measured against.
[[gnu::noinline]] std::uint64_t scalar_mask(const std::uint64_t* values,
                                            unsigned n, std::uint64_t key) {
  std::uint64_t mask = 0;
  for (unsigned i = 0; i < n; ++i) {
    mask |= static_cast<std::uint64_t>(values[i] == key) << i;
  }
  return mask;
}

// Accumulator the timed loops feed so their work cannot be optimized away;
// printed once at the end (also a cheap cross-run determinism witness).
std::uint64_t g_sink = 0;

bool bench_tag_match(std::mt19937_64& rng, unsigned reps, std::size_t probes) {
  std::printf("-- tag-match: scalar vs simd (%s, %u x u64 lanes)\n",
              sttsim::util::simd::kBackend, sttsim::util::simd::kLanes64);
  bool ok = true;
  for (unsigned assoc : {8u, 16u, 32u, 64u}) {
    // A set's packed tag vector: unique tags plus invalid-way sentinels,
    // like a half-filled wide set mid-sweep.
    std::vector<std::uint64_t> tags(assoc, ~std::uint64_t{0});
    for (unsigned w = 0; w < assoc / 2; ++w) tags[w] = rng() >> 8;
    // Probe keys: half hits (sampled from the tags), half misses.
    std::vector<std::uint64_t> keys(probes);
    for (std::size_t i = 0; i < probes; ++i) {
      keys[i] = (i & 1) ? tags[rng() % assoc] : (rng() >> 8) | 1u;
    }
    for (std::size_t i = 0; i < probes; ++i) {
      const std::uint64_t want = scalar_mask(tags.data(), assoc, keys[i]);
      const std::uint64_t got =
          sttsim::util::simd::match_mask_u64(tags.data(), assoc, keys[i]);
      if (want != got) {
        std::fprintf(stderr,
                     "tag-match MISMATCH assoc=%u key=%#" PRIx64
                     " scalar=%#" PRIx64 " simd=%#" PRIx64 "\n",
                     assoc, keys[i], want, got);
        ok = false;
      }
    }
    const double ts = best_seconds(reps, [&] {
      std::uint64_t acc = 0;
      for (const std::uint64_t key : keys) {
        acc += scalar_mask(tags.data(), assoc, key);
      }
      g_sink += acc;
    });
    const double tv = best_seconds(reps, [&] {
      std::uint64_t acc = 0;
      for (const std::uint64_t key : keys) {
        acc += sttsim::util::simd::match_mask_u64(tags.data(), assoc, key);
      }
      g_sink += acc;
    });
    std::printf(
        "   assoc %2u   scalar %6.2f ns/probe   simd %6.2f ns/probe   "
        "%.2fx\n",
        assoc, ts / static_cast<double>(probes) * 1e9,
        tv / static_cast<double>(probes) * 1e9, ts / tv);
  }
  return ok;
}

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

bool bench_cursor_decode(unsigned reps) {
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
  return true;
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
  std::printf("replay_micro: backend=%s reps=%u\n",
              sttsim::util::simd::kBackend, reps);
  std::mt19937_64 rng(0x5eed);
  bool ok = true;
  ok &= bench_tag_match(rng, reps, probes);
  bench_vwb_probe(rng, reps, probes);
  ok &= bench_cursor_decode(reps);
  std::printf("sink %#" PRIx64 "  %s\n", g_sink, ok ? "OK" : "MISMATCH");
  return ok ? 0 : 1;
}
