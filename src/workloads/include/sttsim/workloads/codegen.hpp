// Code-generation options — the paper's Section V transformations.
//
// The paper applies its transformations "manually by the use of intrinsic
// functions" at compile time: loop vectorization, software prefetching of
// critical data/loop arrays into the VWB, and "others" (alignment of loops /
// jumps / pointers, branch-probability hints, branchless inner loops). In
// this reproduction the same knobs steer the trace generators: they change
// the emitted access/op stream exactly as the real flags change the executed
// one.
#pragma once

#include <cstdint>
#include <string>

namespace sttsim::workloads {

/// Doubles per SIMD op (256-bit datapath).
inline constexpr unsigned kVectorWidth = 4;
/// Software-prefetch lookahead: one DL1 line.
inline constexpr std::uint64_t kPrefetchDistanceBytes = 64;

struct CodegenOptions {
  /// Loop vectorization (NEON-like): unit-stride inner loops process
  /// kVectorWidth doubles per operation with one wide load/store.
  bool vectorize = false;

  /// Software prefetch of streaming arrays into the VWB,
  /// kPrefetchDistanceBytes ahead.
  bool prefetch = false;

  /// "Others": alignment, branchless selects, branch-probability hints —
  /// reduces per-iteration loop overhead.
  bool branch_opts = false;

  static CodegenOptions none() { return {}; }
  static CodegenOptions all();
  static CodegenOptions only_vectorize();
  static CodegenOptions only_prefetch();
  static CodegenOptions only_branch_opts();

  /// "base", "vec", "pf", "vec+pf+br", ... for report labels.
  std::string label() const;

  bool operator==(const CodegenOptions&) const = default;
};

}  // namespace sttsim::workloads
