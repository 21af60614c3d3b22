// Trace-rewriting optimization passes.
//
// The primary path for the paper's Section V transformations is codegen-time
// (workloads::CodegenOptions), matching the paper's compile-time intrinsics.
// These passes provide the *automated* equivalent the paper's conclusion
// calls for ("a systematic approach is being looked into"): they rewrite an
// already-generated trace, so they can optimize workloads whose source-level
// generator is not available. They are also the substrate of the ablation
// artifacts.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sttsim/cpu/trace.hpp"
#include "sttsim/xform/stride.hpp"

namespace sttsim::xform {

struct PassStats {
  std::string pass;
  std::uint64_t ops_before = 0;
  std::uint64_t ops_after = 0;
  std::uint64_t ops_inserted = 0;
  std::uint64_t ops_merged = 0;   ///< removed by fusion
  std::uint64_t ops_reduced = 0;  ///< exec instructions shaved
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  /// Rewrites `trace`, returning the new trace and filling `stats`.
  virtual cpu::Trace run(const cpu::Trace& trace, PassStats& stats) = 0;
};

/// Inserts software prefetches `distance_bytes` ahead of confirmed
/// constant-stride load streams, at most one per DL1 line entered.
class PrefetchInsertionPass final : public Pass {
 public:
  explicit PrefetchInsertionPass(std::uint64_t distance_bytes = 192,
                                 std::uint64_t line_bytes = 64,
                                 unsigned confirm_threshold = 3);
  std::string name() const override { return "prefetch-insertion"; }
  cpu::Trace run(const cpu::Trace& trace, PassStats& stats) override;

 private:
  std::uint64_t distance_bytes_;
  std::uint64_t line_bytes_;
  unsigned confirm_threshold_;
};

/// Fuses runs of adjacent same-kind accesses at consecutive addresses into
/// wide (vector) accesses of up to `max_elems` elements, folding the per-lane
/// exec work. Models post-hoc SLP-style vectorization.
class VectorPackingPass final : public Pass {
 public:
  explicit VectorPackingPass(unsigned max_elems = 4, unsigned elem_bytes = 8);
  std::string name() const override { return "vector-packing"; }
  cpu::Trace run(const cpu::Trace& trace, PassStats& stats) override;

 private:
  unsigned max_elems_;
  unsigned elem_bytes_;
};

/// Removes loads of addresses whose value is provably still live in a
/// register: a load of [a, a+size) is redundant if the same range was loaded
/// (or stored) within the last `register_window` memory ops with no
/// intervening store overlapping it. Models compiler register reuse /
/// redundant-load elimination — particularly valuable on NVM, where every
/// eliminated load saves a long array read.
class RedundantLoadPass final : public Pass {
 public:
  explicit RedundantLoadPass(unsigned register_window = 16);
  std::string name() const override { return "redundant-load-elim"; }
  cpu::Trace run(const cpu::Trace& trace, PassStats& stats) override;

 private:
  unsigned register_window_;
};

/// Shaves one instruction from every small exec bundle (<= `threshold`),
/// modelling branch-probability hints, alignment and branchless selects on
/// loop overhead.
class BranchOverheadPass final : public Pass {
 public:
  explicit BranchOverheadPass(std::uint32_t threshold = 2);
  std::string name() const override { return "branch-overhead"; }
  cpu::Trace run(const cpu::Trace& trace, PassStats& stats) override;

 private:
  std::uint32_t threshold_;
};

/// Runs a pipeline of passes in order, collecting per-pass statistics.
class PassManager {
 public:
  PassManager& add(std::unique_ptr<Pass> pass);
  cpu::Trace run(cpu::Trace trace);
  const std::vector<PassStats>& stats() const { return stats_; }

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<PassStats> stats_;
};

}  // namespace sttsim::xform
