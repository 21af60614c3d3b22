// Trace emitter — the "compiler back end" of the workload generators.
//
// Kernels call high-level emission helpers; the active CodegenOptions decide
// how they lower:
//  * width()          — 1 without vectorization, vector_width with it;
//  * loop_iter()      — per-iteration index/branch overhead, reduced by the
//                       branch/alignment optimizations ("others");
//  * stream_load/store — unit-stride accesses that additionally drop a
//                       software-prefetch hint at each new DL1-line boundary
//                       when prefetching is enabled (the paper's manual
//                       intrinsics on "critical data and loop arrays").
//
// Consecutive exec cycles are merged into single trace ops to keep traces
// compact.
//
// Emission is direct-to-decoded and runs twice per trace (synthesize()): a
// counting pass through an Emitter that stores nothing measures the exact
// op and store-payload counts, then a fill pass writes packed 16-byte
// DecodedOps — granule spans precomputed — into a cpu::DecodedTrace
// reserved to exactly that size. The cold campaign path never materializes
// a raw TraceOp vector, runs a separate decode() pass, or regrows an op
// vector; legacy consumers (trace_io capture, the oracle, direct kernel
// callers) reassemble the raw trace from the decoded one, byte-identical to
// what the historical TraceOp-building emitter produced.
#pragma once

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/trace.hpp"
#include "sttsim/workloads/codegen.hpp"
#include "sttsim/workloads/data_layout.hpp"

namespace sttsim::workloads {

class Emitter {
 public:
  using Counts = cpu::DecodedTraceBuilder::Counts;

  /// A counting emitter: runs an emission body and stores nothing.
  explicit Emitter(const CodegenOptions& opts);
  /// A filling emitter: writes an emission body's ops into a trace reserved
  /// to exactly `counts` — what a counting pass measured for the same body.
  Emitter(const CodegenOptions& opts, const Counts& counts);

  const CodegenOptions& options() const { return opts_; }

  /// Elements processed per (possibly vector) operation.
  unsigned width() const {
    return opts_.vectorize ? opts_.vector_width : 1;
  }

  /// `n` plain non-memory instructions.
  void exec(std::uint32_t n);

  /// Per-iteration loop overhead (index update, compare, branch).
  void loop_iter();

  /// Loop-entry overhead (trip-count setup, alignment checks).
  void loop_setup();

  /// `n` arithmetic operations (scalar or SIMD — one op either way).
  void flop(std::uint32_t n = 1);

  /// Random-access load/store of `n_elems` doubles.
  void load(Addr a, unsigned n_elems = 1);
  void store(Addr a, unsigned n_elems = 1);

  /// Unit-stride streaming access: same as load/store plus an automatic
  /// prefetch hint `prefetch_distance_bytes` ahead whenever the access is
  /// the first to touch its DL1 line.
  void stream_load(Addr a, unsigned n_elems = 1);
  void stream_store(Addr a, unsigned n_elems = 1);

  /// Explicit software prefetch (no-op unless prefetching is enabled).
  void prefetch(Addr a);

  /// Finishes a counting pass and yields the sizes its fill pass reserves.
  Counts counts();

  /// Finishes a fill pass and yields the packed decoded trace.
  cpu::DecodedTrace take_decoded();

 private:
  /// Granularity at which streaming prefetches are dropped: one hint per
  /// new 64-byte DL1 line entered.
  static constexpr std::uint64_t kStreamLineBytes = 64;

  void flush_exec();
  static bool first_in_line(Addr a, unsigned bytes);

  CodegenOptions opts_;
  cpu::DecodedTraceBuilder builder_;
  std::uint32_t pending_exec_ = 0;
};

/// Synthesizes the trace of one emission body — any callable taking an
/// Emitter& — by running it twice: a counting pass that stores nothing, then
/// a fill pass into a trace reserved to the exact op and store-value counts.
/// Every workload generator produces its trace through here, so no op
/// vector ever reallocates. The body must emit the same sequence on both
/// passes (kernel bodies are pure functions of their sizes and `opts`).
template <typename Body>
cpu::DecodedTrace synthesize(const CodegenOptions& opts, const Body& body) {
  Emitter counter(opts);
  body(counter);
  Emitter filler(opts, counter.counts());
  body(filler);
  return filler.take_decoded();
}

}  // namespace sttsim::workloads
