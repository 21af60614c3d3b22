// Trace emitter — the "compiler back end" of the workload generators.
//
// Kernels call high-level emission helpers; the active CodegenOptions decide
// how they lower:
//  * width()          — 1 without vectorization, kVectorWidth with it;
//  * vloop()          — a unit-stride loop as width()-element chunks and a
//                       scalar epilogue, from one loop body;
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
// Emission is direct-to-decoded and runs once per trace (synthesize()):
// each op is written once, as a packed 16-byte DecodedOp with its granule
// spans precomputed, into a chunked cpu::DecodedTrace. Callers that need
// raw TraceOps take emit(), which reassembles them from the decoded trace.
// The per-op methods are inline: kernel bodies make one call per emitted
// op.
#pragma once

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/trace.hpp"
#include "sttsim/util/check.hpp"
#include "sttsim/workloads/codegen.hpp"
#include "sttsim/workloads/data_layout.hpp"

namespace sttsim::workloads {

// A vector access is one trace op, whose size field is 8 bits.
static_assert(kVectorWidth >= 2 && kVectorWidth * kElem <= 255);

class Emitter {
 public:
  explicit Emitter(const CodegenOptions& opts) : opts_(opts) {}

  const CodegenOptions& options() const { return opts_; }

  /// Elements processed per (possibly vector) operation.
  unsigned width() const { return opts_.vectorize ? kVectorWidth : 1; }

  /// `n` plain non-memory instructions.
  void exec(std::uint32_t n) { pending_exec_ += n; }

  /// Per-iteration loop overhead: index update, compare/branch and
  /// per-iteration addressing. The alignment/branch-hint optimizations fold
  /// these into one slot (branchless compare, strength-reduced/unrolled
  /// addressing).
  void loop_iter() { exec(opts_.branch_opts ? 1 : 3); }

  /// Loop-entry overhead (trip-count setup, alignment checks).
  void loop_setup() { exec(opts_.branch_opts ? 1 : 3); }

  /// `n` arithmetic operations (scalar or SIMD — one op either way).
  void flop(std::uint32_t n = 1) { exec(n); }

  /// Random-access load/store of `n_elems` doubles.
  void load(Addr a, unsigned n_elems = 1) {
    const std::uint8_t size = access_size(n_elems);
    flush_exec();
    builder_.load(a, size);
  }
  void store(Addr a, unsigned n_elems = 1) {
    const std::uint8_t size = access_size(n_elems);
    flush_exec();
    builder_.store(a, size);
  }

  /// Unit-stride streaming access: same as load/store plus an automatic
  /// prefetch hint kPrefetchDistanceBytes ahead whenever the access is the
  /// first to touch its DL1 line.
  void stream_load(Addr a, unsigned n_elems = 1) {
    if (opts_.prefetch && first_in_line(a, n_elems * kElem)) {
      prefetch(a + kPrefetchDistanceBytes);
    }
    load(a, n_elems);
  }
  void stream_store(Addr a, unsigned n_elems = 1) {
    if (opts_.prefetch && first_in_line(a, n_elems * kElem)) {
      prefetch(a + kPrefetchDistanceBytes);
    }
    store(a, n_elems);
  }

  /// Explicit software prefetch (no-op unless prefetching is enabled).
  void prefetch(Addr a) {
    if (!opts_.prefetch) return;
    flush_exec();
    builder_.prefetch(a);
  }

  /// Finishes the emission and yields the packed decoded trace.
  cpu::DecodedTrace take_decoded() {
    flush_exec();
    return builder_.take();
  }

 private:
  /// Granularity at which streaming prefetches are dropped: one hint per
  /// new 64-byte DL1 line entered.
  static constexpr std::uint64_t kStreamLineBytes = 64;

  static std::uint8_t access_size(unsigned n_elems) {
    const unsigned size = n_elems * kElem;
    STTSIM_CHECK(size > 0 && size <= 255);
    return static_cast<std::uint8_t>(size);
  }

  /// True when [a, a+bytes) begins a new stream line, i.e. the previous
  /// access of a unit-stride walk lived in the preceding line.
  static bool first_in_line(Addr a, unsigned bytes) {
    return (a & (kStreamLineBytes - 1)) < bytes;
  }

  void flush_exec() {
    if (pending_exec_ == 0) return;
    builder_.exec(pending_exec_);
    pending_exec_ = 0;
  }

  CodegenOptions opts_;
  cpu::DecodedTraceBuilder builder_;
  std::uint32_t pending_exec_ = 0;
};

/// Synthesizes the trace of one emission body — any callable taking an
/// Emitter& — in one pass. Every workload generator produces its trace
/// through here.
template <typename Body>
cpu::DecodedTrace synthesize(const CodegenOptions& opts, const Body& body) {
  Emitter em(opts);
  body(em);
  return em.take_decoded();
}

/// The raw TraceOps of `body(em, args...)` through synthesize(),
/// reassembled: a kernel body with its sizes (`emit(o, gemm_into, 8, 8, 8)`)
/// or any callable taking just the Emitter&.
template <typename Body, typename... Args>
cpu::Trace emit(const CodegenOptions& opts, const Body& body,
                const Args&... args) {
  return cpu::reassemble(
      synthesize(opts, [&](Emitter& em) { body(em, args...); }));
}

/// A unit-stride loop over [lo, hi) as manual vectorization lowers it:
/// width()-element chunks, then a scalar epilogue. `body(j, w)` emits
/// elements [j, j + w): w is width() for a chunk and 1 in the epilogue, which
/// is the whole loop without vectorization.
template <typename Body>
void vloop(Emitter& em, std::uint64_t lo, std::uint64_t hi, const Body& body) {
  const unsigned w = em.width();
  em.loop_setup();
  std::uint64_t j = lo;
  if (w > 1) {
    for (; j + w <= hi; j += w) {
      em.loop_iter();
      body(j, w);
    }
  }
  for (; j < hi; ++j) {
    em.loop_iter();
    body(j, 1u);
  }
}

}  // namespace sttsim::workloads
