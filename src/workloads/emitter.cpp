#include "sttsim/workloads/emitter.hpp"

#include "sttsim/util/check.hpp"

namespace sttsim::workloads {

Emitter::Emitter(const CodegenOptions& opts) : opts_(opts) {
  if (opts_.vectorize) {
    STTSIM_CHECK(opts_.vector_width >= 2 &&
                 opts_.vector_width * kElem <= 255);
  }
}

Emitter::Emitter(const CodegenOptions& opts, const Counts& counts)
    : Emitter(opts) {
  builder_ = cpu::DecodedTraceBuilder(counts);
}

void Emitter::flush_exec() {
  if (pending_exec_ == 0) return;
  builder_.exec(pending_exec_);
  pending_exec_ = 0;
}

void Emitter::exec(std::uint32_t n) { pending_exec_ += n; }

void Emitter::loop_iter() {
  // Index update, compare/branch and per-iteration addressing; the
  // alignment/branch-hint optimizations fold these into one slot
  // (branchless compare, strength-reduced/unrolled addressing).
  exec(opts_.branch_opts ? 1 : 3);
}

void Emitter::loop_setup() { exec(opts_.branch_opts ? 1 : 3); }

void Emitter::flop(std::uint32_t n) { exec(n); }

void Emitter::load(Addr a, unsigned n_elems) {
  const unsigned size = n_elems * kElem;
  STTSIM_CHECK(size > 0 && size <= 255);
  flush_exec();
  builder_.load(a, static_cast<std::uint8_t>(size));
}

void Emitter::store(Addr a, unsigned n_elems) {
  const unsigned size = n_elems * kElem;
  STTSIM_CHECK(size > 0 && size <= 255);
  flush_exec();
  builder_.store(a, static_cast<std::uint8_t>(size));
}

bool Emitter::first_in_line(Addr a, unsigned bytes) {
  // True when [a, a+bytes) begins a new stream line, i.e. the previous
  // access of a unit-stride walk lived in the preceding line.
  return (a & (kStreamLineBytes - 1)) < bytes;
}

void Emitter::stream_load(Addr a, unsigned n_elems) {
  const unsigned bytes = n_elems * kElem;
  if (opts_.prefetch && first_in_line(a, bytes)) {
    prefetch(a + opts_.prefetch_distance_bytes);
  }
  load(a, n_elems);
}

void Emitter::stream_store(Addr a, unsigned n_elems) {
  const unsigned bytes = n_elems * kElem;
  if (opts_.prefetch && first_in_line(a, bytes)) {
    prefetch(a + opts_.prefetch_distance_bytes);
  }
  store(a, n_elems);
}

void Emitter::prefetch(Addr a) {
  if (!opts_.prefetch) return;
  flush_exec();
  builder_.prefetch(a);
}

Emitter::Counts Emitter::counts() {
  STTSIM_CHECK(!builder_.filling());
  flush_exec();
  return builder_.counts();
}

cpu::DecodedTrace Emitter::take_decoded() {
  flush_exec();
  return builder_.take();
}

}  // namespace sttsim::workloads
