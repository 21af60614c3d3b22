// In-order, single-issue core model (ARM Cortex-A9-like, 1 GHz), and the
// simulator's one core timing loop.
//
// The paper's system: loads are blocking (the next instruction waits for the
// data — load-to-use distance of one, the conservative case for read
// latency); stores retire through the DL1's store buffer and stall the core
// only when the buffer backs up; prefetches issue in one cycle and never
// block. The instruction side (32 KB SRAM IL1, identical in every
// configuration) is folded into the exec stream.
//
// Every stall cycle is attributed to its cause so that Fig. 4's
// read-vs-write decomposition is measured rather than estimated.
//
// replay<Dl1, Observe> is the only loop that advances the core clock, and
// every caller instantiates it:
//  * cpu::System's figure runs, over the three `final` organization classes
//    (PlainDl1System, VwbDl1System, NarrowFrontDl1System). Member calls
//    resolve statically and inline, and single-granule accesses — the
//    overwhelming majority — take the class's load_single/store_single
//    entry, skipping the first/last-granule loop setup.
//  * Fault-injecting systems, over reliability::FaultyDl1System (also
//    `final`): the decorator's entries resolve statically, and the
//    organization it wraps takes the full virtual load/store.
//  * System::run_reference, over the abstract core::Dl1System: every access
//    takes the full virtual load/store. tests/test_fastpath holds it equal
//    to the other instantiations.
//  * The differential oracle, through System::run_observed: the loop over
//    the same DL1 class, with the same dispatch, that the figures run, plus
//    an observer called after every retired op. The default observer does
//    nothing and compiles away, so the figure runs pay nothing for the
//    hook. Before each observer call the loop brings the DL1's counters up
//    to date (Dl1System::sync_stats: a no-op for the three organization
//    classes); an unobserved run syncs them once, at its end.
#pragma once

#include <concepts>
#include <functional>
#include <span>
#include <type_traits>

#include "sttsim/core/dl1_system.hpp"
#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/sim/stats.hpp"

namespace sttsim::cpu {

/// One retired op, as a replay observer sees it: its index in the trace,
/// the cycle it issued at and the cycle the core could proceed past it.
struct OpEvent {
  std::size_t index = 0;
  sim::Cycle issue = 0;     ///< core time when the op issued
  sim::Cycle complete = 0;  ///< core time after the op retired
};

/// Replay hook (System::run_observed). The differential oracle (src/check)
/// follows a run in lockstep through it.
using OpObserver = std::function<void(const OpEvent&)>;

/// The default observer: does nothing.
struct NoObserver {
  void operator()(const OpEvent&) const {}
};

/// A concrete organization class with single-granule entries.
template <class Dl1>
concept SingleGranuleDl1 = requires(Dl1& dl1, Addr addr, sim::Cycle now) {
  { dl1.granule_shift() } -> std::convertible_to<unsigned>;
  { dl1.load_single(addr, now) } -> std::same_as<sim::Cycle>;
  { dl1.store_single(addr, now) } -> std::same_as<sim::Cycle>;
};

/// Runs `trace` to completion against `dl1` (which accumulates MemStats),
/// calling `observe` after every op, and returns the run statistics. The
/// DL1 is NOT reset first: callers compose warm-up and measured phases if
/// they need to.
template <class Dl1, class Observe = NoObserver>
sim::RunStats replay(const DecodedTrace& trace, Dl1& dl1,
                     Observe observe = {}) {
  // Locals, not references: the counters and the clock must stay in
  // registers across the loop, and through a reference the compiler would
  // have to assume every dl1 stats write might alias them.
  sim::CoreStats core;
  sim::Cycle now = 0;
  unsigned shift = 0;
  if constexpr (SingleGranuleDl1<Dl1>) shift = dl1.granule_shift();
  // Chunk by chunk (DecodedTrace), with `first` the trace index of ops[0].
  for (std::size_t c = 0; c < trace.chunk_count(); ++c) {
    const std::span<const DecodedOp> chunk = trace.chunk(c);
    const DecodedOp* const ops = chunk.data();
    const std::size_t n = chunk.size();
    const std::size_t first = c * kChunkOps;
    for (std::size_t i = 0; i < n; ++i) {
      const DecodedOp& op = ops[i];
      const sim::Cycle issue = now;
      switch (op.kind) {
        case OpKind::kExec: {
          now += op.count;
          core.instructions += op.count;
          core.exec_cycles += op.count;
          break;
        }
        case OpKind::kLoad: {
          core.instructions += 1;
          core.mem_instructions += 1;
          const sim::Cycle issue_done = now + 1;
          sim::Cycle data;
          if constexpr (SingleGranuleDl1<Dl1>) {
            data = decoded_span(op, shift) == 1
                       ? dl1.load_single(op.addr, now)
                       : dl1.load(op.addr, op.size, now);
          } else {
            data = dl1.load(op.addr, op.size, now);
          }
          const sim::Cycle done = data > issue_done ? data : issue_done;
          core.read_stall_cycles += done - issue_done;
          core.exec_cycles += 1;  // the issue cycle itself
          now = done;
          break;
        }
        case OpKind::kStore: {
          core.instructions += 1;
          core.mem_instructions += 1;
          const sim::Cycle issue_done = now + 1;
          sim::Cycle accepted;
          if constexpr (SingleGranuleDl1<Dl1>) {
            accepted = decoded_span(op, shift) == 1
                           ? dl1.store_single(op.addr, now)
                           : dl1.store(op.addr, op.size, now);
          } else {
            accepted = dl1.store(op.addr, op.size, now);
          }
          const sim::Cycle done = accepted > issue_done ? accepted : issue_done;
          core.write_stall_cycles += done - issue_done;
          core.exec_cycles += 1;
          now = done;
          break;
        }
        case OpKind::kPrefetch: {
          core.instructions += 1;
          dl1.prefetch(op.addr, now);
          core.exec_cycles += 1;
          now += 1;
          break;
        }
      }
      if constexpr (!std::is_same_v<Observe, NoObserver>) dl1.sync_stats();
      observe(OpEvent{first + i, issue, now});
    }
  }
  core.total_cycles = now;
  dl1.sync_stats();
  sim::RunStats out;
  out.core = core;
  out.mem = dl1.stats();
  ::sttsim::core::finalize_wear(out.mem, dl1.array());
  return out;
}

}  // namespace sttsim::cpu
