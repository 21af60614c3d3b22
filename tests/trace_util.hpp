// Shared test utility: deterministic random trace generation.
//
// Used by the property ("fuzz") tests and the differential-oracle campaign so
// both exercise the same op mix: scalar loads/stores, 32-byte wide loads,
// 16-byte vector loads/stores, sub-word accesses at misaligned-within-line
// addresses, prefetch hints and exec bundles. Every store carries a nonzero
// deterministic payload (cpu::assign_store_values) so the data-content shadow
// can distinguish stale data from never-written data.
#pragma once

#include "sttsim/cpu/trace.hpp"
#include "sttsim/util/rng.hpp"

namespace sttsim::testutil {

/// Deterministic random trace of `ops` operations over the address range
/// [0x10000, 0x10000 + region_bytes). Mix (percent): 24 scalar loads,
/// 8 vector (16 B) loads, 8 wide (32 B) loads, 10 misaligned sub-word loads,
/// 11 scalar stores, 7 vector (16 B) stores, 7 misaligned sub-word stores,
/// 10 prefetches, 15 exec bundles. Misaligned accesses stay inside one
/// 8-byte word, so they never straddle a cache line on any organization.
inline cpu::Trace random_trace(std::uint64_t seed, std::size_t ops,
                               Addr region_bytes) {
  Rng rng(seed);
  cpu::Trace t;
  t.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t dice = rng.next_below(100);
    const Addr word = align_down(rng.next_below(region_bytes), 8) + 0x10000;
    if (dice < 40) {
      // Aligned loads: scalar (8 B), vector (16 B) and wide (32 B).
      t.push_back(
          cpu::make_load(word, dice < 8 ? 32u : (dice < 16 ? 16u : 8u)));
    } else if (dice < 50) {
      // Misaligned-within-line sub-word load (1/2/4 B at any offset that
      // keeps the access inside the 8-byte word).
      const unsigned size = 1u << rng.next_below(3);
      t.push_back(cpu::make_load(word + rng.next_below(9 - size), size));
    } else if (dice < 68) {
      t.push_back(cpu::make_store(word, dice < 57 ? 16u : 8u));
    } else if (dice < 75) {
      const unsigned size = 1u << rng.next_below(3);
      t.push_back(cpu::make_store(word + rng.next_below(9 - size), size));
    } else if (dice < 85) {
      t.push_back(cpu::make_prefetch(word));
    } else {
      t.push_back(
          cpu::make_exec(1 + static_cast<std::uint32_t>(rng.next_below(6))));
    }
  }
  cpu::assign_store_values(t, seed);
  return t;
}

/// `trace` with every store payload zeroed: what reassemble(decode(trace))
/// gives back, since decoded traces carry no payloads.
inline cpu::Trace without_payloads(cpu::Trace trace) {
  for (cpu::TraceOp& op : trace) op.value = 0;
  return trace;
}

}  // namespace sttsim::testutil
