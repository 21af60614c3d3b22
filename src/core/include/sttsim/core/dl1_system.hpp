// Abstract interface of an L1 data-memory system as seen by the core.
//
// Every DL1 organization in the paper — the SRAM baseline, the drop-in
// STT-MRAM replacement (Fig. 1), the VWB proposal (Section IV), and the
// L0 / EMSHR comparison points (Fig. 8) — implements this interface, so the
// in-order core and the experiment harness are organization-agnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sttsim/mem/l2_system.hpp"
#include "sttsim/mem/set_assoc_cache.hpp"
#include "sttsim/sim/cycle.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/util/bits.hpp"

namespace sttsim::core {

/// Cycle-level timing of one L1 data array.
struct Dl1Timing {
  unsigned tag_cycles = 1;    ///< SRAM tag lookup (tags stay SRAM even in the
                              ///< NVM organization — only the data array is
                              ///< STT-MRAM)
  unsigned read_cycles = 1;   ///< data-array read occupancy/latency
  unsigned write_cycles = 1;  ///< data-array write occupancy/latency
  unsigned banks = 1;         ///< independent data-array banks

  void validate() const;
};

/// Configuration common to all DL1 organizations.
struct Dl1Config {
  mem::CacheGeometry geometry{64 * kKiB, 2, 64};  // paper Section VI / Table I
  Dl1Timing timing;
  unsigned store_buffer_depth = 4;
  unsigned writeback_buffer_depth = 4;  ///< L1->L2 victim buffer

  void validate() const;
};

/// One L1 data-memory organization plus its private timing state.
///
/// Contract: calls arrive in non-decreasing `now` order (the core is
/// in-order). Methods return absolute cycles, never durations.
class Dl1System {
 public:
  virtual ~Dl1System() = default;

  Dl1System(const Dl1System&) = delete;
  Dl1System& operator=(const Dl1System&) = delete;

  /// Issues a load of `size` bytes at `addr`; returns the cycle at which the
  /// data reaches the core (the core stalls until then).
  virtual sim::Cycle load(Addr addr, unsigned size, sim::Cycle now) = 0;

  /// Issues a store; returns the cycle at which the core may proceed
  /// (normally `now + 1` unless the store path backs up).
  virtual sim::Cycle store(Addr addr, unsigned size, sim::Cycle now) = 0;

  /// Non-binding software prefetch hint; never blocks the core.
  virtual void prefetch(Addr addr, sim::Cycle now);

  /// Organization name for reports ("sram-baseline", "nvm-vwb", ...).
  virtual std::string name() const = 0;

  /// The L1 data array (tag/state/wear), for endurance and policy analyses.
  virtual const mem::SetAssocCache& array() const = 0;

  const sim::MemStats& stats() const { return stats_; }

  /// Brings stats() up to date. An organization that counts as it goes
  /// needs nothing here; a decorator over another organization
  /// (reliability::FaultyDl1System) copies that one's counters. The replay
  /// loop calls it at the end of every run and, in an observed run, before
  /// every observer call.
  virtual void sync_stats() {}

  /// Drops all state (contents, timelines, statistics).
  virtual void reset() = 0;

 protected:
  Dl1System() = default;

  sim::MemStats stats_;
};

/// Stamps the end-of-run wear snapshot (reliability counters) onto a
/// MemStats copy about to be returned as part of RunStats. Called by every
/// run loop when it assembles its result — wear is a property of the array,
/// not of the per-access counter stream, so it is sampled once at the end
/// rather than maintained per op (the hot loops stay untouched).
inline void finalize_wear(sim::MemStats& m, const mem::SetAssocCache& array) {
  m.l1_frame_writes_max = array.max_frame_writes();
  m.l1_frame_writes_total = array.total_writes();
}

}  // namespace sttsim::core
