// Resource-timeline ("busy-until") timing primitives.
//
// The simulator charges latencies against shared resources (NVM banks, cache
// ports, the store drain port) by tracking when each resource next becomes
// free. This models contention and overlap without a full event queue, which
// is sufficient for an in-order, single-issue core where at most a handful of
// operations are in flight (the paper's platform, Section VI).
#pragma once

#include <cstdint>
#include <vector>

#include "sttsim/sim/cycle.hpp"
#include "sttsim/util/bits.hpp"

namespace sttsim::sim {

/// When a resource request was granted and when it completes.
struct Grant {
  Cycle start = 0;
  Cycle done = 0;
  Cycles duration() const { return done - start; }
};

/// A single serially-reusable resource (e.g. one cache port).
class ResourceTimeline {
 public:
  /// Occupies the resource for `duration` cycles, starting no earlier than
  /// `earliest`. Returns the grant window. (Header-inline: this sits under
  /// every array/bank/port access in the replay hot loop.)
  Grant acquire(Cycle earliest, Cycles duration) {
    Grant g;
    g.start = earliest > busy_until_ ? earliest : busy_until_;
    g.done = g.start + duration;
    busy_until_ = g.done;
    return g;
  }

  /// Cycle at which the resource next becomes free.
  Cycle free_at() const { return busy_until_; }

  /// Forgets all occupancy (fresh simulation).
  void reset() { busy_until_ = 0; }

 private:
  Cycle busy_until_ = 0;
};

/// A set of independently-timed banks addressed by cache-line address.
///
/// The paper simulates "a banked NVM array, so no conflict will exist if both
/// operations target different banks. Otherwise, the processor must be
/// stalled" (Section IV). Bank selection uses the low line-index bits.
class BankSet {
 public:
  /// `num_banks` must be a power of two; `line_bytes` is the interleaving
  /// granularity (one bank services whole lines).
  BankSet(unsigned num_banks, std::uint64_t line_bytes);

  unsigned num_banks() const { return static_cast<unsigned>(banks_.size()); }

  /// Bank index servicing byte address `addr`.
  unsigned bank_of(Addr addr) const {
    return static_cast<unsigned>((addr >> line_shift_) & bank_mask_);
  }

  /// Occupies the bank that services `addr` for `duration` cycles starting no
  /// earlier than `earliest`.
  Grant acquire(Addr addr, Cycle earliest, Cycles duration) {
    return banks_[bank_of(addr)].acquire(earliest, duration);
  }

  /// Cycle at which the bank servicing `addr` becomes free.
  Cycle free_at(Addr addr) const { return banks_[bank_of(addr)].free_at(); }

  void reset();

 private:
  std::vector<ResourceTimeline> banks_;
  unsigned line_shift_;
  unsigned bank_mask_;
};

}  // namespace sttsim::sim
