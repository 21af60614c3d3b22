// MSHR fill registers with persistent contents.
//
// Software prefetches in the VWB organization do not allocate into the VWB
// at issue time (a 2-line buffer would thrash under multi-stream prefetch);
// instead the prefetched NVM/L2 read deposits its line into an MSHR fill
// register, and the demand access's VWB promotion completes from the
// register. This is the same "MSHRs that keep serving data" idea as the
// authors' DATE'14 EMSHR, applied to the prefetch path.
//
// Entries persist until consumed by a demand access, invalidated by a store
// or an L1 eviction, or displaced (LRU) by a newer prefetch.
//
// The replay hot path consults this buffer on every L1 hit; traces without
// prefetches keep it empty, so lookup/consume/invalidate are header-inline
// and short-circuit on a live-entry counter before scanning any slot. They
// return the data-ready cycle, with 0 meaning "absent", as Mshr::lookup
// does: a deposited line's data never arrives at cycle 0. The line
// addresses sit in their own packed array, with a sentinel marking a free
// slot (as SetAssocCache stores its tags), so a scan reads one word per
// entry and stops at the match.
#pragma once

#include <cstdint>
#include <vector>

#include "sttsim/sim/cycle.hpp"
#include "sttsim/util/bits.hpp"

namespace sttsim::mem {

class FillBuffer {
 public:
  explicit FillBuffer(unsigned entries);

  /// Deposits `line` with its data arriving at `ready`; displaces the LRU
  /// entry if full. A duplicate insert refreshes the existing entry.
  /// Preconditions: ready != 0 (lookup's "absent"), and `line` is
  /// line-aligned (it cannot equal the free-slot sentinel).
  void insert(Addr line, sim::Cycle ready);

  /// Non-destructive lookup: the data-ready cycle if the line is present,
  /// otherwise 0.
  sim::Cycle lookup(Addr line) const {
    const std::ptrdiff_t i = find(line);
    return i < 0 ? 0 : ready_[static_cast<std::size_t>(i)];
  }

  /// Consumes the entry (demand access moved the data out); returns the
  /// data-ready cycle, or 0 if absent.
  sim::Cycle consume(Addr line) {
    const std::ptrdiff_t i = find(line);
    if (i < 0) return 0;
    lines_[static_cast<std::size_t>(i)] = kFree;
    live_ -= 1;
    return ready_[static_cast<std::size_t>(i)];
  }

  /// Drops the entry if present (store made it stale / L1 evicted the line).
  void invalidate(Addr line) { consume(line); }

  unsigned occupancy() const { return live_; }
  unsigned capacity() const { return static_cast<unsigned>(lines_.size()); }

  void reset();

 private:
  /// Free slots hold this line address. Real lines are line-aligned, so
  /// their low bits are zero and none can equal it.
  static constexpr Addr kFree = ~Addr{0};

  /// Slot holding `line`, or -1; lines are unique, so the first match is
  /// the only one.
  std::ptrdiff_t find(Addr line) const {
    if (live_ == 0) return -1;
    const Addr* l = lines_.data();
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (l[i] == line) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  }

  std::vector<Addr> lines_;         ///< kFree when the slot is empty
  std::vector<sim::Cycle> ready_;   ///< data-ready cycle per slot
  std::vector<std::uint64_t> lru_;  ///< insert stamp; larger = newer
  std::uint64_t clock_ = 0;
  unsigned live_ = 0;  ///< number of occupied slots
};

}  // namespace sttsim::mem
