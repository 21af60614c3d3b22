// Functional (contents-free) set-associative cache model.
//
// Tracks tags, validity, dirtiness and true-LRU replacement; no data payload
// is stored because the simulator is timing-only. All DL1 organizations and
// the unified L2 in this repository are built on this model.
//
// Hot-path layout: the array is stored structure-of-arrays so the demand
// lookup touches only a packed tag vector (8 B per way; a whole 2-way set's
// tags share one 16 B load). Validity is folded into the tag via a sentinel
// (kInvalidTag), making the per-way compare a single branchless equality.
// probe()/access() are header-inline so every DL1 organization's load/store
// path fuses the tag match into its own hot loop.
#pragma once

#include <cstdint>
#include <vector>

#include "sttsim/util/bits.hpp"

namespace sttsim::mem {

/// Geometry of a set-associative array.
struct CacheGeometry {
  std::uint64_t capacity_bytes = 0;
  unsigned associativity = 1;
  std::uint64_t line_bytes = 64;

  std::uint64_t num_lines() const { return capacity_bytes / line_bytes; }
  std::uint64_t num_sets() const { return num_lines() / associativity; }

  /// Throws ConfigError unless the geometry is realizable
  /// (power-of-two capacity/line, whole number of sets).
  void validate() const;
};

/// Result of a fill (allocation) into the cache.
struct FillOutcome {
  bool victim_valid = false;  ///< a line was evicted
  bool victim_dirty = false;  ///< ... and it needs writing back
  Addr victim_addr = 0;       ///< line-aligned address of the victim
};

/// Tag/state array with true-LRU replacement, write-back semantics.
class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheGeometry& geometry);

  const CacheGeometry& geometry() const { return geom_; }

  /// Line-aligned address containing `addr`.
  Addr line_addr(Addr addr) const { return align_down(addr, geom_.line_bytes); }

  /// True iff the line containing `addr` is present. Does not touch LRU.
  bool probe(Addr addr) const { return find_way(addr) >= 0; }

  /// Demand access: returns hit/miss, promotes the line to MRU on hit and
  /// marks it dirty when `is_write`. A miss changes nothing (callers decide
  /// whether to allocate via fill()).
  bool access(Addr addr, bool is_write) {
    const std::ptrdiff_t i = find_way(addr);
    if (i < 0) return false;
    lru_[static_cast<std::size_t>(i)] = ++lru_clock_;
    if (is_write) {
      dirty_[static_cast<std::size_t>(i)] = 1;
      writes_[static_cast<std::size_t>(i)] += 1;
    }
    return true;
  }

  /// Allocates the line containing `addr`, evicting the LRU way if the set is
  /// full. The new line is MRU and dirty iff `dirty`.
  /// Precondition: the line is not already present.
  FillOutcome fill(Addr addr, bool dirty);

  /// Removes the line if present; returns true iff it was present and dirty
  /// (i.e. the caller owes a writeback).
  bool invalidate(Addr addr);

  /// True iff present and dirty. Does not touch LRU.
  bool is_dirty(Addr addr) const {
    const std::ptrdiff_t i = find_way(addr);
    return i >= 0 && dirty_[static_cast<std::size_t>(i)] != 0;
  }

  /// Marks an already-present line dirty (no LRU update).
  /// Precondition: the line is present.
  void mark_dirty(Addr addr);

  /// Number of currently valid lines (for occupancy assertions in tests).
  std::uint64_t valid_lines() const;

  // -- Wear tracking (endurance studies) -------------------------------
  // Every array write (dirty access, fill, mark_dirty) increments the
  // physical frame's wear counter. Counters survive invalidation and
  // replacement: wear is a property of the cell, not the resident line.

  /// Writes absorbed by the physical frame currently mapped at `addr`'s
  /// set (max over ways if the line is absent).
  std::uint64_t frame_writes(Addr addr) const;
  /// The most-written frame in the array.
  std::uint64_t max_frame_writes() const;
  /// Total writes across all frames.
  std::uint64_t total_writes() const;

  /// Drops all contents (wear counters included).
  void reset();

 private:
  /// Invalid ways hold this tag. Real tags are `addr >> tag_shift_` with
  /// tag_shift_ >= 6, so a 64-bit address can never produce the sentinel.
  static constexpr Addr kInvalidTag = ~Addr{0};

  std::uint64_t set_index(Addr addr) const {
    return (addr >> line_shift_) & set_mask_;
  }
  Addr tag_of(Addr addr) const { return addr >> tag_shift_; }

  /// Flat way index of the resident line containing `addr`, or -1. The
  /// 2-way L1 case compares both tags branchlessly, in one 16 B load's
  /// worth of work; wider sets (the 16-way unified L2, sweep
  /// configurations) scan the packed tag vector up to the match, which
  /// measured no slower than an explicit-SIMD match mask (EXPERIMENTS.md,
  /// "L2 tag match"). Tags are unique within a set: at most one way matches.
  std::ptrdiff_t find_way(Addr addr) const {
    const std::size_t base = set_index(addr) * assoc_;
    const Addr tag = tag_of(addr);
    const Addr* t = tags_.data() + base;
    if (assoc_ == 2) {
      // The L1 arrays are 2-way: compare both ways branchlessly.
      const bool h0 = t[0] == tag;
      const bool h1 = t[1] == tag;
      if (!(h0 | h1)) return -1;
      return static_cast<std::ptrdiff_t>(base + (h0 ? 0 : 1));
    }
    for (unsigned w = 0; w < assoc_; ++w) {
      if (t[w] == tag) return static_cast<std::ptrdiff_t>(base + w);
    }
    return -1;
  }

  CacheGeometry geom_;
  unsigned assoc_ = 1;
  unsigned line_shift_ = 0;
  unsigned tag_shift_ = 0;  ///< line_shift_ + log2(num_sets)
  std::uint64_t set_mask_ = 0;
  // Structure-of-arrays, set-major (way index = set * assoc + way).
  std::vector<Addr> tags_;             ///< kInvalidTag when the way is empty
  std::vector<std::uint64_t> lru_;     ///< last-use stamp; larger = newer
  std::vector<std::uint64_t> writes_;  ///< lifetime wear per physical frame
  std::vector<std::uint8_t> dirty_;
  std::uint64_t lru_clock_ = 0;
};

}  // namespace sttsim::mem
