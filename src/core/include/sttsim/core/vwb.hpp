// The Very Wide Buffer (VWB) — the paper's central micro-architectural
// structure (Section IV).
//
// An asymmetric register-file organization sitting between the STT-MRAM DL1
// and the datapath: wide toward the memory (whole VWB lines are promoted in
// one wide transfer), narrow toward the core (the post-decode MUX selects
// individual words). Micro-architecturally it is two (by default) lines of
// single-ported cells, each with its own tag, managed fully associatively.
//
// Because one VWB line (1 KBit default) spans multiple DL1 lines (512 bit),
// each VWB line carries per-DL1-line *sector* state: valid, dirty, and the
// cycle at which the sector's promotion read completes (data written into the
// VWB concurrently with delivery to the core — critical-word-first).
//
// This class is purely the buffer's functional + readiness state; the timing
// of promotions/evictions lives in VwbDl1System, which owns the NVM banks.
//
// Storage is flattened for the replay hot path: per-line metadata (base tag,
// LRU) lives in one small contiguous array and all sector state in a second
// flat array, so lookup()/probe() — called for every access in the VWB and
// narrow-front organizations — are header-inline tag scans with no nested
// vector indirection. allocate_line() is header-inline too: it hands each
// dirty victim sector to a caller-supplied callable, which retires it in
// place, so a promotion fills no list whatever the sectors per line.
#pragma once

#include <cstdint>
#include <vector>

#include "sttsim/sim/cycle.hpp"
#include "sttsim/util/bits.hpp"
#include "sttsim/util/check.hpp"

namespace sttsim::core {

struct VwbGeometry {
  unsigned num_lines = 2;          ///< paper: "two lines ... in conjunction"
  std::uint64_t line_bytes = 128;  ///< 1 KBit register file per line
  std::uint64_t sector_bytes = 64; ///< one DL1 line (512 bit)

  std::uint64_t total_bits() const { return num_lines * line_bytes * 8; }
  unsigned sectors_per_line() const {
    return static_cast<unsigned>(line_bytes / sector_bytes);
  }
  void validate() const;
};

/// Result of a lookup.
struct VwbHit {
  bool hit = false;
  bool dirty = false;
  sim::Cycle ready = 0;  ///< promotion completion; 0 when resident since fill
};

class VeryWideBuffer {
 public:
  explicit VeryWideBuffer(const VwbGeometry& geometry);

  const VwbGeometry& geometry() const { return geom_; }

  /// VWB-line-aligned address containing `addr`.
  Addr vline_addr(Addr addr) const { return align_down(addr, geom_.line_bytes); }
  /// Sector-aligned address containing `addr`.
  Addr sector_addr(Addr addr) const {
    return align_down(addr, geom_.sector_bytes);
  }

  /// Checks whether the sector containing `addr` is resident. Updates LRU on
  /// hit (a real access, not a probe).
  VwbHit lookup(Addr addr) {
    VwbHit h;
    const std::ptrdiff_t li = find_line_index(addr);
    if (li < 0) return h;
    const Sector& s = sector_at(li, addr);
    if (!s.valid) return h;
    lru_[static_cast<std::size_t>(li)] = ++lru_clock_;
    h.hit = true;
    h.dirty = s.dirty;
    h.ready = s.ready;
    return h;
  }

  /// Probe without LRU update (for tests and policy decisions).
  VwbHit probe(Addr addr) const {
    VwbHit h;
    const std::ptrdiff_t li = find_line_index(addr);
    if (li < 0) return h;
    const Sector& s = sector_at(li, addr);
    if (!s.valid) return h;
    h.hit = true;
    h.dirty = s.dirty;
    h.ready = s.ready;
    return h;
  }

  /// Marks the (resident) sector containing `addr` dirty — a store absorbed
  /// by the VWB. Precondition: probe(addr).hit.
  void mark_dirty(Addr addr);

  /// Fused probe + mark_dirty for the store hot path: if the sector
  /// containing `addr` is resident, dirties it (with the LRU touch
  /// mark_dirty performs) in the same tag scan and returns true.
  bool try_store_hit(Addr addr) {
    const std::ptrdiff_t li = find_line_index(addr);
    if (li < 0) return false;
    Sector& s = sector_at(li, addr);
    if (!s.valid) return false;
    s.dirty = true;
    lru_[static_cast<std::size_t>(li)] = ++lru_clock_;
    return true;
  }

  /// Allocates (or reuses) the VWB line for `addr`, evicting the LRU line if
  /// every line holds other data. `on_dirty_sector(Addr)` is called with the
  /// address of each dirty sector of the victim, in ascending order; it
  /// must not touch this buffer. Returns the line slot index to fill
  /// sectors into. Runs on every front allocation.
  template <class OnDirtySector>
  unsigned allocate_line(Addr addr, OnDirtySector&& on_dirty_sector) {
    const Addr base = vline_addr(addr);
    // One pass finds, in priority order, an existing mapping, the first
    // invalid slot, and the first-minimum-LRU victim.
    const std::size_t n = bases_.size();
    std::size_t invalid = n;
    std::size_t victim = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Addr b = bases_[i];
      if (b == base) {
        lru_[i] = ++lru_clock_;
        return static_cast<unsigned>(i);
      }
      if (invalid == n && b == kNoBase) invalid = i;
      if (lru_[i] < lru_[victim]) victim = i;
    }
    const std::size_t target = invalid < n ? invalid : victim;
    Sector* sectors = sectors_.data() + target * spl_;
    if (invalid == n) {
      // Evict: surface the victim's dirty sectors to the caller.
      const Addr victim_base = bases_[target];
      for (unsigned i = 0; i < spl_; ++i) {
        if (sectors[i].valid && sectors[i].dirty) {
          on_dirty_sector(victim_base + i * geom_.sector_bytes);
        }
      }
    }
    for (unsigned i = 0; i < spl_; ++i) sectors[i] = Sector{};
    bases_[target] = base;
    lru_[target] = ++lru_clock_;
    return static_cast<unsigned>(target);
  }

  /// Installs the sector containing `addr` into line slot `slot`
  /// (allocated for this address) with promotion completing at `ready`.
  /// Inline: runs once or twice per promotion, right after allocate_line.
  void fill_sector(unsigned slot, Addr addr, sim::Cycle ready) {
    STTSIM_CHECK(slot < bases_.size());
    STTSIM_CHECK(bases_[slot] == vline_addr(addr));
    Sector& s = sector_at(static_cast<std::ptrdiff_t>(slot), addr);
    s.valid = true;
    s.dirty = false;
    s.ready = ready;
  }

  /// Whether the sector containing `addr` is resident in line slot `slot`.
  /// Precondition: slot_maps(slot, addr) — this is the scan-free residency
  /// check for ride-along sectors of a line the caller just allocated.
  bool sector_valid(unsigned slot, Addr addr) const {
    return sectors_[static_cast<std::size_t>(slot) * spl_ +
                    sector_index(addr)]
        .valid;
  }

  /// Invalidates the sector containing `addr` if resident (used when the DL1
  /// evicts the underlying line). Returns true iff the sector was dirty — the
  /// caller must merge its data into the outgoing victim.
  bool invalidate_sector(Addr addr);

  /// Whether line slot `slot` currently maps `addr`'s VWB line.
  bool slot_maps(unsigned slot, Addr addr) const;

  /// Count of resident sectors (diagnostics/tests).
  unsigned resident_sectors() const;

  void reset();

 private:
  struct Sector {
    sim::Cycle ready = 0;
    bool valid = false;
    bool dirty = false;
  };
  /// Sentinel base for invalid lines: real bases are line-aligned
  /// (line_bytes >= sector_bytes >= 2), so all-ones can never match and the
  /// residency scan needs no separate valid check — a line is valid iff its
  /// base differs from kNoBase.
  static constexpr Addr kNoBase = ~Addr{0};

  unsigned sector_index(Addr addr) const {
    return static_cast<unsigned>((addr >> sector_shift_) & (spl_ - 1));
  }
  /// Index of the valid line mapping `addr`'s VWB line, or -1. The bases
  /// live in their own packed array (8 B per line) so the scan touches one
  /// cache line even for the 8-entry L0 front, and it stops at the match,
  /// as SetAssocCache::find_way does. Bases are unique, so the first match
  /// is the only one.
  std::ptrdiff_t find_line_index(Addr addr) const {
    const Addr base = vline_addr(addr);
    const Addr* b = bases_.data();
    const std::size_t n = bases_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (b[i] == base) return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  }
  Sector& sector_at(std::ptrdiff_t line, Addr addr) {
    return sectors_[static_cast<std::size_t>(line) * spl_ + sector_index(addr)];
  }
  const Sector& sector_at(std::ptrdiff_t line, Addr addr) const {
    return sectors_[static_cast<std::size_t>(line) * spl_ + sector_index(addr)];
  }

  VwbGeometry geom_;
  unsigned sector_shift_ = 0;
  unsigned spl_ = 1;  ///< sectors per line (power of two)
  // Structure-of-arrays line metadata (same layout idea as SetAssocCache).
  std::vector<Addr> bases_;          ///< VWB-line base per slot, or kNoBase
  std::vector<std::uint64_t> lru_;   ///< last-use stamp; larger = newer
  std::vector<Sector> sectors_;      ///< flat, line-major
  std::uint64_t lru_clock_ = 0;
};

}  // namespace sttsim::core
