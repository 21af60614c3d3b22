// The paper's proposed organization: STT-MRAM DL1 + Very Wide Buffer
// (Section IV, Fig. 2).
//
// Policies (verbatim from the paper):
//  * Load: the VWB is always checked first. On a VWB miss the NVM DL1 is
//    checked; a DL1 hit is read from the NVM and the whole VWB line is
//    promoted (wide interface). Data evicted from the VWB is stored back into
//    the NVM DL1. On a DL1 miss the line comes from L2 and goes to both the
//    processor and the VWB.
//  * Store: the DL1 block is updated via the VWB only if already present in
//    it; otherwise the store goes directly to the NVM array. Write-back, no
//    write-through; write-allocate in the DL1, no-allocate in the VWB. A
//    small write buffer absorbs evicted blocks on their way to L2.
//  * The NVM array is banked: a demand access and an in-flight promotion
//    conflict (stall the core) only when they target the same bank.
#pragma once

#include "sttsim/core/dl1_system.hpp"
#include "sttsim/core/vwb.hpp"
#include "sttsim/mem/fill_buffer.hpp"
#include "sttsim/mem/write_buffer.hpp"
#include "sttsim/sim/resource.hpp"

namespace sttsim::core {

struct VwbDl1Config {
  Dl1Config dl1;  ///< the NVM array (use Table I STT-MRAM timing)
  VwbGeometry vwb;
  unsigned mshr_entries = 4;  ///< MSHR fill registers: software prefetches
                              ///< deposit lines here and demand promotions
                              ///< consume them (see mem::FillBuffer)

  void validate() const;
};

class VwbDl1System final : public Dl1System {
 public:
  VwbDl1System(std::string name, const VwbDl1Config& config,
               mem::L2System* l2);

  sim::Cycle load(Addr addr, unsigned size, sim::Cycle now) override;
  sim::Cycle store(Addr addr, unsigned size, sim::Cycle now) override;
  void prefetch(Addr addr, sim::Cycle now) override;
  std::string name() const override { return name_; }
  const mem::SetAssocCache& array() const override { return array_; }
  void reset() override;

  const VwbDl1Config& config() const { return cfg_; }
  const VeryWideBuffer& vwb() const { return vwb_; }

  /// log2 of the access granularity (one VWB sector == one DL1 line).
  unsigned granule_shift() const { return log2_exact(cfg_.vwb.sector_bytes); }

  /// Single-granule entries for the replay loop (cpu::replay).
  /// Precondition: the access lies within one sector.
  sim::Cycle load_single(Addr addr, sim::Cycle now) {
    stats_.loads += 1;
    return load_sector(addr, now);
  }
  sim::Cycle store_single(Addr addr, sim::Cycle now) {
    stats_.stores += 1;
    return store_sector(vwb_.sector_addr(addr), now);
  }

  /// Test hooks.
  bool l1_contains(Addr addr) const { return array_.probe(addr); }
  bool l1_dirty(Addr addr) const { return array_.is_dirty(addr); }

 private:
  /// Serves one sector-granular load; returns data-ready cycle. The VWB hit
  /// is fully inline (flat tag scan); a miss promotes out-of-line.
  sim::Cycle load_sector(Addr addr, sim::Cycle now) {
    // The VWB and the (SRAM) DL1 tags are probed in parallel, so a VWB miss
    // starts the NVM array access in the same cycle the lookup began — a
    // VWB miss costs no more than the drop-in organization's read.
    const sim::Cycle lookup_done = now + 1;
    const VwbHit hit = vwb_.lookup(addr);
    if (hit.hit) {
      stats_.front_hits += 1;
      // If the sector is still being promoted, the core waits for it.
      return hit.ready > lookup_done ? hit.ready : lookup_done;
    }
    stats_.front_misses += 1;
    const sim::Cycle ready = promote(addr, now);
    return ready > lookup_done ? ready : lookup_done;
  }
  /// Serves one sector-granular store (`s` sector-aligned); returns the
  /// cycle the store is accepted (>= now + 1). VWB-absorbed stores are
  /// inline; the direct-to-array path is out-of-line.
  sim::Cycle store_sector(Addr s, sim::Cycle now) {
    if (vwb_.try_store_hit(s)) {
      // Absorbed by the VWB (paper: the DL1 is updated via the VWB only
      // when the block is already present). A store into a still-promoting
      // sector does not stall: the single-ported cells latch the store data
      // and the arriving promotion merges around it.
      stats_.front_store_hits += 1;
      return now + 1;
    }
    return store_sector_front_miss(s, now);
  }
  /// Direct update of the NVM array through the store buffer (VWB miss).
  sim::Cycle store_sector_front_miss(Addr s, sim::Cycle now);
  /// Promotes the full VWB line containing `addr` from the DL1/L2.
  /// `demand_addr` identifies the sector whose data the core is waiting for;
  /// returns the cycle that sector is available. `now` is when the promotion
  /// may begin (after the VWB lookup missed).
  sim::Cycle promote(Addr demand_addr, sim::Cycle now);
  /// Fetches a DL1-missing line from L2 and fills the array; returns the
  /// cycle the line data is available at the L1.
  sim::Cycle fill_from_l2(Addr line, sim::Cycle now);
  /// Handles a (possibly dirty) DL1 victim, merging any dirty VWB copy.
  void retire_l1_victim(const mem::FillOutcome& victim, sim::Cycle now);

  std::string name_;
  VwbDl1Config cfg_;
  mem::L2System* l2_;
  mem::SetAssocCache array_;
  VeryWideBuffer vwb_;
  sim::BankSet banks_;
  mem::FillBuffer fills_;
  mem::WriteBuffer store_buffer_;
  mem::WriteBuffer writeback_buffer_;
};

}  // namespace sttsim::core
