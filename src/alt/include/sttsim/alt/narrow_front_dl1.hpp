// Comparison-point DL1 organizations for Fig. 8: an NVM DL1 fronted by a
// small fully-associative buffer with a *narrow* (conventional-width)
// interface to the memory array.
//
// The paper compares its VWB against "a variation of the commonly used L0
// cache and the Enhanced MSHR presented in [Komalan et al., DATE'14] ...
// made fully associative and [with] the same size (2 KBit) as that of the
// VWB for a fair comparison. However, the given structures are not as wide
// as the VWB and conform to the interface of the regular size memory array."
//
// Both are expressed by one parametric organization that differs from the
// VWB system in two ways:
//  * refills move exactly one front entry (no wide ride-along sectors);
//  * the allocation policy is configurable:
//      - L0 cache:  allocate on every load miss (a filter cache);
//      - EMSHR:     allocate only on DL1 *miss* fills — the enhanced MSHR
//                   retains fill data and keeps serving it afterwards.
#pragma once

#include "sttsim/core/dl1_system.hpp"
#include "sttsim/core/vwb.hpp"
#include "sttsim/mem/mshr.hpp"
#include "sttsim/mem/write_buffer.hpp"
#include "sttsim/sim/resource.hpp"

namespace sttsim::alt {

/// When the front buffer captures a line.
enum class FrontAllocPolicy {
  kOnLoadMiss,  ///< classic L0 / filter cache
  kOnL1Miss,    ///< EMSHR: only DL1-miss fills are retained
  kOnStore,     ///< SRAM write buffer (Sun et al. [2]): absorbs write
                ///< traffic only — the paper's foil for why write-oriented
                ///< mitigation misses the real (read) bottleneck
};

struct NarrowFrontConfig {
  core::Dl1Config dl1;  ///< the NVM array (Table I STT-MRAM timing)
  unsigned front_entries = 8;
  std::uint64_t entry_bytes = 32;  ///< conventional interface width
  FrontAllocPolicy policy = FrontAllocPolicy::kOnLoadMiss;
  unsigned mshr_entries = 4;

  std::uint64_t front_total_bits() const {
    return front_entries * entry_bytes * 8;
  }
  void validate() const;
};

class NarrowFrontDl1System final : public core::Dl1System {
 public:
  NarrowFrontDl1System(std::string name, const NarrowFrontConfig& config,
                       mem::L2System* l2);

  sim::Cycle load(Addr addr, unsigned size, sim::Cycle now) override;
  sim::Cycle store(Addr addr, unsigned size, sim::Cycle now) override;
  void prefetch(Addr addr, sim::Cycle now) override;
  std::string name() const override { return name_; }
  const mem::SetAssocCache& array() const override { return array_; }
  void reset() override;

  const NarrowFrontConfig& config() const { return cfg_; }

  /// log2 of the access granularity (one front entry).
  unsigned granule_shift() const { return log2_exact(cfg_.entry_bytes); }

  /// Single-granule entries for the replay loop (cpu::replay).
  /// Precondition: the access lies within one front entry.
  sim::Cycle load_single(Addr addr, sim::Cycle now) {
    stats_.loads += 1;
    return load_entry(addr, now);
  }
  sim::Cycle store_single(Addr addr, sim::Cycle now) {
    stats_.stores += 1;
    return store_entry(align_down(addr, cfg_.entry_bytes), now);
  }

  /// Test hooks.
  bool front_contains(Addr addr) const { return front_.probe(addr).hit; }
  bool l1_contains(Addr addr) const { return array_.probe(addr); }
  bool l1_dirty(Addr addr) const { return array_.is_dirty(addr); }

 private:
  /// Serves one entry-granular load. The front hit is fully inline (flat
  /// tag scan); a front miss goes to the NVM array / L2 out-of-line.
  sim::Cycle load_entry(Addr addr, sim::Cycle now) {
    // Front and DL1 tags are probed in parallel (both SRAM): a front miss
    // starts the NVM array access in the lookup cycle.
    const sim::Cycle lookup_done = now + 1;
    const core::VwbHit hit = front_.lookup(addr);
    if (hit.hit) {
      stats_.front_hits += 1;
      return hit.ready > lookup_done ? hit.ready : lookup_done;
    }
    // Front miss. The dominant case — no fill in flight, NVM array read
    // hit — stays inline; in-flight merges and L2 fills go out of line
    // (mshr lookup and a missing access() are side-effect-free, so the
    // slow path can simply re-probe).
    const Addr line = array_.line_addr(addr);
    if (mshr_.lookup(line, now) == 0 &&
        array_.access(line, /*is_write=*/false)) {
      stats_.front_misses += 1;
      stats_.l1_read_hits += 1;
      const sim::Grant g =
          banks_.acquire(line, now, cfg_.dl1.timing.read_cycles);
      stats_.l1_array_reads += 1;
      stats_.bank_conflict_cycles += g.start - now;
      if (cfg_.policy == FrontAllocPolicy::kOnLoadMiss) {
        allocate_front(addr, g.done);
      }
      return g.done > lookup_done ? g.done : lookup_done;
    }
    return load_entry_front_miss(addr, now, lookup_done);
  }
  sim::Cycle load_entry_front_miss(Addr addr, sim::Cycle now,
                                   sim::Cycle lookup_done);
  /// Serves one entry-granular store (`s` entry-aligned); returns the cycle
  /// the store is accepted (>= now + 1). Front-absorbed stores are inline.
  sim::Cycle store_entry(Addr s, sim::Cycle now) {
    if (front_.try_store_hit(s)) {
      // Store data latches into the entry; an in-flight fill merges around
      // it (same merge logic as the VWB's single-ported cells).
      stats_.front_store_hits += 1;
      return now + 1;
    }
    return store_entry_front_miss(s, now);
  }
  sim::Cycle store_entry_front_miss(Addr s, sim::Cycle now);
  sim::Cycle fill_from_l2(Addr line, sim::Cycle now);
  void retire_l1_victim(const mem::FillOutcome& victim, sim::Cycle now);
  void allocate_front(Addr addr, sim::Cycle ready);

  std::string name_;
  NarrowFrontConfig cfg_;
  mem::L2System* l2_;
  mem::SetAssocCache array_;
  core::VeryWideBuffer front_;  ///< reused as a FA sectored buffer
  sim::BankSet banks_;
  mem::Mshr mshr_;
  mem::WriteBuffer store_buffer_;
  mem::WriteBuffer writeback_buffer_;
};

/// Convenience factories with the paper's 2 KBit capacity.
NarrowFrontConfig make_l0_config(const core::Dl1Config& dl1);
NarrowFrontConfig make_emshr_config(const core::Dl1Config& dl1);
NarrowFrontConfig make_write_buffer_config(const core::Dl1Config& dl1);

}  // namespace sttsim::alt
