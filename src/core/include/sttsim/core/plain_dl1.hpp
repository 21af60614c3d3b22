// Conventional L1 D-cache organization (no intermediate buffer).
//
// Instantiated twice in the paper's study:
//  * SRAM baseline  — Table I column 1, 1-cycle read/write at 1 GHz;
//  * drop-in NVM    — Table I column 2, 4-cycle read / 2-cycle write, which
//    produces the ~54% average penalty of Fig. 1.
//
// Tags are SRAM in both cases (1-cycle miss detection); the configured
// read/write cycles apply to the data array only. Write-back, write-allocate;
// stores retire through a small store buffer; dirty victims retire through a
// writeback buffer into the shared L2 system.
#pragma once

#include <algorithm>

#include "sttsim/core/dl1_system.hpp"
#include "sttsim/mem/fill_buffer.hpp"
#include "sttsim/mem/write_buffer.hpp"
#include "sttsim/sim/resource.hpp"

namespace sttsim::core {

class PlainDl1System final : public Dl1System {
 public:
  /// `l2` is shared with no ownership transfer; it must outlive this object.
  PlainDl1System(std::string name, const Dl1Config& config,
                 mem::L2System* l2);

  sim::Cycle load(Addr addr, unsigned size, sim::Cycle now) override;
  sim::Cycle store(Addr addr, unsigned size, sim::Cycle now) override;
  /// Software prefetch pulls the line from L2 into the cache in the
  /// background (hides L2/memory latency — the only latency a conventional
  /// organization can hide; array hits remain on the critical path).
  void prefetch(Addr addr, sim::Cycle now) override;
  std::string name() const override { return name_; }
  const mem::SetAssocCache& array() const override { return array_; }
  void reset() override;

  const Dl1Config& config() const { return cfg_; }

  /// log2 of the access granularity (one DL1 line) — the granule the
  /// replay loop (cpu::replay) spans accesses over.
  unsigned granule_shift() const { return log2_exact(cfg_.geometry.line_bytes); }

  /// Single-granule entries for the replay fast path. Precondition: the
  /// access lies within one line (replay checks the precomputed span and
  /// falls back to load()/store() otherwise). Semantically identical to
  /// load()/store() with a single-line access.
  sim::Cycle load_single(Addr addr, sim::Cycle now) {
    stats_.loads += 1;
    return load_line(addr, now);
  }
  sim::Cycle store_single(Addr addr, sim::Cycle now) {
    stats_.stores += 1;
    const sim::Cycle slot = store_buffer_.accept(now);
    const sim::Cycle done = drain_store(addr, slot);
    store_buffer_.commit(done);
    return slot > now ? slot : now + 1;
  }

  /// Test hook: whether the line containing `addr` is resident.
  bool contains(Addr addr) const { return array_.probe(addr); }

 private:
  /// Serves one line-granular load; returns the data-ready cycle. The array
  /// hit — the overwhelmingly common case — is fully inline (branchless tag
  /// probe, busy-until bank grant); misses take the out-of-line L2 path.
  sim::Cycle load_line(Addr addr, sim::Cycle now) {
    const Addr line = array_.line_addr(addr);
    // SRAM tag lookup determines hit/miss.
    const sim::Cycle tag_done = now + cfg_.timing.tag_cycles;
    if (array_.access(line, /*is_write=*/false)) {
      stats_.l1_read_hits += 1;
      // Data-array access overlaps the tag lookup (parallel tag/data read,
      // as in the A9's L1): data is ready when the array read completes. A
      // line whose prefetch is still arriving from L2 is usable on arrival.
      const sim::Cycle pending = fills_.consume(line);
      const sim::Grant g = banks_.acquire(line, now, cfg_.timing.read_cycles);
      stats_.l1_array_reads += 1;
      stats_.bank_conflict_cycles += g.start - now;
      return std::max({g.done, tag_done, pending});
    }
    return load_miss(line, tag_done);
  }
  /// Out-of-line L2 fetch + allocate for a demand load miss.
  sim::Cycle load_miss(Addr line, sim::Cycle tag_done);
  /// Fills every L1 line covered by the L2 line fetched for `line`.
  void fill_l2_span(Addr line, sim::Cycle data);
  /// Drains one line-granular store beginning no earlier than `start`.
  /// Write hits drain inline; write misses take the out-of-line path.
  sim::Cycle drain_store(Addr addr, sim::Cycle start) {
    const Addr line = array_.line_addr(addr);
    const sim::Cycle tag_done = start + cfg_.timing.tag_cycles;
    if (array_.access(line, /*is_write=*/true)) {
      stats_.l1_write_hits += 1;
      const sim::Cycle pending = fills_.consume(line);
      const sim::Cycle earliest = std::max(tag_done, pending);
      const sim::Grant g =
          banks_.acquire(line, earliest, cfg_.timing.write_cycles);
      stats_.l1_array_writes += 1;
      stats_.bank_conflict_cycles += g.start - earliest;
      return g.done;
    }
    return store_miss(line, tag_done);
  }
  /// Out-of-line write-allocate for a store miss.
  sim::Cycle store_miss(Addr line, sim::Cycle tag_done);
  /// Handles a (possibly dirty) victim produced by a fill.
  void retire_victim(const mem::FillOutcome& victim, sim::Cycle now);

  std::string name_;
  Dl1Config cfg_;
  mem::L2System* l2_;
  mem::SetAssocCache array_;
  sim::BankSet banks_;
  mem::FillBuffer fills_;  ///< in-flight prefetch arrivals
  mem::WriteBuffer store_buffer_;
  mem::WriteBuffer writeback_buffer_;
};

}  // namespace sttsim::core
