#include "sttsim/alt/narrow_front_dl1.hpp"

#include <algorithm>

#include "sttsim/util/check.hpp"

namespace sttsim::alt {

void NarrowFrontConfig::validate() const {
  dl1.validate();
  if (front_entries == 0) throw ConfigError("front must have entries");
  if (!is_pow2(entry_bytes)) {
    throw ConfigError("front entry size must be a power of two");
  }
  if (entry_bytes > dl1.geometry.line_bytes) {
    throw ConfigError(
        "narrow front entries cannot exceed the DL1 line (that is what makes "
        "them narrow)");
  }
  if (mshr_entries == 0) throw ConfigError("MSHR entries must be nonzero");
}

NarrowFrontDl1System::NarrowFrontDl1System(std::string name,
                                           const NarrowFrontConfig& config,
                                           mem::L2System* l2)
    : name_(std::move(name)),
      cfg_(config),
      l2_(l2),
      array_(config.dl1.geometry),
      front_(core::VwbGeometry{config.front_entries, config.entry_bytes,
                               config.entry_bytes}),
      banks_(config.dl1.timing.banks, config.dl1.geometry.line_bytes),
      mshr_(config.mshr_entries),
      store_buffer_(config.dl1.store_buffer_depth),
      writeback_buffer_(config.dl1.writeback_buffer_depth) {
  cfg_.validate();
  STTSIM_CHECK(l2_ != nullptr);
}

void NarrowFrontDl1System::retire_l1_victim(const mem::FillOutcome& victim,
                                            sim::Cycle now) {
  if (!victim.victim_valid) return;
  // The victim's frame is gone: a still-in-flight fill entry for it must not
  // keep merging later stores into the evicted frame (they would be lost).
  mshr_.release(victim.victim_addr);
  // Invalidate every front entry covered by the outgoing DL1 line, folding
  // front dirtiness into the victim.
  bool front_dirty = false;
  for (Addr s = victim.victim_addr;
       s < victim.victim_addr + cfg_.dl1.geometry.line_bytes;
       s += cfg_.entry_bytes) {
    front_dirty |= front_.invalidate_sector(s);
  }
  if (!victim.victim_dirty && !front_dirty) return;
  // Victim readout uses the array's fill/spill port.
  const sim::Cycle slot = writeback_buffer_.accept(now);
  stats_.l1_array_reads += 1;
  const sim::Cycle done = l2_->accept_writeback(
      victim.victim_addr, slot + cfg_.dl1.timing.read_cycles, stats_);
  writeback_buffer_.commit(done);
  stats_.l1_writebacks += 1;
}

sim::Cycle NarrowFrontDl1System::fill_from_l2(Addr line, sim::Cycle now) {
  stats_.l1_misses += 1;
  const sim::Cycle data = l2_->fetch_line(line, now, stats_);
  const mem::FillOutcome victim = array_.fill(line, /*dirty=*/false);
  retire_l1_victim(victim, data);
  // The line-fill write retires through the fill port in the background.
  stats_.l1_array_writes += 1;
  return data;
}

void NarrowFrontDl1System::allocate_front(Addr addr, sim::Cycle ready) {
  const unsigned slot = front_.allocate_line(addr, [this](Addr entry) {
    // Dirty front entries retire into the NVM array through the fill port.
    STTSIM_CHECK(array_.probe(entry));
    array_.access(entry, /*is_write=*/true);
    stats_.l1_array_writes += 1;
    stats_.front_writebacks += 1;
  });
  front_.fill_sector(slot, addr, ready);
  stats_.promotions += 1;
}

sim::Cycle NarrowFrontDl1System::load_entry_front_miss(Addr addr,
                                                       sim::Cycle now,
                                                       sim::Cycle lookup_done) {
  stats_.front_misses += 1;

  const Addr line = array_.line_addr(addr);
  sim::Cycle ready;
  bool was_l1_miss = false;
  const sim::Cycle fly = mshr_.lookup(line, now);
  if (fly != 0) {
    ready = std::max(fly, now);
    was_l1_miss = true;  // the in-flight fill is a miss fill
  } else if (array_.access(line, /*is_write=*/false)) {
    stats_.l1_read_hits += 1;
    const sim::Grant g =
        banks_.acquire(line, now, cfg_.dl1.timing.read_cycles);
    stats_.l1_array_reads += 1;
    stats_.bank_conflict_cycles += g.start - now;
    ready = g.done;
  } else {
    const sim::Cycle data =
        fill_from_l2(line, now + cfg_.dl1.timing.tag_cycles);
    ready = mshr_.allocate(line, now, data);
    was_l1_miss = true;
  }

  const bool allocate =
      cfg_.policy == FrontAllocPolicy::kOnLoadMiss ||
      (cfg_.policy == FrontAllocPolicy::kOnL1Miss && was_l1_miss);
  // kOnStore never allocates on the load path: it is a pure write buffer.
  if (allocate) allocate_front(addr, ready);
  return std::max(ready, lookup_done);
}

sim::Cycle NarrowFrontDl1System::load(Addr addr, unsigned size,
                                      sim::Cycle now) {
  STTSIM_CHECK(size > 0);
  stats_.loads += 1;
  const std::uint64_t entry = cfg_.entry_bytes;
  const Addr first = align_down(addr, entry);
  const Addr last = align_down(addr + size - 1, entry);
  sim::Cycle ready = load_entry(addr, now);
  for (Addr s = first + entry; s <= last; s += entry) {
    ready = std::max(ready, load_entry(s, now + 1));
  }
  return ready;
}

sim::Cycle NarrowFrontDl1System::store_entry_front_miss(Addr s,
                                                        sim::Cycle now) {
  const Addr line = array_.line_addr(s);
  if (cfg_.policy == FrontAllocPolicy::kOnStore) {
    // Write-mitigation hybrid: the store allocates a front entry and is
    // absorbed there; the underlying line is pulled alongside in the
    // background (array read, or L2 fill on a DL1 miss) so the entry
    // holds a complete, writable copy.
    sim::Cycle ready;
    const sim::Cycle start = now + 1;
    const sim::Cycle fly = mshr_.lookup(line, start);
    if (fly != 0) {
      ready = fly;
    } else if (array_.access(line, /*is_write=*/false)) {
      const sim::Grant g =
          banks_.acquire(s, start, cfg_.dl1.timing.read_cycles);
      stats_.l1_array_reads += 1;
      ready = g.done;
    } else {
      const sim::Cycle data =
          fill_from_l2(line, start + cfg_.dl1.timing.tag_cycles);
      ready = mshr_.allocate(line, start, data);
    }
    allocate_front(s, ready);
    front_.mark_dirty(s);
    stats_.front_store_hits += 1;
    return now + 1;
  }
  const sim::Cycle slot = store_buffer_.accept(now);
  const sim::Cycle tag_done = slot + cfg_.dl1.timing.tag_cycles;
  sim::Cycle done;
  const sim::Cycle fly = mshr_.lookup(line, slot);
  if (fly != 0) {
    const sim::Grant g = banks_.acquire(
        line, std::max(fly, tag_done), cfg_.dl1.timing.write_cycles);
    array_.access(line, /*is_write=*/true);
    stats_.l1_write_hits += 1;
    stats_.l1_array_writes += 1;
    done = g.done;
  } else if (array_.access(line, /*is_write=*/true)) {
    stats_.l1_write_hits += 1;
    const sim::Grant g =
        banks_.acquire(line, tag_done, cfg_.dl1.timing.write_cycles);
    stats_.l1_array_writes += 1;
    stats_.bank_conflict_cycles += g.start - tag_done;
    done = g.done;
  } else {
    const sim::Cycle data = l2_->fetch_line(line, tag_done, stats_);
    stats_.l1_misses += 1;
    const mem::FillOutcome victim = array_.fill(line, /*dirty=*/true);
    retire_l1_victim(victim, data);
    const sim::Grant g =
        banks_.acquire(line, data, cfg_.dl1.timing.write_cycles);
    stats_.l1_array_writes += 1;
    done = g.done;
  }
  store_buffer_.commit(done);
  return std::max(slot, now + 1);
}

sim::Cycle NarrowFrontDl1System::store(Addr addr, unsigned size,
                                       sim::Cycle now) {
  STTSIM_CHECK(size > 0);
  stats_.stores += 1;
  const std::uint64_t entry = cfg_.entry_bytes;
  const Addr first = align_down(addr, entry);
  const Addr last = align_down(addr + size - 1, entry);
  sim::Cycle accepted = now + 1;
  for (Addr s = first; s <= last; s += entry) {
    accepted = std::max(accepted, store_entry(s, now));
  }
  return accepted;
}

void NarrowFrontDl1System::prefetch(Addr addr, sim::Cycle now) {
  stats_.prefetches += 1;
  if (front_.probe(addr).hit) return;
  const Addr line = array_.line_addr(addr);
  const sim::Cycle start = now + 1;
  sim::Cycle ready;
  const sim::Cycle fly = mshr_.lookup(line, start);
  if (fly != 0) {
    ready = fly;
  } else if (!array_.probe(line) &&
             mshr_.occupancy(start) >= mshr_.capacity()) {
    // A prefetch is a hint: when it would need an MSHR and none is free,
    // drop it rather than stall anything.
    return;
  } else if (array_.access(line, /*is_write=*/false)) {
    const sim::Grant g =
        banks_.acquire(line, start, cfg_.dl1.timing.read_cycles);
    stats_.l1_array_reads += 1;
    ready = g.done;
  } else {
    const sim::Cycle data =
        fill_from_l2(line, start + cfg_.dl1.timing.tag_cycles);
    ready = mshr_.allocate(line, start, data);
  }
  // An explicit software hint always captures into the front structure
  // (for the EMSHR this is precisely its enhanced-MSHR fill behaviour).
  allocate_front(addr, ready);
}

void NarrowFrontDl1System::reset() {
  array_.reset();
  front_.reset();
  banks_.reset();
  mshr_.reset();
  store_buffer_.reset();
  writeback_buffer_.reset();
  stats_ = {};
}

NarrowFrontConfig make_l0_config(const core::Dl1Config& dl1) {
  NarrowFrontConfig c;
  c.dl1 = dl1;
  c.front_entries = 8;   // 8 x 32 B = 2 KBit, matching the VWB capacity
  c.entry_bytes = 32;    // the pre-NVM "regular" interface width (256 bit)
  c.policy = FrontAllocPolicy::kOnLoadMiss;
  return c;
}

NarrowFrontConfig make_emshr_config(const core::Dl1Config& dl1) {
  NarrowFrontConfig c;
  c.dl1 = dl1;
  c.front_entries = 4;  // 4 x 64 B = 2 KBit of retained miss fills
  c.entry_bytes = 64;
  c.policy = FrontAllocPolicy::kOnL1Miss;
  return c;
}

NarrowFrontConfig make_write_buffer_config(const core::Dl1Config& dl1) {
  NarrowFrontConfig c;
  c.dl1 = dl1;
  c.front_entries = 4;  // 4 x 64 B = 2 KBit of write-absorbing entries
  c.entry_bytes = 64;
  c.policy = FrontAllocPolicy::kOnStore;
  return c;
}

}  // namespace sttsim::alt
