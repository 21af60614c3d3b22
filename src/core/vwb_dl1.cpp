#include "sttsim/core/vwb_dl1.hpp"

#include <algorithm>

#include "sttsim/util/check.hpp"

namespace sttsim::core {

void VwbDl1Config::validate() const {
  dl1.validate();
  vwb.validate();
  if (vwb.sector_bytes != dl1.geometry.line_bytes) {
    throw ConfigError(
        "VWB sector size must equal the DL1 line size (a sector holds "
        "exactly one promoted DL1 line)");
  }
  if (mshr_entries == 0) throw ConfigError("MSHR entries must be nonzero");
}

VwbDl1System::VwbDl1System(std::string name, const VwbDl1Config& config,
                           mem::L2System* l2)
    : name_(std::move(name)),
      cfg_(config),
      l2_(l2),
      array_(config.dl1.geometry),
      vwb_(config.vwb),
      banks_(config.dl1.timing.banks, config.dl1.geometry.line_bytes),
      fills_(config.mshr_entries),
      store_buffer_(config.dl1.store_buffer_depth),
      writeback_buffer_(config.dl1.writeback_buffer_depth) {
  cfg_.validate();
  STTSIM_CHECK(l2_ != nullptr);
}

void VwbDl1System::retire_l1_victim(const mem::FillOutcome& victim,
                                    sim::Cycle now) {
  if (!victim.victim_valid) return;
  // The DL1 is losing this line; any VWB copy or pending fill-register copy
  // becomes orphaned. Invalidate both and fold VWB dirtiness into the
  // outgoing victim (the VWB's narrow datapath merges through the write
  // buffer).
  fills_.invalidate(victim.victim_addr);
  const bool vwb_dirty = vwb_.invalidate_sector(victim.victim_addr);
  if (!victim.victim_dirty && !vwb_dirty) return;
  // Victim readout uses the array's fill/spill port (idle-cycle stealing);
  // it does not occupy the demand-visible bank timeline.
  const sim::Cycle slot = writeback_buffer_.accept(now);
  stats_.l1_array_reads += 1;
  const sim::Cycle done = l2_->accept_writeback(
      victim.victim_addr, slot + cfg_.dl1.timing.read_cycles, stats_);
  writeback_buffer_.commit(done);
  stats_.l1_writebacks += 1;
}

sim::Cycle VwbDl1System::fill_from_l2(Addr line, sim::Cycle now) {
  stats_.l1_misses += 1;
  const sim::Cycle data = l2_->fetch_line(line, now, stats_);
  const mem::FillOutcome victim = array_.fill(line, /*dirty=*/false);
  retire_l1_victim(victim, data);
  // The line-fill write retires through the fill port in the background.
  stats_.l1_array_writes += 1;
  return data;
}

sim::Cycle VwbDl1System::promote(Addr demand_addr, sim::Cycle now) {
  const Addr demand_line = vwb_.sector_addr(demand_addr);
  const unsigned slot = vwb_.allocate_line(demand_addr, [this](Addr sector) {
    // A dirty VWB victim sector is written back into the NVM array through
    // the fill/spill port, off the demand timeline. Inclusion guarantees the
    // line is resident (retire_l1_victim invalidates VWB copies of evicted
    // lines before they leave the DL1).
    STTSIM_CHECK(array_.probe(sector));
    array_.access(sector, /*is_write=*/true);
    stats_.l1_array_writes += 1;
    stats_.front_writebacks += 1;
  });

  // Demand sector first — the core is waiting on it (critical word first).
  sim::Cycle demand_ready;
  if (const sim::Cycle prefetched = fills_.consume(demand_line)) {
    // A software prefetch already read this line into an MSHR fill register;
    // the promotion completes from the register (one-shot: the data moves
    // into the VWB and the register frees), not from the NVM array.
    demand_ready = std::max(prefetched, now);
    stats_.prefetch_hits += 1;
  } else if (array_.access(demand_line, /*is_write=*/false)) {
    stats_.l1_read_hits += 1;
    const sim::Grant g =
        banks_.acquire(demand_line, now, cfg_.dl1.timing.read_cycles);
    stats_.l1_array_reads += 1;
    stats_.bank_conflict_cycles += g.start - now;
    demand_ready = g.done;
  } else {
    demand_ready = fill_from_l2(demand_line, now + cfg_.dl1.timing.tag_cycles);
  }
  vwb_.fill_sector(slot, demand_line, demand_ready);

  // Remaining sectors of the VWB line ride along on the wide interface —
  // but only opportunistically. A sibling sector is skipped when:
  //  * it is already valid in the VWB line;
  //  * it is staged in a fill register (the demand access consumes it);
  //  * it is absent from the DL1: it is not speculatively fetched from L2;
  //  * its bank is busy: the ride-along read issues only on an idle bank,
  //    so background promotion never queues ahead of demand traffic.
  const Addr vline = vwb_.vline_addr(demand_addr);
  const std::uint64_t sector = cfg_.vwb.sector_bytes;
  for (Addr s = vline; s < vline + cfg_.vwb.line_bytes; s += sector) {
    if (s == demand_line) continue;
    // `slot` maps this whole VWB line (just allocated for it), so residency
    // is a direct sector check — no tag scan.
    if (vwb_.sector_valid(slot, s)) continue;  // resident (partial line)
    // A sector staged by a prefetch stays in its fill register until the
    // demand access consumes it — moving it into the VWB early risks losing
    // it to an eviction before use.
    if (fills_.lookup(s) != 0) continue;
    if (!array_.probe(s)) continue;
    if (banks_.free_at(s) > now) continue;  // bank busy: skip, stay narrow
    array_.access(s, /*is_write=*/false);
    const sim::Grant g = banks_.acquire(s, now, cfg_.dl1.timing.read_cycles);
    stats_.l1_array_reads += 1;
    vwb_.fill_sector(slot, s, g.done);
  }
  stats_.promotions += 1;
  return demand_ready;
}

sim::Cycle VwbDl1System::load(Addr addr, unsigned size, sim::Cycle now) {
  STTSIM_CHECK(size > 0);
  stats_.loads += 1;
  const std::uint64_t sector = cfg_.vwb.sector_bytes;
  const Addr first = align_down(addr, sector);
  const Addr last = align_down(addr + size - 1, sector);
  sim::Cycle ready = load_sector(addr, now);
  for (Addr s = first + sector; s <= last; s += sector) {
    ready = std::max(ready, load_sector(s, now + 1));
  }
  return ready;
}

sim::Cycle VwbDl1System::store_sector_front_miss(Addr s, sim::Cycle now) {
  // Direct update of the NVM array through the store buffer. Any pending
  // fill-register copy of the line becomes stale.
  const sim::Cycle pending_fill = fills_.consume(s);
  const sim::Cycle slot = store_buffer_.accept(now);
  const sim::Cycle tag_done = slot + cfg_.dl1.timing.tag_cycles;
  sim::Cycle done;
  if (array_.access(s, /*is_write=*/true)) {
    stats_.l1_write_hits += 1;
    // If a prefetch-triggered L2 fill of this line is still in flight, the
    // merge happens after the data arrives.
    const sim::Cycle earliest = std::max(tag_done, pending_fill);
    const sim::Grant g =
        banks_.acquire(s, earliest, cfg_.dl1.timing.write_cycles);
    stats_.l1_array_writes += 1;
    stats_.bank_conflict_cycles += g.start - earliest;
    done = g.done;
  } else {
    // Write miss: write-allocate in the DL1, no-allocate in the VWB.
    const sim::Cycle data = l2_->fetch_line(s, tag_done, stats_);
    stats_.l1_misses += 1;
    const mem::FillOutcome victim = array_.fill(s, /*dirty=*/true);
    retire_l1_victim(victim, data);
    const sim::Grant g = banks_.acquire(s, data, cfg_.dl1.timing.write_cycles);
    stats_.l1_array_writes += 1;
    done = g.done;
  }
  store_buffer_.commit(done);
  return std::max(slot, now + 1);
}

sim::Cycle VwbDl1System::store(Addr addr, unsigned size, sim::Cycle now) {
  STTSIM_CHECK(size > 0);
  stats_.stores += 1;
  const std::uint64_t sector = cfg_.vwb.sector_bytes;
  const Addr first = align_down(addr, sector);
  const Addr last = align_down(addr + size - 1, sector);
  sim::Cycle accepted = now + 1;
  for (Addr s = first; s <= last; s += sector) {
    accepted = std::max(accepted, store_sector(s, now));
  }
  return accepted;
}

void VwbDl1System::prefetch(Addr addr, sim::Cycle now) {
  stats_.prefetches += 1;
  const Addr line = vwb_.sector_addr(addr);
  if (vwb_.probe(line).hit) return;
  if (fills_.lookup(line) != 0) return;  // already in flight/deposited
  // The prefetch reads the line into an MSHR fill register in the
  // background; the VWB itself is only filled when a demand access promotes
  // the sector (prefetching straight into a 2-line buffer would thrash it).
  const sim::Cycle start = now + 1;
  if (array_.access(line, /*is_write=*/false)) {
    const sim::Grant g =
        banks_.acquire(line, start, cfg_.dl1.timing.read_cycles);
    stats_.l1_array_reads += 1;
    fills_.insert(line, g.done);
  } else {
    const sim::Cycle data =
        fill_from_l2(line, start + cfg_.dl1.timing.tag_cycles);
    fills_.insert(line, data);
  }
}

void VwbDl1System::reset() {
  array_.reset();
  vwb_.reset();
  banks_.reset();
  fills_.reset();
  store_buffer_.reset();
  writeback_buffer_.reset();
  stats_ = {};
}

}  // namespace sttsim::core
