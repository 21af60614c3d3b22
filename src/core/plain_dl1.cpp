#include "sttsim/core/plain_dl1.hpp"

#include <algorithm>

#include "sttsim/util/check.hpp"

namespace sttsim::core {

PlainDl1System::PlainDl1System(std::string name, const Dl1Config& config,
                               mem::L2System* l2)
    : name_(std::move(name)),
      cfg_(config),
      l2_(l2),
      array_(config.geometry),
      banks_(config.timing.banks, config.geometry.line_bytes),
      fills_(8),
      store_buffer_(config.store_buffer_depth),
      writeback_buffer_(config.writeback_buffer_depth) {
  cfg_.validate();
  STTSIM_CHECK(l2_ != nullptr);
}

void PlainDl1System::retire_victim(const mem::FillOutcome& victim,
                                   sim::Cycle now) {
  if (!victim.victim_valid || !victim.victim_dirty) return;
  // Read the dirty line out of the data array and hand it to the L2 through
  // the writeback buffer — all in the background.
  // The victim is read out through the array's fill/spill port (cycle-stolen
  // in idle slots), so it does not occupy the demand-visible bank timeline.
  const sim::Cycle slot = writeback_buffer_.accept(now);
  stats_.l1_array_reads += 1;
  const sim::Cycle done = l2_->accept_writeback(
      victim.victim_addr, slot + cfg_.timing.read_cycles, stats_);
  writeback_buffer_.commit(done);
  stats_.l1_writebacks += 1;
}

sim::Cycle PlainDl1System::load_miss(Addr line, sim::Cycle tag_done) {
  // Fetch from L2, allocate (write-allocate), deliver critical word on
  // arrival while the line fill retires into the array in the background.
  stats_.l1_misses += 1;
  const sim::Cycle data = l2_->fetch_line(line, tag_done, stats_);
  fill_l2_span(line, data);
  return data;
}

void PlainDl1System::fill_l2_span(Addr line, sim::Cycle data) {
  // The L2 transfers a whole L2 line; every L1 line it covers is filled
  // (relevant when the L1 line — 256 bit for the SRAM macro — is narrower
  // than the 512-bit L2 line; a 1:1 geometry fills exactly one line).
  const std::uint64_t l2_line = l2_->config().line_bytes;
  const Addr span_base = align_down(line, l2_line);
  for (Addr l = span_base; l < span_base + l2_line;
       l += cfg_.geometry.line_bytes) {
    if (array_.probe(l)) continue;
    const mem::FillOutcome victim = array_.fill(l, /*dirty=*/false);
    retire_victim(victim, data);
    stats_.l1_array_writes += 1;  // fill port; not on the demand timeline
  }
}

sim::Cycle PlainDl1System::load(Addr addr, unsigned size, sim::Cycle now) {
  STTSIM_CHECK(size > 0);
  stats_.loads += 1;
  const std::uint64_t lb = cfg_.geometry.line_bytes;
  const Addr first = align_down(addr, lb);
  const Addr last = align_down(addr + size - 1, lb);
  sim::Cycle ready = load_line(addr, now);
  // Rare line-crossing access: serialize the second line after the first
  // issues (next cycle), data ready when both halves arrived.
  for (Addr line = first + lb; line <= last; line += lb) {
    ready = std::max(ready, load_line(line, now + 1));
  }
  return ready;
}

sim::Cycle PlainDl1System::store_miss(Addr line, sim::Cycle tag_done) {
  // Write miss: write-allocate — fetch the line, fill the covered span, and
  // merge the store into the demand line's fill write.
  stats_.l1_misses += 1;
  const sim::Cycle data = l2_->fetch_line(line, tag_done, stats_);
  fill_l2_span(line, data);
  array_.mark_dirty(line);
  return data + cfg_.timing.write_cycles;
}

sim::Cycle PlainDl1System::store(Addr addr, unsigned size, sim::Cycle now) {
  STTSIM_CHECK(size > 0);
  stats_.stores += 1;
  const std::uint64_t lb = cfg_.geometry.line_bytes;
  const Addr first = align_down(addr, lb);
  const Addr last = align_down(addr + size - 1, lb);
  sim::Cycle accepted = now;
  for (Addr line = first; line <= last; line += lb) {
    const sim::Cycle slot = store_buffer_.accept(accepted);
    const sim::Cycle done = drain_store(line, slot);
    store_buffer_.commit(done);
    accepted = std::max(accepted, slot);
  }
  return std::max(accepted, now + 1);
}

void PlainDl1System::prefetch(Addr addr, sim::Cycle now) {
  stats_.prefetches += 1;
  const Addr line = array_.line_addr(addr);
  if (array_.probe(line)) return;
  if (fills_.lookup(line) != 0) return;  // already in flight
  const sim::Cycle data =
      l2_->fetch_line(line, now + 1 + cfg_.timing.tag_cycles, stats_);
  // Fill the covered span; demand accesses before `data` wait for arrival.
  const std::uint64_t l2_line = l2_->config().line_bytes;
  const Addr span_base = align_down(line, l2_line);
  fill_l2_span(line, data);
  for (Addr l = span_base; l < span_base + l2_line;
       l += cfg_.geometry.line_bytes) {
    fills_.insert(l, data);
  }
}

void PlainDl1System::reset() {
  array_.reset();
  banks_.reset();
  fills_.reset();
  store_buffer_.reset();
  writeback_buffer_.reset();
  stats_ = {};
}

}  // namespace sttsim::core
