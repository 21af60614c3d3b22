#include "sttsim/reliability/fault.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "sttsim/util/check.hpp"
#include "sttsim/util/hash.hpp"

namespace sttsim::reliability {

void EccConfig::validate() const {
  if (word_bits == 0) throw ConfigError("ECC word_bits must be positive");
  if (check_bits == 0) throw ConfigError("ECC check_bits must be positive");
}

void FaultConfig::validate() const {
  if (fail_ppm > 1'000'000) {
    throw ConfigError("fault fail_ppm must be <= 1e6");
  }
  if (double_fault_pct > 100) {
    throw ConfigError("fault double_fault_pct must be <= 100");
  }
  if (retention_window_log2 >= 32) {
    throw ConfigError("fault retention_window_log2 must be < 32");
  }
  if (wear_sensitivity_log2 >= 32) {
    throw ConfigError("fault wear_sensitivity_log2 must be < 32");
  }
}

namespace {

constexpr std::size_t kInitialSlots = 64;

/// Home slot of `line` in a table of `mask + 1` slots: a multiplicative
/// (Fibonacci) hash, so runs of consecutive line numbers spread out.
std::size_t home_slot(std::uint64_t line, std::size_t mask) {
  return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ULL) >> 32) &
         mask;
}

}  // namespace

FaultInjector::FaultInjector(const FaultConfig& faults, const EccConfig& ecc,
                             std::uint64_t line_bytes)
    : faults_(faults),
      ecc_(ecc),
      seed_hash_(util::Hash64().u64(faults.seed)),
      keys_(kInitialSlots, kNoLine),
      states_(kInitialSlots) {
  if (line_bytes < 2 || !std::has_single_bit(line_bytes)) {
    throw ConfigError(
        "fault injector line_bytes must be a power of two, at least 2");
  }
  line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
}

FaultInjector::LineState& FaultInjector::line_state(std::uint64_t line,
                                                    bool& fresh) {
  const std::size_t mask = keys_.size() - 1;
  std::size_t i = home_slot(line, mask);
  while (keys_[i] != kNoLine) {
    if (keys_[i] == line) {
      fresh = false;
      return states_[i];
    }
    i = (i + 1) & mask;
  }
  if (2 * (used_ + 1) > keys_.size()) {
    grow();
    return line_state(line, fresh);
  }
  keys_[i] = line;
  states_[i] = LineState{};
  ++used_;
  fresh = true;
  return states_[i];
}

void FaultInjector::grow() {
  std::vector<std::uint64_t> keys(keys_.size() * 2, kNoLine);
  std::vector<LineState> states(keys.size());
  const std::size_t mask = keys.size() - 1;
  for (std::size_t j = 0; j < keys_.size(); ++j) {
    if (keys_[j] == kNoLine) continue;
    std::size_t i = home_slot(keys_[j], mask);
    while (keys[i] != kNoLine) i = (i + 1) & mask;
    keys[i] = keys_[j];
    states[i] = states_[j];
  }
  keys_ = std::move(keys);
  states_ = std::move(states);
}

void FaultInjector::redraw(std::uint64_t line, LineState& s) const {
  s.draw = util::Hash64(seed_hash_).u64(line).u64(s.generation).digest();
  // Wear accelerates retention loss: every 2^wear_sensitivity writes to the
  // line doubles its raw per-window failure odds (capped at certainty).
  std::uint64_t eff_ppm = faults_.fail_ppm;
  if (eff_ppm == 0) {
    s.epoch = std::numeric_limits<std::uint64_t>::max();
    return;
  }
  const std::uint64_t boost = 1 + (s.wear >> faults_.wear_sensitivity_log2);
  eff_ppm = boost > 1'000'000 / eff_ppm ? 1'000'000
                                        : std::min<std::uint64_t>(
                                              1'000'000, eff_ppm * boost);
  // A stable uniform draw in [1, 1e6] for this (line, generation): the
  // geometric failure schedule inverted at the draw, i.e. the first window
  // whose cumulative odds cover it.
  const std::uint64_t u = s.draw % 1'000'000 + 1;
  s.epoch = (u + eff_ppm - 1) / eff_ppm;
}

FaultInjector::LoadPenalty FaultInjector::on_load(Addr addr, unsigned size,
                                                  sim::Cycle now) {
  LoadPenalty penalty;
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + (size == 0 ? 0 : size - 1)) >> line_shift_;
  for (std::uint64_t line = first; line <= last; ++line) {
    bool fresh;
    LineState& s = line_state(line, fresh);
    if (fresh) {
      s.refreshed_at = now;
      continue;  // first observation: retention clock starts here
    }
    // One draw per generation: the first load after a store or a scrub
    // hashes, later loads of the same generation reuse it.
    if (s.epoch == 0) redraw(line, s);
    const sim::Cycle age = now - s.refreshed_at;
    if ((age >> faults_.retention_window_log2) < s.epoch) continue;
    // The line has outlived its drawn retention budget: deliver the fault
    // and classify it from an independent slice of the same draw.
    if ((s.draw >> 40) % 100 < faults_.double_fault_pct) {
      penalty.refill_cycles += ecc_.refill_cycles;
      ++refills_;
    } else {
      penalty.correction_cycles += ecc_.correction_cycles;
      ++corrections_;
    }
    // ECC scrub: the corrected (or refilled) data is written back, which
    // refreshes retention and re-draws the next failure epoch.
    s.refreshed_at = now;
    ++s.generation;
    s.epoch = 0;
  }
  return penalty;
}

void FaultInjector::on_store(Addr addr, unsigned size, sim::Cycle now) {
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + (size == 0 ? 0 : size - 1)) >> line_shift_;
  for (std::uint64_t line = first; line <= last; ++line) {
    bool fresh;
    LineState& s = line_state(line, fresh);
    s.refreshed_at = now;
    ++s.generation;
    ++s.wear;
    s.epoch = 0;
  }
}

void FaultInjector::reset() {
  corrections_ = 0;
  refills_ = 0;
  std::fill(keys_.begin(), keys_.end(), kNoLine);
  used_ = 0;
}

FaultyDl1System::FaultyDl1System(std::unique_ptr<core::Dl1System> inner,
                                 const FaultConfig& faults,
                                 const EccConfig& ecc,
                                 std::uint64_t line_bytes)
    : inner_(std::move(inner)), injector_(faults, ecc, line_bytes) {}

void FaultyDl1System::sync_stats() {
  stats_ = inner_->stats();
  stats_.ecc_corrections = injector_.corrections();
  stats_.ecc_refills = injector_.refills();
}

std::string FaultyDl1System::name() const { return inner_->name(); }

const mem::SetAssocCache& FaultyDl1System::array() const {
  return inner_->array();
}

void FaultyDl1System::reset() {
  inner_->reset();
  injector_.reset();
  stats_ = {};
}

}  // namespace sttsim::reliability
