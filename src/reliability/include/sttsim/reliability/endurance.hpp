// Endurance / lifetime modelling.
//
// The paper's technology choice rests on endurance: "STT-MRAM ... suffers
// minimal degradation over time (lifetime up to 1e16 cycles [Apalkov'13])"
// while "both PRAM and ReRAM are plagued by severe endurance issues
// (lifetime 1e6..1e8 cycles)". This module turns those numbers into a
// measurable artifact: given the wear profile of a simulated DL1 array
// (SetAssocCache tracks per-frame write counts) and the simulated time, it
// projects the time-to-first-cell-failure under each technology's endurance
// budget — the quantitative version of Section II's technology triage.
#pragma once

#include <cstdint>
#include <string>

#include "sttsim/mem/set_assoc_cache.hpp"
#include "sttsim/sim/cycle.hpp"

namespace sttsim::reliability {

/// Write-endurance budget of one memory technology (writes per cell).
struct EnduranceSpec {
  std::string label;
  double write_endurance = 0;
};

/// The paper's cited budgets.
EnduranceSpec stt_mram_endurance();  ///< 1e16 (Apalkov et al. [4])
EnduranceSpec reram_endurance();     ///< 1e8 (optimistic end of Section II)
EnduranceSpec pram_endurance();      ///< 1e6 (pessimistic end of Section II)

/// Observed write-rate profile of a cache array over one simulation.
struct WearProfile {
  std::uint64_t max_frame_writes = 0;  ///< hottest physical frame
  std::uint64_t total_writes = 0;
  std::uint64_t frames = 0;
  sim::Cycle elapsed_cycles = 0;
  double clock_ghz = 1.0;

  /// Writes per second hitting the hottest frame.
  double max_write_rate_hz() const;
  /// Mean writes per second per frame.
  double avg_write_rate_hz() const;
};

/// Extracts the profile from a simulated array.
WearProfile profile_wear(const mem::SetAssocCache& array,
                         sim::Cycle elapsed_cycles, double clock_ghz = 1.0);

/// Reconstructs a profile from the end-of-run counters a RunStats record
/// carries (`l1_frame_writes_max` / `l1_frame_writes_total`), so lifetime
/// figures can run through `run_grid` and memoize in the result store
/// without holding the simulated array.
WearProfile profile_from_counters(std::uint64_t max_frame_writes,
                                  std::uint64_t total_writes,
                                  std::uint64_t frames,
                                  sim::Cycle elapsed_cycles,
                                  double clock_ghz = 1.0);

/// Projected time to first cell failure, assuming the workload's write-rate
/// profile is sustained indefinitely (no wear levelling).
struct LifetimeEstimate {
  double seconds = 0;
  double years() const { return seconds / (365.25 * 24 * 3600); }
  /// Never fails within any practical horizon (> 1000 years).
  bool effectively_unlimited() const { return years() > 1000.0; }
};

LifetimeEstimate project_lifetime(const WearProfile& wear,
                                  const EnduranceSpec& endurance);

/// Same projection under *ideal* wear levelling: writes are spread evenly
/// over all frames, so the average (not the maximum) frame rate limits the
/// lifetime. The gap between the two quantifies what a wear-levelling
/// scheme could recover.
LifetimeEstimate project_lifetime_leveled(const WearProfile& wear,
                                          const EnduranceSpec& endurance);

/// Human-readable duration: "3.2 hours", "45 days", "2.1e6 years".
std::string format_lifetime(const LifetimeEstimate& estimate);

}  // namespace sttsim::reliability
