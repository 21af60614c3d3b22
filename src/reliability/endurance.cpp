#include "sttsim/reliability/endurance.hpp"

#include <cmath>
#include <limits>

#include "sttsim/util/check.hpp"
#include "sttsim/util/text.hpp"

namespace sttsim::reliability {

EnduranceSpec stt_mram_endurance() { return {"STT-MRAM", 1e16}; }
EnduranceSpec reram_endurance() { return {"ReRAM", 1e8}; }
EnduranceSpec pram_endurance() { return {"PRAM", 1e6}; }

double WearProfile::max_write_rate_hz() const {
  if (elapsed_cycles == 0) return 0.0;
  const double seconds =
      static_cast<double>(elapsed_cycles) / (clock_ghz * 1e9);
  return static_cast<double>(max_frame_writes) / seconds;
}

double WearProfile::avg_write_rate_hz() const {
  if (elapsed_cycles == 0 || frames == 0) return 0.0;
  const double seconds =
      static_cast<double>(elapsed_cycles) / (clock_ghz * 1e9);
  return static_cast<double>(total_writes) /
         static_cast<double>(frames) / seconds;
}

WearProfile profile_wear(const mem::SetAssocCache& array,
                         sim::Cycle elapsed_cycles, double clock_ghz) {
  if (clock_ghz <= 0) throw ConfigError("clock must be positive");
  WearProfile w;
  w.max_frame_writes = array.max_frame_writes();
  w.total_writes = array.total_writes();
  w.frames = array.geometry().num_lines();
  w.elapsed_cycles = elapsed_cycles;
  w.clock_ghz = clock_ghz;
  return w;
}

WearProfile profile_from_counters(std::uint64_t max_frame_writes,
                                  std::uint64_t total_writes,
                                  std::uint64_t frames,
                                  sim::Cycle elapsed_cycles,
                                  double clock_ghz) {
  if (clock_ghz <= 0) throw ConfigError("clock must be positive");
  WearProfile w;
  w.max_frame_writes = max_frame_writes;
  w.total_writes = total_writes;
  w.frames = frames;
  w.elapsed_cycles = elapsed_cycles;
  w.clock_ghz = clock_ghz;
  return w;
}

LifetimeEstimate project_lifetime(const WearProfile& wear,
                                  const EnduranceSpec& endurance) {
  if (endurance.write_endurance <= 0) {
    throw ConfigError("endurance must be positive");
  }
  LifetimeEstimate e;
  const double rate = wear.max_write_rate_hz();
  e.seconds = rate <= 0 ? std::numeric_limits<double>::infinity()
                        : endurance.write_endurance / rate;
  return e;
}

LifetimeEstimate project_lifetime_leveled(const WearProfile& wear,
                                          const EnduranceSpec& endurance) {
  if (endurance.write_endurance <= 0) {
    throw ConfigError("endurance must be positive");
  }
  LifetimeEstimate e;
  const double rate = wear.avg_write_rate_hz();
  e.seconds = rate <= 0 ? std::numeric_limits<double>::infinity()
                        : endurance.write_endurance / rate;
  return e;
}

std::string format_lifetime(const LifetimeEstimate& estimate) {
  const double s = estimate.seconds;
  if (std::isinf(s)) return "unlimited (no writes observed)";
  if (s < 60) return strprintf("%.1f seconds", s);
  if (s < 3600) return strprintf("%.1f minutes", s / 60);
  if (s < 24 * 3600) return strprintf("%.1f hours", s / 3600);
  if (s < 365.25 * 24 * 3600) return strprintf("%.1f days", s / (24 * 3600));
  const double years = estimate.years();
  if (years < 1e4) return strprintf("%.1f years", years);
  return strprintf("%.1e years", years);
}

}  // namespace sttsim::reliability
