#include "sttsim/tech/technology.hpp"

#include <cmath>

#include "sttsim/util/check.hpp"
#include "sttsim/util/text.hpp"

namespace sttsim::tech {

const char* to_string(MemoryTech tech) {
  switch (tech) {
    case MemoryTech::kSram:
      return "SRAM";
    case MemoryTech::kSttMram:
      return "STT-MRAM";
  }
  return "?";
}

void TechnologyParams::validate() const {
  if (capacity_bytes == 0 || !is_pow2(capacity_bytes)) {
    throw ConfigError(strprintf("capacity must be a nonzero power of two, got %llu",
                                static_cast<unsigned long long>(capacity_bytes)));
  }
  if (associativity == 0) throw ConfigError("associativity must be >= 1");
  if (line_bits == 0 || line_bits % 8 != 0 || !is_pow2(line_bits)) {
    throw ConfigError(strprintf("line width must be a power-of-two number of bits, got %u",
                                line_bits));
  }
  if (line_bytes() * associativity > capacity_bytes) {
    throw ConfigError("cache smaller than one set");
  }
  if (num_lines() % associativity != 0) {
    throw ConfigError("capacity not divisible into whole sets");
  }
  if (read_latency_ns <= 0 || write_latency_ns <= 0) {
    throw ConfigError("latencies must be positive");
  }
  if (leakage_mw < 0 || read_energy_nj < 0 || write_energy_nj < 0) {
    throw ConfigError("power/energy must be non-negative");
  }
}

CycleTiming quantize(const TechnologyParams& p, double clock_ghz) {
  if (clock_ghz <= 0) throw ConfigError("clock frequency must be positive");
  const double cycle_ns = 1.0 / clock_ghz;
  CycleTiming t;
  t.read_cycles =
      static_cast<unsigned>(std::ceil(p.read_latency_ns / cycle_ns - 1e-9));
  t.write_cycles =
      static_cast<unsigned>(std::ceil(p.write_latency_ns / cycle_ns - 1e-9));
  if (t.read_cycles == 0) t.read_cycles = 1;
  if (t.write_cycles == 0) t.write_cycles = 1;
  return t;
}

TechnologyParams sram_l1d_64kb() {
  TechnologyParams p;
  p.tech = MemoryTech::kSram;
  p.label = "64KB SRAM L1 D-cache, 32nm HP";
  p.read_latency_ns = 0.787;   // Table I
  p.write_latency_ns = 0.773;  // Table I
  // Table I's SRAM leakage entry is corrupted in the available text; we
  // reconstruct 141.75 mW (5x the STT-MRAM macro) — consistent with HP 32 nm
  // 6T SRAM and with the paper's qualitative "low leakage" NVM claim.
  p.leakage_mw = 141.75;
  p.cell_area_f2 = 146;  // Table I
  p.capacity_bytes = 64 * kKiB;
  p.associativity = 2;   // Table I
  p.line_bits = 256;     // Table I
  p.read_energy_nj = 0.093;   // NVSim-flavoured estimate, whole-line access
  p.write_energy_nj = 0.089;
  p.validate();
  return p;
}

TechnologyParams stt_mram_l1d_64kb() {
  TechnologyParams p;
  p.tech = MemoryTech::kSttMram;
  p.label = "64KB STT-MRAM L1 D-cache, 32nm (perpendicular dual-MTJ)";
  p.read_latency_ns = 3.37;   // Table I — the paper's new bottleneck
  p.write_latency_ns = 1.86;  // Table I
  p.leakage_mw = 28.35;       // Table I
  p.cell_area_f2 = 42;        // Table I
  p.capacity_bytes = 64 * kKiB;
  p.associativity = 2;  // Table I
  p.line_bits = 512;    // Table I — wider array is cheaper for MTJ cells
  p.read_energy_nj = 0.074;   // wide NVM word: lower cumulative capacitance
  p.write_energy_nj = 0.211;  // MTJ switching dominates
  p.validate();
  return p;
}

TechnologyParams stt_mram_l1d_64kb_1t1mtj() {
  TechnologyParams p;
  p.tech = MemoryTech::kSttMram;
  p.label = "64KB STT-MRAM L1 D-cache, 32nm (1T-1MTJ, high R-ratio)";
  p.read_latency_ns = 1.71;   // ~2x SRAM: the high TMR ratio reads fast...
  p.write_latency_ns = 4.42;  // ...but switching the MTJ is slow (~5x SRAM)
  p.leakage_mw = 28.35;
  p.cell_area_f2 = 36;  // single transistor: denser than the 2T-2MTJ cell
  p.capacity_bytes = 64 * kKiB;
  p.associativity = 2;
  p.line_bits = 512;
  p.read_energy_nj = 0.068;
  p.write_energy_nj = 0.385;  // long switching pulse
  p.validate();
  return p;
}

TechnologyParams scale_capacity(const TechnologyParams& base,
                                std::uint64_t new_capacity_bytes) {
  if (!is_pow2(new_capacity_bytes)) {
    throw ConfigError("scaled capacity must be a power of two");
  }
  TechnologyParams p = base;
  const double ratio = static_cast<double>(new_capacity_bytes) /
                       static_cast<double>(base.capacity_bytes);
  p.capacity_bytes = new_capacity_bytes;
  const double latency_scale = std::sqrt(ratio);
  p.read_latency_ns *= latency_scale;
  p.write_latency_ns *= latency_scale;
  p.leakage_mw *= ratio;
  p.read_energy_nj *= latency_scale;
  p.write_energy_nj *= latency_scale;
  p.label = strprintf("%s (scaled to %s)", base.label.c_str(),
                      format_bytes(new_capacity_bytes).c_str());
  p.validate();
  return p;
}

}  // namespace sttsim::tech
