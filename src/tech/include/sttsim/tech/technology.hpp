// Memory-technology parameter models.
//
// Reproduces Table I of the paper (64 KB L1 D-cache macros at the 32 nm
// high-performance node) and derives the cycle-level timing the system model
// consumes. The STT-MRAM numbers correspond to the advanced perpendicular
// dual-MTJ cell of Noguchi et al. (VLSI'14) after technology scaling, as used
// by the paper; the SRAM numbers are the conventional 6T HP macro.
#pragma once

#include <cstdint>
#include <string>

#include "sttsim/util/bits.hpp"

namespace sttsim::tech {

/// Which storage technology a memory array is built from.
enum class MemoryTech {
  kSram,
  kSttMram,
};

/// Returns a short human-readable name ("SRAM", "STT-MRAM").
const char* to_string(MemoryTech tech);

/// Raw (analog) macro parameters for one cache array, as in Table I.
struct TechnologyParams {
  MemoryTech tech = MemoryTech::kSram;
  std::string label;           ///< e.g. "64KB SRAM L1 D-cache, 32nm HP"
  double read_latency_ns = 0;  ///< array read access time
  double write_latency_ns = 0; ///< array write access time
  double leakage_mw = 0;       ///< whole-macro leakage power
  double cell_area_f2 = 0;     ///< cell area in F^2 per bit
  std::uint64_t capacity_bytes = 0;
  unsigned associativity = 0;
  unsigned line_bits = 0;      ///< cache line width in bits
  /// Dynamic energy per array access (whole-line read/write), in nJ.
  /// Not part of Table I; derived from NVSim-flavoured estimates, see
  /// DESIGN.md ("power models have yet to be fully developed" in the paper).
  double read_energy_nj = 0;
  double write_energy_nj = 0;

  std::uint64_t line_bytes() const { return bits_to_bytes(line_bits); }
  std::uint64_t num_lines() const { return capacity_bytes / line_bytes(); }
  std::uint64_t num_sets() const { return num_lines() / associativity; }

  /// Validates internal consistency; throws ConfigError on nonsense values.
  void validate() const;
};

/// Discrete timing in CPU cycles, after quantizing to a clock.
struct CycleTiming {
  unsigned read_cycles = 1;
  unsigned write_cycles = 1;
};

/// Quantizes nanosecond latencies to cycles of a `clock_ghz` clock,
/// rounding up (an access occupies whole pipeline cycles).
CycleTiming quantize(const TechnologyParams& p, double clock_ghz);

/// Table I, column "SRAM": 64 KB, 2-way, 256-bit lines, 32 nm HP.
TechnologyParams sram_l1d_64kb();

/// Table I, column "STT-MRAM": 64 KB, 2-way, 512-bit lines, 32 nm.
/// Read 3.37 ns (~4x SRAM), write 1.86 ns (~2x SRAM), leakage 28.35 mW,
/// cell 42 F^2.
TechnologyParams stt_mram_l1d_64kb();

/// The previous-generation 1T-1MTJ STT-MRAM cell: the high-R-ratio design
/// the paper's Section III discusses — fast reads but slow, asymmetric
/// writes ("previous concerns ... were along the lines of write-related
/// issues"). Used by the cell-sensitivity exploration to show the
/// bottleneck flip that motivates the paper.
TechnologyParams stt_mram_l1d_64kb_1t1mtj();

/// Scales an existing macro description to a different capacity.
/// Latency grows with sqrt(capacity ratio) (wordline/bitline RC), leakage
/// grows linearly; line width and associativity are preserved.
TechnologyParams scale_capacity(const TechnologyParams& base,
                                std::uint64_t new_capacity_bytes);

}  // namespace sttsim::tech
