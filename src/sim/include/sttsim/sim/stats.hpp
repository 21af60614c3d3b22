// Statistics gathered by one simulation run.
//
// Counters are split so that every figure in the paper can be computed
// directly: Fig. 4 needs stall cycles attributed to reads vs writes, the
// energy report needs raw array access counts, Fig. 7/8 need front-structure
// hit rates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sttsim/sim/cycle.hpp"

namespace sttsim::sim {

/// Counters owned by the data-memory system (DL1 + front structure + L2).
struct MemStats {
  // Demand stream.
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t prefetches = 0;

  // Front structure (VWB / L0 / EMSHR buffer). Zero in drop-in configs.
  std::uint64_t front_hits = 0;
  std::uint64_t front_misses = 0;
  std::uint64_t front_store_hits = 0;
  std::uint64_t promotions = 0;        ///< lines promoted into the front
  std::uint64_t front_writebacks = 0;  ///< dirty front evictions to L1
  std::uint64_t prefetch_hits = 0;     ///< demand promotions served from
                                       ///< MSHR fill registers (prefetched)

  // L1 data array behaviour.
  std::uint64_t l1_read_hits = 0;
  std::uint64_t l1_write_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l1_writebacks = 0;  ///< dirty L1 victims to L2

  // L2 / memory.
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;

  // Raw array port activity, for the energy model.
  std::uint64_t l1_array_reads = 0;
  std::uint64_t l1_array_writes = 0;
  std::uint64_t l2_array_reads = 0;
  std::uint64_t l2_array_writes = 0;

  // Contention.
  std::uint64_t bank_conflict_cycles = 0;

  // Reliability (src/reliability). ECC events are part of the per-op
  // timing contract and are checked by the differential oracle; the wear
  // counters are end-of-run snapshots of the L1 array's physical frame
  // wear (set by the run loops when they assemble RunStats), feeding the
  // lifetime figures through the result store.
  std::uint64_t ecc_corrections = 0;  ///< single-bit flips corrected on read
  std::uint64_t ecc_refills = 0;      ///< double-bit faults -> line refill
  std::uint64_t l1_frame_writes_max = 0;    ///< hottest L1 frame's wear
  std::uint64_t l1_frame_writes_total = 0;  ///< total L1 array frame wear

  double front_hit_rate() const;
  double l1_miss_rate() const;
};

/// Counters owned by the core model.
struct CoreStats {
  std::uint64_t instructions = 0;  ///< all retired ops (exec+mem+prefetch)
  std::uint64_t mem_instructions = 0;
  Cycles exec_cycles = 0;        ///< non-memory pipeline cycles
  Cycles read_stall_cycles = 0;
  Cycles write_stall_cycles = 0;
  Cycles structural_stall_cycles = 0;
  Cycle total_cycles = 0;  ///< end-of-run simulated time

  Cycles stall_cycles() const {
    return read_stall_cycles + write_stall_cycles + structural_stall_cycles;
  }
  double cpi() const;
};

/// Everything one run produces.
struct RunStats {
  CoreStats core;
  MemStats mem;
};

/// Multi-line human-readable dump (used by examples and the sttsim CLI).
std::string to_string(const RunStats& s);

/// Flat JSON object with every counter (stable keys; for tooling).
std::string to_json(const RunStats& s);

/// Canonical fixed-size binary encoding of RunStats: every CoreStats and
/// MemStats counter as a little-endian u64, in declaration order. This is
/// the persistent result store's record payload, so the layout is part of
/// the store schema: adding/reordering a counter MUST bump
/// exec::ResultStore::kSchemaVersion. encode/decode are exact inverses
/// (all counters are integers — no rounding).
inline constexpr std::size_t kRunStatsWords = 7 + 24;  // core + mem counters
inline constexpr std::size_t kRunStatsBytes = kRunStatsWords * 8;

void encode_run_stats(const RunStats& s, std::uint8_t* out);  ///< kRunStatsBytes
RunStats decode_run_stats(const std::uint8_t* in);            ///< kRunStatsBytes

}  // namespace sttsim::sim
