// Retention-fault injection and ECC modelling.
//
// The Alif MRAM macro protects every 128-bit word with 16 ECC check bits
// (SEC-DED): a single-bit retention flip is corrected on read at a small
// latency cost, a double-bit flip is only detected and escalates to a line
// refill from the next level. This module models that behaviour on top of
// any DL1 organization:
//
//  * `FaultInjector` — a deterministic, seed-driven schedule of retention
//    failures for resident STT-MRAM lines. Each (line, generation) pair
//    draws a stable pseudo-random failure epoch from the configured raw
//    failure rate; a line whose data has sat unrefreshed past that many
//    retention windows delivers a fault on its next read. Stores (and
//    ECC scrubs after a delivered fault) refresh the line and advance its
//    generation, so wear — which accelerates retention loss — compounds
//    deterministically. The schedule is a pure function of the access
//    stream, so an independently instantiated injector driven by the same
//    (addr, size, cycle) sequence reproduces it exactly; that is how the
//    differential oracle predicts ECC-corrected outcomes without sharing
//    state with the simulator.
//  * `FaultyDl1System` — a decorator over any `core::Dl1System` adding the
//    ECC read-path cost: corrected single-bit faults add
//    `EccConfig::correction_cycles` to the load completion, double-bit
//    faults add `EccConfig::refill_cycles` (the line refill), and the
//    `ecc_corrections` / `ecc_refills` counters are surfaced through the
//    normal MemStats channel. It is `final`, and cpu::System replays a
//    faulted system through its own instantiation of cpu::replay: the
//    decorator's entries resolve statically, and only the wrapped
//    organization behind it is reached through the virtual interface. The
//    inner counters are copied into stats() by sync_stats(), which the
//    replay loop calls at the end of a run and before each observer call
//    of an observed run.
//
// Hot-path layout: the injector keeps its per-line state in a flat
// open-addressing table (packed keys, linear probing), and it hashes the
// campaign seed once: Hash64 is streaming FNV-1a, so every draw continues
// from the state after `u64(seed)` and stays bit-identical to hashing
// (seed, line, generation) from scratch.
//
// Faults are evaluated on loads only (the ECC engine sits on the read
// path; writes re-encode check bits as a side effect of the write itself)
// and are keyed by the access stream rather than by probing array
// residency — a deliberate simplification that keeps the schedule
// identical between the simulator's replay and the oracle's independently
// seeded reference.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sttsim/core/dl1_system.hpp"
#include "sttsim/sim/cycle.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/util/hash.hpp"

namespace sttsim::reliability {

/// SEC-DED ECC geometry and read-path costs, per the Alif MRAM macro
/// (16 check bits per 128-bit word).
struct EccConfig {
  unsigned word_bits = 128;       ///< protected data word
  unsigned check_bits = 16;       ///< SEC-DED check bits per word
  unsigned correction_cycles = 2;  ///< added to a load that corrects a
                                   ///< single-bit flip
  unsigned refill_cycles = 20;     ///< added to a load whose double-bit
                                   ///< fault escalates to a line refill

  /// Storage overhead of the check bits (0.125 for 16/128).
  double storage_overhead() const {
    return static_cast<double>(check_bits) / static_cast<double>(word_bits);
  }

  void validate() const;
};

/// Deterministic retention-fault schedule parameters.
struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;          ///< campaign seed; folds into the digest
  std::uint32_t fail_ppm = 10000;  ///< per-retention-window raw failure
                                   ///< odds, parts per million (<= 1e6)
  std::uint32_t double_fault_pct = 5;  ///< share of faults that are
                                       ///< double-bit (0..100)
  std::uint32_t retention_window_log2 = 10;  ///< cycles per retention
                                             ///< window, log2
  std::uint32_t wear_sensitivity_log2 = 12;  ///< every 2^N writes to a line
                                             ///< doubles its failure odds

  void validate() const;
};

/// Deterministic, seed-driven retention-fault source. Stateful per line;
/// driven by the (addr, size, cycle) access stream. See file comment.
class FaultInjector {
 public:
  FaultInjector(const FaultConfig& faults, const EccConfig& ecc,
                std::uint64_t line_bytes);

  /// Extra cycles the ECC read path adds to this load, split by outcome so
  /// oracle fault knobs can drop one component. Updates per-line state
  /// (delivered faults scrub + refresh the line).
  struct LoadPenalty {
    sim::Cycle correction_cycles = 0;
    sim::Cycle refill_cycles = 0;
    sim::Cycle total() const { return correction_cycles + refill_cycles; }
  };
  LoadPenalty on_load(Addr addr, unsigned size, sim::Cycle now);

  /// A store rewrites the touched line(s): refreshes retention, advances
  /// the generation, and adds wear. Never faults (ECC re-encodes on
  /// write).
  void on_store(Addr addr, unsigned size, sim::Cycle now);

  std::uint64_t corrections() const { return corrections_; }
  std::uint64_t refills() const { return refills_; }

  void reset();

 private:
  struct LineState {
    sim::Cycle refreshed_at = 0;  ///< last write / scrub / first touch
    std::uint64_t generation = 0;
    std::uint64_t wear = 0;  ///< writes absorbed by this line
    /// Hash64(seed, line, generation), and the failure epoch derived from
    /// it and `wear`: the number of retention windows the line survives
    /// unrefreshed before its next read faults. epoch == 0 means neither
    /// is drawn for this generation yet (a drawn epoch is at least 1).
    std::uint64_t draw = 0;
    std::uint64_t epoch = 0;
  };

  /// Draws `s.draw` and `s.epoch` for the line's current generation.
  void redraw(std::uint64_t line, LineState& s) const;

  /// The state of `line`, inserted default-constructed (and `fresh` set)
  /// on its first touch.
  LineState& line_state(std::uint64_t line, bool& fresh);
  /// Doubles the table and re-inserts every line.
  void grow();

  /// Empty table slots hold this key. line_bytes >= 2, so a line number
  /// (addr >> line_shift) never reaches it.
  static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

  FaultConfig faults_;
  EccConfig ecc_;
  unsigned line_shift_;
  util::Hash64 seed_hash_;  ///< Hash64().u64(seed): every draw's prefix
  std::uint64_t corrections_ = 0;
  std::uint64_t refills_ = 0;
  // Open-addressing table: power-of-two size, at most half full.
  std::vector<std::uint64_t> keys_;  ///< line number, or kNoLine
  std::vector<LineState> states_;
  std::size_t used_ = 0;
};

/// Decorator adding the ECC read path (fault penalties + counters) to any
/// DL1 organization. Timing-only: the wrapped organization's contents,
/// replacement decisions, and counters are untouched; this wrapper adds
/// penalty cycles to load completions and, in sync_stats(), overlays the
/// `ecc_corrections` / `ecc_refills` counters onto a copy of the inner
/// stats. Between syncs stats() lags the accesses.
class FaultyDl1System final : public core::Dl1System {
 public:
  FaultyDl1System(std::unique_ptr<core::Dl1System> inner,
                  const FaultConfig& faults, const EccConfig& ecc,
                  std::uint64_t line_bytes);

  sim::Cycle load(Addr addr, unsigned size, sim::Cycle now) override {
    const sim::Cycle done = inner_->load(addr, size, now);
    return done + injector_.on_load(addr, size, now).total();
  }
  sim::Cycle store(Addr addr, unsigned size, sim::Cycle now) override {
    const sim::Cycle done = inner_->store(addr, size, now);
    injector_.on_store(addr, size, now);
    return done;
  }
  void prefetch(Addr addr, sim::Cycle now) override {
    inner_->prefetch(addr, now);
  }
  /// Copies the inner organization's counters and overlays the ECC ones.
  void sync_stats() override;
  std::string name() const override;
  const mem::SetAssocCache& array() const override;
  void reset() override;

  const core::Dl1System& inner() const { return *inner_; }

 private:
  std::unique_ptr<core::Dl1System> inner_;
  FaultInjector injector_;
};

}  // namespace sttsim::reliability
