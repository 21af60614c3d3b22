// Differential fuzz driver: runs a production cpu::System and the reference
// oracle (check/oracle.hpp) in lockstep over one trace, comparing after every
// op. On divergence, a delta-debugging minimizer (ddmin) shrinks the trace to
// a 1-minimal reproducer that can be written out as a replayable artifact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sttsim/check/oracle.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/cpu/trace.hpp"

namespace sttsim::check {

/// The first point at which the simulator and the oracle disagreed.
struct Divergence {
  bool diverged = false;
  std::size_t op_index = 0;  ///< index of the offending op in the trace
  std::string field;  ///< "cycle", a sim::MemStats field name, or "shadow"
  std::uint64_t expected = 0;  ///< oracle-side value
  std::uint64_t observed = 0;  ///< simulator-side value
  std::string detail;          ///< one-line human-readable description
};

/// Runs `trace` through a freshly built cpu::System for `config` and through
/// the reference oracle in lockstep. The simulator side is
/// cpu::System::run_observed: the replay loop over the same DL1 class, with
/// the same dispatch, that System::run and so every figure use. After every
/// op the returned completion cycle, every sim::MemStats counter, and the
/// data-content shadow log are compared; the first mismatch is returned.
/// `faults` injects deliberate oracle bugs (checker-sensitivity tests).
Divergence run_differential(const cpu::SystemConfig& config,
                            const cpu::Trace& trace,
                            const OracleFaults& faults = {});

/// Result of delta-debugging minimization.
struct MinimizeResult {
  cpu::Trace trace;       ///< 1-minimal subsequence that still diverges
  Divergence divergence;  ///< the divergence the minimal trace triggers
  unsigned probes = 0;    ///< differential runs spent minimizing
};

/// ddmin: reduces `trace` to a 1-minimal subsequence that still diverges
/// under `config`/`faults`. If the full trace does not diverge, returns it
/// unchanged with `divergence.diverged == false`.
MinimizeResult minimize_trace(const cpu::SystemConfig& config,
                              const cpu::Trace& trace,
                              const OracleFaults& faults = {});

/// Writes a replayable reproducer: `<dir>/<tag>.trace` (binary trace,
/// cpu::trace_io format) plus `<dir>/<tag>.txt` describing the
/// configuration (L2 geometry included, which no sttsim flag sets), the
/// divergence, and the replay command. Creates `dir` if needed; returns
/// the trace path.
std::string write_reproducer(const std::string& dir, const std::string& tag,
                             const cpu::SystemConfig& config,
                             const MinimizeResult& result);

}  // namespace sttsim::check
