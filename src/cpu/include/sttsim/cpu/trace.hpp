// The dynamic instruction trace consumed by the core model.
//
// Workload generators (src/workloads) emit these ops by symbolically
// executing the PolyBench kernels, with the paper's code transformations
// applied as they emit (workloads::CodegenOptions). The op set is the
// minimum an in-order, single-issue data-cache study needs: non-memory work
// (exec bundles), loads, stores, and software prefetch hints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sttsim/util/bits.hpp"

namespace sttsim::cpu {

enum class OpKind : std::uint8_t {
  kExec,      ///< `count` back-to-back non-memory instructions (1 cycle each)
  kLoad,      ///< load of `size` bytes at `addr`
  kStore,     ///< store of `size` bytes at `addr`
  kPrefetch,  ///< software prefetch hint for `addr`
};

struct TraceOp {
  OpKind kind = OpKind::kExec;
  std::uint8_t size = 0;     ///< access width in bytes (loads/stores)
  std::uint32_t count = 1;   ///< instruction count (exec bundles)
  Addr addr = 0;
  std::uint64_t value = 0;   ///< store payload (repeated byte-wise over
                             ///< `size`); only the check:: data-content
                             ///< shadow reads it. Decoded traces drop it, so
                             ///< the timing model never sees it.

  bool is_memory() const {
    return kind == OpKind::kLoad || kind == OpKind::kStore;
  }
  bool operator==(const TraceOp&) const = default;
};

using Trace = std::vector<TraceOp>;

/// Constructors for readability at call sites.
TraceOp make_exec(std::uint32_t count);
TraceOp make_load(Addr addr, unsigned size);
TraceOp make_store(Addr addr, unsigned size, std::uint64_t value = 0);
TraceOp make_prefetch(Addr addr);

/// Gives every store a nonzero deterministic payload derived from `seed` and
/// its position, so the data-content shadow check distinguishes stale data
/// from never-written data on traces whose generator did not assign values
/// (kernel generators emit value = 0).
void assign_store_values(Trace& trace, std::uint64_t seed);

/// Aggregate shape of a trace (used for tests and trace-level reports).
struct TraceSummary {
  std::uint64_t instructions = 0;  ///< total retired instruction count
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t exec_instructions = 0;
  std::uint64_t bytes_loaded = 0;
  std::uint64_t bytes_stored = 0;
};

TraceSummary summarize(const Trace& trace);

/// One-line description, e.g. "12034 ops: 4096 ld / 1024 st / 0 pf / 6914 ex".
std::string describe(const Trace& trace);

}  // namespace sttsim::cpu
