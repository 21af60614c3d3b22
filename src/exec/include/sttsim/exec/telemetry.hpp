// Process-wide throughput counters for the experiment engine: how many
// simulations ran, how many trace operations they replayed, how many traces
// were generated (vs served from the trace store), how long each cold
// phase — generate / decode / replay — took, and how long grid points
// waited for a trace another worker was generating. Readers subtract two
// snapshots taken around a run: perfbench derives its throughput and
// per-phase metrics that way, bench/perf_smoke its per-figure
// trace_wait_ns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace sttsim::exec {

/// Steady-clock nanoseconds: the time base of the phase timers below.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct TelemetrySnapshot {
  std::uint64_t simulations = 0;      ///< completed System::run calls
  std::uint64_t trace_ops = 0;        ///< trace operations replayed
  std::uint64_t traces_generated = 0; ///< kernel traces generated (not hits)
  std::uint64_t memo_hits = 0;        ///< grid points served from the
                                      ///< persistent result store
  std::uint64_t memo_misses = 0;      ///< grid points simulated because the
                                      ///< store had no (valid) record
  std::uint64_t trace_store_hits = 0;   ///< traces decoded from the store
  std::uint64_t trace_store_misses = 0; ///< store probes that regenerated
  std::uint64_t generate_ns = 0;      ///< wall ns synthesizing traces
                                      ///< (the one emission pass), not the
                                      ///< compression a trace-store append
                                      ///< adds
  std::uint64_t decode_ns = 0;        ///< wall ns deserializing/decompressing
                                      ///< stored traces (warm path)
  std::uint64_t replay_ns = 0;        ///< wall ns inside System::run
  std::uint64_t trace_wait_ns = 0;    ///< wall ns requesters blocked on
                                      ///< another worker's generation of
                                      ///< the same trace

  TelemetrySnapshot operator-(const TelemetrySnapshot& rhs) const {
    return {simulations - rhs.simulations, trace_ops - rhs.trace_ops,
            traces_generated - rhs.traces_generated,
            memo_hits - rhs.memo_hits, memo_misses - rhs.memo_misses,
            trace_store_hits - rhs.trace_store_hits,
            trace_store_misses - rhs.trace_store_misses,
            generate_ns - rhs.generate_ns, decode_ns - rhs.decode_ns,
            replay_ns - rhs.replay_ns, trace_wait_ns - rhs.trace_wait_ns};
  }
};

/// Thread-safe global counters (atomics; cheap enough for per-run bumps).
class Telemetry {
 public:
  static Telemetry& instance();

  void count_simulation(std::uint64_t ops_replayed) {
    simulations_.fetch_add(1, std::memory_order_relaxed);
    trace_ops_.fetch_add(ops_replayed, std::memory_order_relaxed);
  }
  void count_trace_generated() {
    traces_generated_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_memo_hit() { memo_hits_.fetch_add(1, std::memory_order_relaxed); }
  void count_memo_miss() {
    memo_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_trace_store_hit() {
    trace_store_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_trace_store_miss() {
    trace_store_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_generate_ns(std::uint64_t ns) {
    generate_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void count_decode_ns(std::uint64_t ns) {
    decode_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void count_replay_ns(std::uint64_t ns) {
    replay_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void count_trace_wait_ns(std::uint64_t ns) {
    trace_wait_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  TelemetrySnapshot snapshot() const {
    return {simulations_.load(std::memory_order_relaxed),
            trace_ops_.load(std::memory_order_relaxed),
            traces_generated_.load(std::memory_order_relaxed),
            memo_hits_.load(std::memory_order_relaxed),
            memo_misses_.load(std::memory_order_relaxed),
            trace_store_hits_.load(std::memory_order_relaxed),
            trace_store_misses_.load(std::memory_order_relaxed),
            generate_ns_.load(std::memory_order_relaxed),
            decode_ns_.load(std::memory_order_relaxed),
            replay_ns_.load(std::memory_order_relaxed),
            trace_wait_ns_.load(std::memory_order_relaxed)};
  }

  void reset() {
    simulations_.store(0, std::memory_order_relaxed);
    trace_ops_.store(0, std::memory_order_relaxed);
    traces_generated_.store(0, std::memory_order_relaxed);
    memo_hits_.store(0, std::memory_order_relaxed);
    memo_misses_.store(0, std::memory_order_relaxed);
    trace_store_hits_.store(0, std::memory_order_relaxed);
    trace_store_misses_.store(0, std::memory_order_relaxed);
    generate_ns_.store(0, std::memory_order_relaxed);
    decode_ns_.store(0, std::memory_order_relaxed);
    replay_ns_.store(0, std::memory_order_relaxed);
    trace_wait_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> simulations_{0};
  std::atomic<std::uint64_t> trace_ops_{0};
  std::atomic<std::uint64_t> traces_generated_{0};
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> memo_misses_{0};
  std::atomic<std::uint64_t> trace_store_hits_{0};
  std::atomic<std::uint64_t> trace_store_misses_{0};
  std::atomic<std::uint64_t> generate_ns_{0};
  std::atomic<std::uint64_t> decode_ns_{0};
  std::atomic<std::uint64_t> replay_ns_{0};
  std::atomic<std::uint64_t> trace_wait_ns_{0};
};

}  // namespace sttsim::exec
