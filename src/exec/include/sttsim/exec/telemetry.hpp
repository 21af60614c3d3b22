// Process-wide throughput counters for the experiment engine: how many
// simulations ran, how many trace operations they replayed, how many traces
// were generated (vs served from the trace store), and how long each cold
// phase — generate / decode / replay — took. The perf_smoke bench snapshots
// these around each figure to derive simulations/sec, trace-ops/sec and the
// per-phase timing breakdown for BENCH_perf.json.
#pragma once

#include <atomic>
#include <cstdint>

namespace sttsim::exec {

struct TelemetrySnapshot {
  std::uint64_t simulations = 0;      ///< completed System::run calls
  std::uint64_t trace_ops = 0;        ///< trace operations replayed
  std::uint64_t traces_generated = 0; ///< kernel traces generated (not hits)
  std::uint64_t memo_hits = 0;        ///< grid points served from the
                                      ///< persistent result store
  std::uint64_t memo_misses = 0;      ///< grid points simulated because the
                                      ///< store had no (valid) record
  std::uint64_t tasks_timed_out = 0;  ///< tasks skipped: deadline passed
  std::uint64_t tasks_cancelled = 0;  ///< tasks skipped: interrupted
  std::uint64_t trace_store_hits = 0;   ///< traces decoded from the store
  std::uint64_t trace_store_misses = 0; ///< store probes that regenerated
  std::uint64_t generate_ns = 0;      ///< wall ns synthesizing traces:
                                      ///< both emission passes (sizing and
                                      ///< fill), not the compression a
                                      ///< trace-store append adds
  std::uint64_t decode_ns = 0;        ///< wall ns deserializing/decompressing
                                      ///< stored traces (warm path)
  std::uint64_t replay_ns = 0;        ///< wall ns inside System::run /
                                      ///< run_batch replay

  TelemetrySnapshot operator-(const TelemetrySnapshot& rhs) const {
    return {simulations - rhs.simulations, trace_ops - rhs.trace_ops,
            traces_generated - rhs.traces_generated,
            memo_hits - rhs.memo_hits, memo_misses - rhs.memo_misses,
            tasks_timed_out - rhs.tasks_timed_out,
            tasks_cancelled - rhs.tasks_cancelled,
            trace_store_hits - rhs.trace_store_hits,
            trace_store_misses - rhs.trace_store_misses,
            generate_ns - rhs.generate_ns, decode_ns - rhs.decode_ns,
            replay_ns - rhs.replay_ns};
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
  void count_task_timed_out() {
    tasks_timed_out_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_task_cancelled() {
    tasks_cancelled_.fetch_add(1, std::memory_order_relaxed);
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

  TelemetrySnapshot snapshot() const {
    return {simulations_.load(std::memory_order_relaxed),
            trace_ops_.load(std::memory_order_relaxed),
            traces_generated_.load(std::memory_order_relaxed),
            memo_hits_.load(std::memory_order_relaxed),
            memo_misses_.load(std::memory_order_relaxed),
            tasks_timed_out_.load(std::memory_order_relaxed),
            tasks_cancelled_.load(std::memory_order_relaxed),
            trace_store_hits_.load(std::memory_order_relaxed),
            trace_store_misses_.load(std::memory_order_relaxed),
            generate_ns_.load(std::memory_order_relaxed),
            decode_ns_.load(std::memory_order_relaxed),
            replay_ns_.load(std::memory_order_relaxed)};
  }

  void reset() {
    simulations_.store(0, std::memory_order_relaxed);
    trace_ops_.store(0, std::memory_order_relaxed);
    traces_generated_.store(0, std::memory_order_relaxed);
    memo_hits_.store(0, std::memory_order_relaxed);
    memo_misses_.store(0, std::memory_order_relaxed);
    tasks_timed_out_.store(0, std::memory_order_relaxed);
    tasks_cancelled_.store(0, std::memory_order_relaxed);
    trace_store_hits_.store(0, std::memory_order_relaxed);
    trace_store_misses_.store(0, std::memory_order_relaxed);
    generate_ns_.store(0, std::memory_order_relaxed);
    decode_ns_.store(0, std::memory_order_relaxed);
    replay_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> simulations_{0};
  std::atomic<std::uint64_t> trace_ops_{0};
  std::atomic<std::uint64_t> traces_generated_{0};
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> memo_misses_{0};
  std::atomic<std::uint64_t> tasks_timed_out_{0};
  std::atomic<std::uint64_t> tasks_cancelled_{0};
  std::atomic<std::uint64_t> trace_store_hits_{0};
  std::atomic<std::uint64_t> trace_store_misses_{0};
  std::atomic<std::uint64_t> generate_ns_{0};
  std::atomic<std::uint64_t> decode_ns_{0};
  std::atomic<std::uint64_t> replay_ns_{0};
};

}  // namespace sttsim::exec
