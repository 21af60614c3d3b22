// Shared plumbing for the paper's experiments: run (kernel x organization x
// codegen) grids — fanned across a thread pool — compute penalties/gains,
// and cache generated traces.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sttsim/cpu/system.hpp"
#include "sttsim/exec/memo_cache.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/tech/energy.hpp"
#include "sttsim/workloads/suite.hpp"

namespace sttsim::experiments {

/// Performance penalty of `variant` relative to `baseline`, in percent —
/// the paper's metric ("SRAM D-cache baseline = 100%"): 0% means equal
/// runtime, 54% means 1.54x the baseline cycles. NaN when either side ran
/// zero cycles.
double penalty_pct(const sim::RunStats& variant,
                   const sim::RunStats& baseline);

/// Performance gain of `optimized` over `unoptimized` on the same system,
/// in percent (Fig. 9's metric). NaN when either side ran zero cycles.
double gain_pct(const sim::RunStats& unoptimized,
                const sim::RunStats& optimized);

/// Memoizes generated traces per (kernel, codegen). The one in-memory form
/// is the replay-optimized decoded trace, synthesized in one pass straight
/// into packed, chunked ops (Kernel::generate_decoded) and shared read-only by
/// every grid point that replays this (kernel, codegen), so grid replays
/// never touch a raw TraceOp vector or a decode() pass.
/// Concurrency-safe: a shared_mutex guards the index and a per-key
/// once-latch guarantees each trace is generated once per residency even
/// when many parallel jobs request it simultaneously; the time acquire()
/// blocks on that latch is Telemetry::trace_wait_ns. Cache hits allocate
/// nothing (heterogeneous lookup by kernel-name view + codegen fields; no
/// key string is built).
///
/// Lifetime is grid-scoped: run_grid counts the points that replay each
/// trace and drops the cache's copy when the last of them finishes (and
/// drops whatever its skipped points left behind when the grid returns),
/// so only the traces of in-flight points stay resident. A dropped trace
/// is generated again if anything asks for it later. A decoded trace
/// handed out by reference (get_decoded) is pinned instead: it stays
/// resident until the cache is destroyed.
///
/// When a persistent trace store is active (exec::set_trace_store; the
/// CLI's --trace-store=PATH flag), a miss probes the store by
/// trace_digest first — a hit deserializes the stored CompressedTrace,
/// decompresses it and drops the compressed form (no generation at all;
/// Telemetry::traces_generated stays 0 on a warm run) — and a generated
/// trace is compressed (cpu::compress) only to be appended for the next run.
class TraceCache {
 public:
  /// Shared, read-only ownership of a decoded trace: valid for as long as
  /// the handle lives, even after the cache drops its own copy.
  using Handle = std::shared_ptr<const cpu::DecodedTrace>;

  /// The decoded trace of `kernel` under `opts`, generated (or decoded from
  /// the trace store) if the cache does not hold it.
  Handle acquire(const workloads::Kernel& kernel,
                 const workloads::CodegenOptions& opts);
  /// Releases the cache's copy of this trace unless it is pinned; handles
  /// keep theirs.
  void drop(const workloads::Kernel& kernel,
            const workloads::CodegenOptions& opts);

  /// Reference form of acquire(); pins the trace (see the class comment).
  const cpu::DecodedTrace& get_decoded(const workloads::Kernel& kernel,
                                       const workloads::CodegenOptions& opts);
  /// Raw TraceOp form, reassembled from the decoded trace on first request
  /// and memoized separately (grid replays never call this).
  const cpu::Trace& get(const workloads::Kernel& kernel,
                        const workloads::CodegenOptions& opts);

  /// Decoded-trace generations so far, regenerations after a drop
  /// included.
  std::size_t entries() const { return cache_.entries(); }
  /// Decoded traces the cache currently holds.
  std::size_t resident() const { return cache_.resident(); }

 private:
  struct Key {
    std::string kernel;
    workloads::CodegenOptions opts;
  };
  struct KeyView {
    std::string_view kernel;
    const workloads::CodegenOptions* opts;
  };
  struct KeyLess {
    using is_transparent = void;
    static KeyView view(const Key& k) { return {k.kernel, &k.opts}; }
    static KeyView view(const KeyView& v) { return v; }
    static bool less(const KeyView& a, const KeyView& b);
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return less(view(a), view(b));
    }
  };

  cpu::DecodedTrace load(const workloads::Kernel& kernel,
                         const workloads::CodegenOptions& opts);

  exec::ConcurrentMemoCache<Key, cpu::DecodedTrace, KeyLess> cache_;
  /// Raw traces live in their own memo so entries() — the generation count
  /// tests observe — keeps counting workloads, not diagnostic reassemblies.
  exec::ConcurrentMemoCache<Key, cpu::Trace, KeyLess> raw_cache_;
};

/// Stable 64-bit digest of everything that determines a generated trace's
/// bytes: kernel identity, codegen options — plus the trace-format version,
/// the trace-store schema version, and the hash algorithm version, so a
/// format change invalidates stored blobs instead of misreading them. This
/// is the persistent trace store's key (exec::TraceStore): equal digests
/// certify "the generator would emit a bit-identical trace".
std::uint64_t trace_digest(std::string_view kernel_name,
                           const workloads::CodegenOptions& opts);

/// Stable 64-bit digest of the *full* simulation input of one grid point:
/// kernel identity, codegen options, DL1 organization geometry, technology
/// and latency parameters, L2 configuration — plus the trace-format
/// version, the result-store schema version, and the hash algorithm
/// version, so any semantic or layout change invalidates old keys instead
/// of silently matching them. This is the persistent result store's key
/// (exec::ResultStore): equal digests certify "the simulator would be
/// handed bit-identical inputs".
std::uint64_t simulation_digest(std::string_view kernel_name,
                                const workloads::CodegenOptions& opts,
                                const cpu::SystemConfig& config);

/// One grid point of an experiment: a full system configuration plus the
/// codegen options the kernels are compiled with.
struct SuiteJob {
  cpu::SystemConfig config;
  workloads::CodegenOptions opts;
};

/// Runs every kernel under every job of the grid, fanning the
/// (job x kernel) points across a worker pool sized by the process-wide
/// default (exec::default_jobs(); the CLI's --jobs flag). Each config
/// is validated once up front and shared read-only by its jobs. Results
/// come back in deterministic input order — result[j][k] is jobs[j] on
/// kernels[k] — byte-identical to the historical serial loops.
///
/// Points run trace by trace: codegen group first, then kernel, with each
/// trace's first point queued pool-width traces ahead of its other points
/// so those find the trace already generated. The last point of a trace
/// to finish drops it from `cache` (see TraceCache), so each trace is
/// generated once per grid and only those of in-flight points stay
/// resident.
///
/// run_grid is the only code that reads or writes the result store. When
/// one is active (exec::set_result_store; the CLI's --store=PATH flag),
/// every point's digest is probed up front:
/// hits are filled into the deterministic result positions immediately
/// (bypassing trace generation and simulation; counted as memo_hits) and
/// only the misses become pool tasks (counted as memo_misses), so a
/// mostly-warm grid spends no pool time on already-known results and a
/// one-parameter edit recomputes only the dirty slice. Each miss appends
/// its record as its task completes. Warm results decode to bit-identical
/// RunStats, so figure outputs are byte-identical cold vs warm at any
/// --jobs width.
///
/// The whole grid runs as one exec::run_request(), and it either returns
/// every point's RunStats or throws. Each point checks the interrupt flag
/// when it starts: once it has tripped (SIGINT), the points that have not
/// started are skipped, while started points always finish — and are
/// persisted when a store is active — and run_grid then throws
/// exec::CampaignInterrupted, so re-running the same grid completes only
/// the missing ones. A failed point rethrows the exception of the lowest
/// j-major index after every task finished.
std::vector<std::vector<sim::RunStats>> run_grid(
    TraceCache& cache, const std::vector<workloads::Kernel>& kernels,
    const std::vector<SuiteJob>& jobs);

/// Convenience: a SystemConfig for an organization with paper defaults.
cpu::SystemConfig make_config(cpu::Dl1Organization org);

/// The kernels to evaluate: the full suite, or the named subset
/// (used to keep unit/integration tests fast).
std::vector<workloads::Kernel> select_kernels(
    const std::vector<std::string>& names);

/// DL1 energy for one run under technology `t` (array accesses + leakage).
tech::EnergyBreakdown dl1_energy(const sim::RunStats& stats,
                                 const tech::TechnologyParams& t,
                                 double clock_ghz = 1.0);

}  // namespace sttsim::experiments
