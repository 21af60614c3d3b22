// Shared plumbing for the paper's experiments: run (kernel x organization x
// codegen) grids — fanned across a thread pool — compute penalties/gains,
// and cache generated traces.
#pragma once

#include <cstdint>
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
/// runtime, 54% means 1.54x the baseline cycles. NaN when either side is a
/// degraded (timed-out/cancelled, all-zero) grid point — "no data", which
/// prints as nan and perf_compare ignores.
double penalty_pct(const sim::RunStats& variant,
                   const sim::RunStats& baseline);

/// Performance gain of `optimized` over `unoptimized` on the same system,
/// in percent (Fig. 9's metric). NaN when either side is degraded.
double gain_pct(const sim::RunStats& unoptimized,
                const sim::RunStats& optimized);

/// Memoizes generated traces per (kernel, codegen) so multi-figure bench
/// binaries do not regenerate identical traces. The one in-memory form is
/// the replay-optimized decoded trace, synthesized straight into exactly
/// sized packed arrays (Kernel::generate_decoded) and shared read-only by
/// every grid point that replays this (kernel, codegen) — solo and batched
/// replay alike — so grid replays never touch a raw TraceOp vector or a
/// decode() pass.
/// Concurrency-safe: a shared_mutex guards the index and a per-key
/// once-latch guarantees each trace is generated exactly once even when many
/// parallel jobs request it simultaneously. Cache hits allocate nothing
/// (heterogeneous lookup by kernel-name view + codegen fields; no key string
/// is built).
///
/// When a persistent trace store is active (exec::set_trace_store; the
/// benches' --trace-store=PATH flag), a miss probes the store by
/// trace_digest first — a hit deserializes the stored CompressedTrace,
/// decompresses it and drops the compressed form (no generation at all;
/// Telemetry::traces_generated stays 0 on a warm run) — and a generated
/// trace is compressed (cpu::compress) only to be appended for the next run.
class TraceCache {
 public:
  const cpu::DecodedTrace& get_decoded(const workloads::Kernel& kernel,
                                       const workloads::CodegenOptions& opts);
  /// Raw TraceOp form, reassembled from the decoded trace on first request
  /// and memoized separately (diagnostics only — lifetime reports, dumps;
  /// the replay paths never call this).
  const cpu::Trace& get(const workloads::Kernel& kernel,
                        const workloads::CodegenOptions& opts);

  std::size_t entries() const { return cache_.entries(); }

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

/// Same key space for externally captured traces (the CLI's --trace-in):
/// kernel identity is replaced by a content digest over every trace op.
std::uint64_t simulation_digest(const cpu::Trace& trace,
                                const cpu::SystemConfig& config);

/// Runs one kernel on one system configuration with the given codegen.
/// When a persistent result store is active (exec::set_result_store), the
/// store is probed first — a hit bypasses the simulation entirely — and
/// computed results are appended for the next run.
sim::RunStats run_kernel(TraceCache& cache, const workloads::Kernel& kernel,
                         const cpu::SystemConfig& config,
                         const workloads::CodegenOptions& opts);

/// One grid point of an experiment: a full system configuration plus the
/// codegen options the kernels are compiled with.
struct SuiteJob {
  cpu::SystemConfig config;
  workloads::CodegenOptions opts;
};

/// Runs every kernel under every job of the grid, fanning the
/// (job x kernel) points across a worker pool sized by the process-wide
/// default (exec::default_jobs(); the benches' --jobs flag). Each config
/// is validated once up front and shared read-only by its jobs. Results
/// come back in deterministic input order — result[j][k] is jobs[j] on
/// kernels[k] — byte-identical to the historical serial loops.
///
/// When exec::default_batch() > 1 (the benches' --batch=K flag), grid
/// points are grouped by (kernel x codegen x organization-class) and each
/// pool task replays one pass over the cached decoded trace for up to K
/// same-class configurations at once (cpu::System::run_batch). The batched
/// engine's per-lane call sequence is identical to the solo replay, so
/// results stay byte-identical to --batch=1 — only the schedule changes.
///
/// When a persistent result store is active (exec::set_result_store; the
/// benches' --store=PATH flag), every point's digest is probed up front:
/// hits are filled into the deterministic result positions immediately
/// (bypassing trace generation and simulation; counted as memo_hits) and
/// only the misses are partitioned into pool tasks (counted as
/// memo_misses), so a mostly-warm grid spends no pool time on already-known
/// results and a one-parameter edit recomputes only the dirty slice. Each
/// miss appends its record as its task completes. Warm results decode to
/// bit-identical RunStats, so figure outputs are byte-identical cold vs
/// warm at any --jobs/--batch combination. The store is refreshed before
/// probing, so records appended by concurrent processes sharing the file
/// count as hits too.
///
/// The whole grid runs as one exec::run_request() under
/// exec::default_request() (the benches' --deadline flag). Each point
/// checks the interrupt flag and the deadline when it starts: once either
/// has tripped, the points that have not started are skipped and keep
/// default RunStats (counted as timed-out or cancelled), while started
/// points always finish — and are persisted when a store is active. A
/// failed point rethrows the lowest-index exception after every task
/// finished; an interrupt (SIGINT) throws exec::CampaignInterrupted after
/// completed points are scattered, so re-running the same grid completes
/// only the missing ones. With no deadline and no interrupt the lifecycle
/// is invisible: output stays byte-identical.
std::vector<std::vector<sim::RunStats>> run_grid(
    TraceCache& cache, const std::vector<workloads::Kernel>& kernels,
    const std::vector<SuiteJob>& jobs);

/// Runs every selected kernel on one configuration (a one-job grid);
/// stats in suite order.
std::vector<sim::RunStats> run_suite(
    TraceCache& cache, const std::vector<workloads::Kernel>& kernels,
    const cpu::SystemConfig& config, const workloads::CodegenOptions& opts);

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
