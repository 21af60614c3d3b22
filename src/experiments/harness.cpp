#include "sttsim/experiments/harness.hpp"

#include <atomic>
#include <cstdio>
#include <limits>
#include <optional>
#include <tuple>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/request.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/exec/trace_store.hpp"
#include "sttsim/util/check.hpp"
#include "sttsim/util/hash.hpp"

namespace sttsim::experiments {
namespace {

using exec::now_ns;

auto codegen_tuple(const workloads::CodegenOptions& o) {
  return std::make_tuple(o.vectorize, o.prefetch, o.branch_opts);
}

// ---- Simulation-input digests (persistent result-store keys) ----------
//
// Every field that can change what the simulator is handed is folded into
// the digest through the explicitly-encoded streaming hasher. Cosmetic
// fields (TechnologyParams::label) are deliberately excluded: they cannot
// change a single counter, so editing a label must not dirty a campaign.

void hash_codegen(util::Hash64& h, const workloads::CodegenOptions& o) {
  h.boolean(o.vectorize).boolean(o.prefetch).boolean(o.branch_opts);
}

void hash_technology(util::Hash64& h, const tech::TechnologyParams& t) {
  h.u8(static_cast<std::uint8_t>(t.tech))
      .f64(t.read_latency_ns)
      .f64(t.write_latency_ns)
      .f64(t.leakage_mw)
      .f64(t.cell_area_f2)
      .u64(t.capacity_bytes)
      .u32(t.associativity)
      .u32(t.line_bits)
      .f64(t.read_energy_nj)
      .f64(t.write_energy_nj);
}

void hash_system_config(util::Hash64& h, const cpu::SystemConfig& c) {
  h.u8(static_cast<std::uint8_t>(c.organization))
      .f64(c.clock_ghz)
      .u32(c.vwb_total_kbit)
      .u32(c.vwb_lines)
      .u32(c.nvm_banks)
      .u32(c.store_buffer_depth)
      .u32(c.writeback_buffer_depth)
      .u32(c.mshr_entries);
  hash_technology(h, c.sram);
  hash_technology(h, c.stt);
  h.u64(c.l2.capacity_bytes)
      .u32(c.l2.associativity)
      .u64(c.l2.line_bytes)
      .u64(c.l2.hit_latency)
      .u64(c.l2.port_occupancy)
      .u64(c.l2.memory_latency);
  // Reliability: keyed on faults_active(), not faults.enabled — enabling
  // faults on the SRAM baseline changes nothing, so it must not dirty its
  // points. The parameters are folded only when active, so editing (say)
  // the fault seed recomputes exactly the fault-injecting points.
  h.boolean(c.faults_active());
  if (c.faults_active()) {
    h.u64(c.faults.seed)
        .u32(c.faults.fail_ppm)
        .u32(c.faults.double_fault_pct)
        .u32(c.faults.retention_window_log2)
        .u32(c.faults.wear_sensitivity_log2)
        .u32(c.ecc.word_bits)
        .u32(c.ecc.check_bits)
        .u32(c.ecc.correction_cycles)
        .u32(c.ecc.refill_cycles);
  }
}

}  // namespace

std::uint64_t trace_digest(std::string_view kernel_name,
                           const workloads::CodegenOptions& opts) {
  // Own version preamble: trace blobs are keyed by everything that
  // determines their bytes and nothing else — system configuration does not
  // change a generated trace, so it is deliberately absent (one stored
  // trace serves every organization in a grid).
  util::Hash64 h;
  h.u32(util::kHashVersion)
      .u32(exec::TraceStore::kSchemaVersion)
      .u32(cpu::kTraceFormatVersion);
  h.u8(2);  // key flavor: generated-trace blob
  h.str(kernel_name);
  hash_codegen(h, opts);
  return h.digest();
}

std::uint64_t simulation_digest(std::string_view kernel_name,
                                const workloads::CodegenOptions& opts,
                                const cpu::SystemConfig& config) {
  // Version preamble: a record written under any different
  // hash/store/trace-format generation can never match.
  util::Hash64 h;
  h.u32(util::kHashVersion)
      .u32(exec::ResultStore::kSchemaVersion)
      .u32(cpu::kTraceFormatVersion);
  h.u8(0);  // key flavor: named suite kernel
  h.str(kernel_name);
  hash_codegen(h, opts);
  hash_system_config(h, config);
  return h.digest();
}

double penalty_pct(const sim::RunStats& variant,
                   const sim::RunStats& baseline) {
  // A run of zero cycles has no ratio; NaN prints as nan.
  if (baseline.core.total_cycles == 0 || variant.core.total_cycles == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double v = static_cast<double>(variant.core.total_cycles);
  const double b = static_cast<double>(baseline.core.total_cycles);
  return (v - b) / b * 100.0;
}

double gain_pct(const sim::RunStats& unoptimized,
                const sim::RunStats& optimized) {
  if (unoptimized.core.total_cycles == 0 || optimized.core.total_cycles == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double u = static_cast<double>(unoptimized.core.total_cycles);
  const double o = static_cast<double>(optimized.core.total_cycles);
  return (u - o) / u * 100.0;
}

bool TraceCache::KeyLess::less(const KeyView& a, const KeyView& b) {
  if (const int c = a.kernel.compare(b.kernel); c != 0) return c < 0;
  return codegen_tuple(*a.opts) < codegen_tuple(*b.opts);
}

cpu::DecodedTrace TraceCache::load(const workloads::Kernel& kernel,
                                   const workloads::CodegenOptions& opts) {
  exec::Telemetry& telemetry = exec::Telemetry::instance();
  exec::TraceStore* tstore = exec::trace_store();
  if (tstore != nullptr) {
    // Warm path: decode the stored compressed blob — no generation.
    // The compressed form lives only until it is decompressed.
    const std::uint64_t digest = trace_digest(kernel.name, opts);
    std::vector<std::uint8_t> blob;
    if (tstore->lookup(digest, blob)) {
      const std::uint64_t t0 = now_ns();
      cpu::CompressedTrace compressed;
      if (cpu::deserialize_compressed(blob.data(), blob.size(), compressed)) {
        blob = {};  // its bytes now live in `compressed`
        cpu::DecodedTrace decoded = cpu::decompress(compressed);
        telemetry.count_decode_ns(now_ns() - t0);
        telemetry.count_trace_store_hit();
        return decoded;
      }
      // Malformed blob (should be unreachable behind the store's
      // checksum): fall through and regenerate.
    }
    telemetry.count_trace_store_miss();
  }
  telemetry.count_trace_generated();
  const std::uint64_t t0 = now_ns();
  cpu::DecodedTrace decoded = kernel.generate_decoded(opts);
  telemetry.count_generate_ns(now_ns() - t0);
  if (tstore != nullptr) {
    const std::vector<std::uint8_t> blob =
        cpu::serialize_compressed(cpu::compress(decoded));
    tstore->append(trace_digest(kernel.name, opts), blob.data(), blob.size());
  }
  return decoded;
}

TraceCache::Handle TraceCache::acquire(const workloads::Kernel& kernel,
                                       const workloads::CodegenOptions& opts) {
  std::uint64_t wait_ns = 0;
  Handle trace = cache_.acquire(
      KeyView{kernel.name, &opts}, [&] { return Key{kernel.name, opts}; },
      [&] { return load(kernel, opts); }, &wait_ns);
  if (wait_ns != 0) exec::Telemetry::instance().count_trace_wait_ns(wait_ns);
  return trace;
}

void TraceCache::drop(const workloads::Kernel& kernel,
                      const workloads::CodegenOptions& opts) {
  cache_.drop(KeyView{kernel.name, &opts});
}

const cpu::DecodedTrace& TraceCache::get_decoded(
    const workloads::Kernel& kernel, const workloads::CodegenOptions& opts) {
  return cache_.get_or_generate(
      KeyView{kernel.name, &opts}, [&] { return Key{kernel.name, opts}; },
      [&] { return load(kernel, opts); });
}

const cpu::Trace& TraceCache::get(const workloads::Kernel& kernel,
                                  const workloads::CodegenOptions& opts) {
  return raw_cache_.get_or_generate(
      KeyView{kernel.name, &opts}, [&] { return Key{kernel.name, opts}; },
      [&] { return cpu::reassemble(*acquire(kernel, opts)); });
}

namespace {

/// The RunStats `store` holds under `digest`, counted as a memo hit or
/// miss; nullopt on a miss, and (uncounted) when `store` is null.
std::optional<sim::RunStats> lookup_result(const exec::ResultStore* store,
                                           std::uint64_t digest) {
  if (store == nullptr) return std::nullopt;
  std::uint8_t payload[sim::kRunStatsBytes];
  if (!store->lookup(digest, payload)) {
    exec::Telemetry::instance().count_memo_miss();
    return std::nullopt;
  }
  exec::Telemetry::instance().count_memo_hit();
  return sim::decode_run_stats(payload);
}

/// Appends `stats` to `store` under `digest`; a no-op when `store` is null.
void record_result(exec::ResultStore* store, std::uint64_t digest,
                   const sim::RunStats& stats) {
  if (store == nullptr) return;
  std::uint8_t payload[sim::kRunStatsBytes];
  sim::encode_run_stats(stats, payload);
  store->append(digest, payload);
}

/// One grid point still to simulate: jobs[j] on kernels[k]. `digest` is the
/// point's result-store key (0 and unused when no store is active).
struct GridPoint {
  std::size_t j = 0;
  std::size_t k = 0;
  std::uint64_t digest = 0;
};

/// Post-request policy of a grid: it returns only when every point has its
/// RunStats. A failed point rethrows its exception — the lowest-index one —
/// once every task has finished, and an interrupt (SIGINT) surfaces as
/// CampaignInterrupted after the in-flight points finished and appended
/// their records, so a re-run resumes from the store.
void finish_request(
    const std::vector<exec::TaskResult<sim::RunStats>>& tasks) {
  for (const exec::TaskResult<sim::RunStats>& t : tasks) {
    if (t.error) std::rethrow_exception(t.error);
  }
  if (exec::interrupt_source().cancelled()) {
    throw exec::CampaignInterrupted(
        "campaign interrupted: completed points are persisted; re-running "
        "the same grid completes only the missing ones");
  }
}

/// The order a grid's points run in, as indices into the j-major point
/// list. `trace_points[t]` lists trace t's points in j order, with traces
/// numbered codegen group first, then kernel. Traces run in that order, and
/// each trace's first point is queued `lookahead` traces ahead of its other
/// points, so by the time those start, the first one has usually finished
/// generating the trace and they do not block on its latch. A trace stays
/// resident from its first point to its last, so about lookahead + 1
/// traces are resident at a time.
std::vector<std::size_t> replay_order(
    const std::vector<std::vector<std::size_t>>& trace_points,
    std::size_t lookahead) {
  std::vector<const std::vector<std::size_t>*> traces;
  std::size_t n = 0;
  for (const std::vector<std::size_t>& tp : trace_points) {
    if (!tp.empty()) traces.push_back(&tp);
    n += tp.size();
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t s = 0; s < traces.size() + lookahead; ++s) {
    if (s < traces.size()) order.push_back(traces[s]->front());
    if (s >= lookahead) {
      const std::vector<std::size_t>& rest = *traces[s - lookahead];
      order.insert(order.end(), rest.begin() + 1, rest.end());
    }
  }
  return order;
}

/// Runs `points` (j-major) as one request task each, in replay_order with
/// the pool width as lookahead, and scatters results into out[j][k].
/// Completed misses append to the store from inside their task, so an
/// interrupted campaign keeps every point it finished. The last point of
/// each (kernel, codegen) trace to finish drops the cache's copy.
void run_points(TraceCache& cache,
                const std::vector<workloads::Kernel>& kernels,
                const std::vector<SuiteJob>& jobs,
                const std::vector<GridPoint>& points, exec::ResultStore* store,
                std::vector<std::vector<sim::RunStats>>& out) {
  exec::ParallelExecutor pool;
  const std::size_t n_kernels = kernels.size();
  // Codegen groups: the jobs that share one CodegenOptions, and so one
  // trace per kernel, numbered by first appearance.
  std::vector<std::size_t> group(jobs.size());
  std::vector<const workloads::CodegenOptions*> group_opts;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::size_t g = 0;
    while (g < group_opts.size() &&
           codegen_tuple(*group_opts[g]) != codegen_tuple(jobs[j].opts)) {
      ++g;
    }
    if (g == group_opts.size()) group_opts.push_back(&jobs[j].opts);
    group[j] = g;
  }
  const auto trace_of = [&](const GridPoint& p) {
    return group[p.j] * n_kernels + p.k;
  };
  std::vector<std::vector<std::size_t>> trace_points(group_opts.size() *
                                                     n_kernels);
  for (std::size_t i = 0; i < points.size(); ++i) {
    trace_points[trace_of(points[i])].push_back(i);
  }
  const std::vector<std::size_t> order =
      replay_order(trace_points, pool.jobs());
  // Points of each trace that have not finished yet.
  std::vector<std::atomic<std::size_t>> pending(trace_points.size());
  for (std::size_t t = 0; t < trace_points.size(); ++t) {
    pending[t].store(trace_points[t].size(), std::memory_order_relaxed);
  }
  const auto drop = [&](std::size_t t) {
    cache.drop(kernels[t % n_kernels], *group_opts[t / n_kernels]);
  };

  auto result = exec::run_request(pool, order.size(), [&](std::size_t i) {
    const GridPoint& p = points[order[i]];
    const SuiteJob& job = jobs[p.j];
    sim::RunStats stats;
    {
      const TraceCache::Handle trace = cache.acquire(kernels[p.k], job.opts);
      cpu::System system(job.config, cpu::System::kPrevalidated);
      const std::uint64_t t0 = now_ns();
      stats = system.run(*trace);
      exec::Telemetry::instance().count_replay_ns(now_ns() - t0);
      exec::Telemetry::instance().count_simulation(trace->size());
    }
    record_result(store, p.digest, stats);
    if (pending[trace_of(p)].fetch_sub(1) == 1) drop(trace_of(p));
    return stats;
  });
  // A point skipped after an interrupt, or a failed one, never counted
  // down: drop what its trace left resident.
  for (std::size_t t = 0; t < trace_points.size(); ++t) {
    if (pending[t].load() != 0) drop(t);
  }
  // Back to j-major order, so results land in out[j][k] and the rethrown
  // error is the lowest-index one.
  std::vector<exec::TaskResult<sim::RunStats>> tasks(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    tasks[order[i]] = std::move(result[i]);
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (tasks[i].value) out[points[i].j][points[i].k] = *tasks[i].value;
  }
  finish_request(tasks);
}

}  // namespace

std::vector<std::vector<sim::RunStats>> run_grid(
    TraceCache& cache, const std::vector<workloads::Kernel>& kernels,
    const std::vector<SuiteJob>& jobs) {
  // Validate each configuration once, here, instead of once per grid
  // point: the jobs then construct Systems on the pre-validated path.
  for (const SuiteJob& job : jobs) job.config.validate();
  const std::size_t n_kernels = kernels.size();

  // Probe the persistent result store (when active) for every point up
  // front: probes are cheap (a digest and a map lookup — no trace is
  // generated or decoded), hits land in their deterministic out[j][k]
  // positions immediately, and only the misses become pool tasks. Keeping
  // known results out of the task list eliminates head-of-line blocking on
  // a mostly-warm grid: the pool's whole width goes to the dirty slice.
  exec::ResultStore* store = exec::result_store();
  std::vector<std::vector<sim::RunStats>> out(
      jobs.size(), std::vector<sim::RunStats>(n_kernels));
  std::vector<GridPoint> points;
  points.reserve(jobs.size() * n_kernels);
  std::size_t hits = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (std::size_t k = 0; k < n_kernels; ++k) {
      GridPoint p{j, k, 0};
      if (store != nullptr) {
        p.digest =
            simulation_digest(kernels[k].name, jobs[j].opts, jobs[j].config);
      }
      if (const auto hit = lookup_result(store, p.digest)) {
        out[j][k] = *hit;
        ++hits;
        continue;
      }
      points.push_back(p);
    }
  }

  if (!points.empty()) run_points(cache, kernels, jobs, points, store, out);
  if (store != nullptr) {
    std::fprintf(
        stderr,
        "[sttsim] result store %s: %zu/%zu grid points warm, %zu simulated\n",
        store->path().c_str(), hits, jobs.size() * n_kernels, points.size());
  }
  return out;
}

cpu::SystemConfig make_config(cpu::Dl1Organization org) {
  cpu::SystemConfig c;
  c.organization = org;
  return c;
}

std::vector<workloads::Kernel> select_kernels(
    const std::vector<std::string>& names) {
  if (names.empty()) return workloads::polybench_suite();
  std::vector<workloads::Kernel> out;
  out.reserve(names.size());
  for (const std::string& n : names) {
    out.push_back(workloads::find_kernel(n));
  }
  return out;
}

tech::EnergyBreakdown dl1_energy(const sim::RunStats& stats,
                                 const tech::TechnologyParams& t,
                                 double clock_ghz) {
  tech::AccessCounts counts;
  counts.reads = stats.mem.l1_array_reads;
  counts.writes = stats.mem.l1_array_writes;
  return tech::compute_energy(t, counts, stats.core.total_cycles, clock_ghz);
}

}  // namespace sttsim::experiments
