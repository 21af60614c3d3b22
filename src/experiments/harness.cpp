#include "sttsim/experiments/harness.hpp"

#include <chrono>
#include <cstdio>
#include <limits>
#include <tuple>

#include "sttsim/cpu/batch_replay.hpp"
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

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

auto codegen_tuple(const workloads::CodegenOptions& o) {
  return std::make_tuple(o.vectorize, o.vector_width, o.prefetch,
                         o.prefetch_distance_bytes, o.branch_opts);
}

// ---- Simulation-input digests (persistent result-store keys) ----------
//
// Every field that can change what the simulator is handed is folded into
// the digest through the explicitly-encoded streaming hasher. Cosmetic
// fields (TechnologyParams::label) are deliberately excluded: they cannot
// change a single counter, so editing a label must not dirty a campaign.

void hash_codegen(util::Hash64& h, const workloads::CodegenOptions& o) {
  h.boolean(o.vectorize)
      .u32(o.vector_width)
      .boolean(o.prefetch)
      .u64(o.prefetch_distance_bytes)
      .boolean(o.branch_opts);
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

/// Version preamble shared by both digest flavors: a record written under
/// any different hash/store/trace-format generation can never match.
util::Hash64 digest_base() {
  util::Hash64 h;
  h.u32(util::kHashVersion)
      .u32(exec::ResultStore::kSchemaVersion)
      .u32(cpu::kTraceFormatVersion);
  return h;
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
  util::Hash64 h = digest_base();
  h.u8(0);  // key flavor: named suite kernel
  h.str(kernel_name);
  hash_codegen(h, opts);
  hash_system_config(h, config);
  return h.digest();
}

std::uint64_t simulation_digest(const cpu::Trace& trace,
                                const cpu::SystemConfig& config) {
  util::Hash64 h = digest_base();
  h.u8(1);  // key flavor: external trace content
  h.u64(trace.size());
  for (const cpu::TraceOp& op : trace) {
    h.u8(static_cast<std::uint8_t>(op.kind))
        .u8(op.size)
        .u32(op.count)
        .u64(op.addr)
        .u64(op.value);
  }
  hash_system_config(h, config);
  return h.digest();
}

double penalty_pct(const sim::RunStats& variant,
                   const sim::RunStats& baseline) {
  // A timed-out or cancelled grid point degrades to all-zero counters
  // (skip-and-report); its derived metric is "no data", not an invariant
  // violation. NaN prints as nan and perf_compare ignores it.
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

const cpu::DecodedTrace& TraceCache::get_decoded(
    const workloads::Kernel& kernel, const workloads::CodegenOptions& opts) {
  const KeyView lookup{kernel.name, &opts};
  return cache_.get_or_generate(
      lookup, [&] { return Key{kernel.name, opts}; },
      [&] {
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
            if (cpu::deserialize_compressed(blob.data(), blob.size(),
                                            compressed)) {
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
        // Direct-to-decoded synthesis; hand-rolled Kernel objects (tests)
        // may only provide the raw generator — decode then.
        cpu::DecodedTrace decoded = kernel.generate_decoded
                                        ? kernel.generate_decoded(opts)
                                        : cpu::decode(kernel.generate(opts));
        telemetry.count_generate_ns(now_ns() - t0);
        if (tstore != nullptr) {
          const std::vector<std::uint8_t> blob =
              cpu::serialize_compressed(cpu::compress(decoded));
          tstore->append(trace_digest(kernel.name, opts), blob.data(),
                         blob.size());
        }
        return decoded;
      });
}

const cpu::Trace& TraceCache::get(const workloads::Kernel& kernel,
                                  const workloads::CodegenOptions& opts) {
  const KeyView lookup{kernel.name, &opts};
  return raw_cache_.get_or_generate(
      lookup, [&] { return Key{kernel.name, opts}; },
      [&] { return cpu::reassemble(get_decoded(kernel, opts)); });
}

sim::RunStats run_kernel(TraceCache& cache, const workloads::Kernel& kernel,
                         const cpu::SystemConfig& config,
                         const workloads::CodegenOptions& opts) {
  exec::ResultStore* store = exec::result_store();
  std::uint64_t digest = 0;
  if (store != nullptr) {
    digest = simulation_digest(kernel.name, opts, config);
    std::uint8_t payload[sim::kRunStatsBytes];
    if (store->lookup(digest, payload)) {
      exec::Telemetry::instance().count_memo_hit();
      return sim::decode_run_stats(payload);
    }
    exec::Telemetry::instance().count_memo_miss();
  }
  const cpu::DecodedTrace& trace = cache.get_decoded(kernel, opts);
  cpu::System system(config);
  const std::uint64_t t0 = now_ns();
  const sim::RunStats stats = system.run(trace);
  exec::Telemetry::instance().count_replay_ns(now_ns() - t0);
  exec::Telemetry::instance().count_simulation(trace.size());
  if (store != nullptr) {
    std::uint8_t payload[sim::kRunStatsBytes];
    sim::encode_run_stats(stats, payload);
    store->append(digest, payload);
  }
  return stats;
}

namespace {

/// One grid point still to simulate: jobs[j] on kernels[k]. `digest` is the
/// point's result-store key (0 and unused when no store is active).
struct GridPoint {
  std::size_t j = 0;
  std::size_t k = 0;
  std::uint64_t digest = 0;
};

void store_append(exec::ResultStore* store, std::uint64_t digest,
                  const sim::RunStats& stats) {
  if (store == nullptr) return;
  std::uint8_t payload[sim::kRunStatsBytes];
  sim::encode_run_stats(stats, payload);
  store->append(digest, payload);
}

/// Post-request policy shared by the solo and batched paths. Points the
/// request skipped (timed-out or cancelled) keep default RunStats in their
/// result slots; the telemetry counters and the grid summary carry the
/// tally. A failed point rethrows its exception — the lowest-index one —
/// once every task has finished, and an interrupt (SIGINT) surfaces as
/// CampaignInterrupted after the in-flight points finished and appended
/// their records, so a re-run resumes from the store.
template <typename T>
void finish_request(const std::vector<exec::TaskResult<T>>& tasks) {
  for (const exec::TaskResult<T>& t : tasks) {
    if (t.error) std::rethrow_exception(t.error);
  }
  if (exec::interrupt_source().cancelled()) {
    throw exec::CampaignInterrupted(
        "campaign interrupted: completed points are persisted; re-running "
        "the same grid completes only the missing ones");
  }
}

/// Runs `points` as one request task each (the unbatched replay path, in
/// the given order — j-major for a full grid, matching the historical
/// serial loops) and scatters results into out[j][k]. Completed
/// misses append to the store from inside their task, so an interrupted
/// campaign keeps every point it finished.
void run_points_solo(TraceCache& cache,
                     const std::vector<workloads::Kernel>& kernels,
                     const std::vector<SuiteJob>& jobs,
                     const std::vector<GridPoint>& points,
                     exec::ResultStore* store,
                     std::vector<std::vector<sim::RunStats>>& out) {
  exec::ParallelExecutor pool;
  const auto result = exec::run_request(
      pool, exec::default_request(), points.size(), [&](std::size_t i) {
        const GridPoint& p = points[i];
        const SuiteJob& job = jobs[p.j];
        const cpu::DecodedTrace& trace =
            cache.get_decoded(kernels[p.k], job.opts);
        cpu::System system(job.config, cpu::System::kPrevalidated);
        const std::uint64_t t0 = now_ns();
        const sim::RunStats stats = system.run(trace);
        exec::Telemetry::instance().count_replay_ns(now_ns() - t0);
        exec::Telemetry::instance().count_simulation(trace.size());
        store_append(store, p.digest, stats);
        return stats;
      });
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (result[i].value) out[points[i].j][points[i].k] = *result[i].value;
  }
  finish_request(result);
}

/// The batched grid schedule: `points` grouped by (kernel x codegen) — all
/// lanes of one pass must replay the identical trace — then split into
/// same-organization-class lane sets of at most `batch` configurations
/// (cpu::partition_batches). Each task replays one lane set in a single
/// pass over the cached decoded trace and scatters per-lane results back to
/// the deterministic out[j][k] positions; per-lane results are bit-identical
/// to the solo path regardless of how points are partitioned, so a store-
/// thinned (miss-only) point set changes the schedule, never the numbers.
void run_points_batched(TraceCache& cache,
                        const std::vector<workloads::Kernel>& kernels,
                        const std::vector<SuiteJob>& jobs,
                        const std::vector<GridPoint>& points, unsigned batch,
                        exec::ResultStore* store,
                        std::vector<std::vector<sim::RunStats>>& out) {
  // Codegen group of every job (first-appearance order).
  std::vector<const workloads::CodegenOptions*> group_opts;
  std::vector<std::size_t> job_group(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::size_t g = 0;
    while (g < group_opts.size() &&
           codegen_tuple(*group_opts[g]) != codegen_tuple(jobs[j].opts)) {
      ++g;
    }
    if (g == group_opts.size()) group_opts.push_back(&jobs[j].opts);
    job_group[j] = g;
  }

  // Bucket point indices by (kernel, codegen group), preserving order.
  const std::size_t n_groups = group_opts.size();
  std::vector<std::vector<std::size_t>> buckets(kernels.size() * n_groups);
  for (std::size_t i = 0; i < points.size(); ++i) {
    buckets[points[i].k * n_groups + job_group[points[i].j]].push_back(i);
  }

  // Split every bucket into same-class lane sets of at most `batch` lanes.
  std::vector<std::vector<std::size_t>> tasks;  // indices into `points`
  for (const std::vector<std::size_t>& bucket : buckets) {
    if (bucket.empty()) continue;
    std::vector<cpu::SystemConfig> configs;
    configs.reserve(bucket.size());
    for (const std::size_t i : bucket) configs.push_back(jobs[points[i].j].config);
    for (std::vector<std::size_t>& part :
         cpu::partition_batches(configs, batch)) {
      for (std::size_t& local : part) local = bucket[local];
      tasks.push_back(std::move(part));
    }
  }

  exec::ParallelExecutor pool;
  const auto result = exec::run_request(
      pool, exec::default_request(), tasks.size(), [&](std::size_t t) {
        const std::vector<std::size_t>& task = tasks[t];
        const GridPoint& first = points[task.front()];
        const cpu::DecodedTrace& trace =
            cache.get_decoded(kernels[first.k], jobs[first.j].opts);
        std::vector<cpu::System> systems;
        systems.reserve(task.size());
        for (const std::size_t i : task) {
          systems.emplace_back(jobs[points[i].j].config,
                               cpu::System::kPrevalidated);
        }
        std::vector<cpu::System*> lanes;
        lanes.reserve(systems.size());
        for (cpu::System& s : systems) lanes.push_back(&s);
        const std::uint64_t t0 = now_ns();
        std::vector<sim::RunStats> stats =
            cpu::System::run_batch(trace, lanes);
        exec::Telemetry::instance().count_replay_ns(now_ns() - t0);
        for (std::size_t i = 0; i < task.size(); ++i) {
          exec::Telemetry::instance().count_simulation(trace.size());
          store_append(store, points[task[i]].digest, stats[i]);
        }
        return stats;
      });

  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (!result[t].value) continue;
    const std::vector<sim::RunStats>& stats = *result[t].value;
    for (std::size_t i = 0; i < tasks[t].size(); ++i) {
      const GridPoint& p = points[tasks[t][i]];
      out[p.j][p.k] = stats[i];
    }
  }
  finish_request(result);
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
  if (store != nullptr) {
    // Pick up records concurrent campaigns (other processes sharing this
    // store file) appended since our last scan, so their finished points
    // probe warm here instead of being re-simulated.
    store->refresh();
  }
  if (exec::TraceStore* tstore = exec::trace_store(); tstore != nullptr) {
    // Same for traces: blobs appended by concurrent campaigns sharing the
    // trace-store file serve this grid's misses without regeneration.
    tstore->refresh();
  }
  const exec::TelemetrySnapshot before = exec::Telemetry::instance().snapshot();
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
        std::uint8_t payload[sim::kRunStatsBytes];
        if (store->lookup(p.digest, payload)) {
          out[j][k] = sim::decode_run_stats(payload);
          exec::Telemetry::instance().count_memo_hit();
          ++hits;
          continue;
        }
        exec::Telemetry::instance().count_memo_miss();
      }
      points.push_back(p);
    }
  }

  if (!points.empty()) {
    if (const unsigned batch = exec::default_batch(); batch > 1) {
      run_points_batched(cache, kernels, jobs, points, batch, store, out);
    } else {
      run_points_solo(cache, kernels, jobs, points, store, out);
    }
  }
  // Lifecycle tally for this grid (delta over the run). The happy path —
  // no deadline, nothing cancelled — prints exactly the historical line,
  // byte for byte.
  const exec::TelemetrySnapshot delta =
      exec::Telemetry::instance().snapshot() - before;
  char lifecycle[96] = "";
  if (delta.tasks_timed_out != 0 || delta.tasks_cancelled != 0) {
    std::snprintf(lifecycle, sizeof lifecycle,
                  ", %llu timed-out, %llu cancelled",
                  static_cast<unsigned long long>(delta.tasks_timed_out),
                  static_cast<unsigned long long>(delta.tasks_cancelled));
  }
  if (store != nullptr) {
    std::fprintf(
        stderr,
        "[sttsim] result store %s: %zu/%zu grid points warm, %zu simulated%s\n",
        store->path().c_str(), hits, jobs.size() * n_kernels, points.size(),
        lifecycle);
  } else if (lifecycle[0] != '\0') {
    std::fprintf(stderr, "[sttsim] grid: %zu points%s\n",
                 jobs.size() * n_kernels, lifecycle);
  }
  return out;
}

std::vector<sim::RunStats> run_suite(
    TraceCache& cache, const std::vector<workloads::Kernel>& kernels,
    const cpu::SystemConfig& config, const workloads::CodegenOptions& opts) {
  return std::move(run_grid(cache, kernels, {{config, opts}}).front());
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
