// The two workloads and the loop that times them. Every workload is a
// closed loop: one timed run starts only after the previous one finished.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "spans.hpp"
#include "sttsim/check/differential.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/request.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/exec/trace_store.hpp"
#include "sttsim/experiments/figures.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/workloads/suite.hpp"

namespace sttbench {
namespace {

namespace fs = std::filesystem;
using namespace sttsim;
using cpu::Dl1Organization;
using workloads::CodegenOptions;
using workloads::Kernel;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 7;

/// Ops of the trace prefix the oracle pre-flight replays per organization.
constexpr std::size_t kPreflightOps = 20000;

/// Fail rate of the attribution pass's faulted points, with SEC-DED ECC.
constexpr std::uint32_t kAttributionFailPpm = 100000;

const std::vector<Dl1Organization> kOrgs = {
    Dl1Organization::kSramBaseline, Dl1Organization::kNvmDropIn,
    Dl1Organization::kNvmVwb,       Dl1Organization::kNvmL0,
    Dl1Organization::kNvmEmshr,     Dl1Organization::kNvmWriteBuf};

const CodegenOptions& codegen(int c) {
  static const CodegenOptions none = CodegenOptions::none();
  static const CodegenOptions all = CodegenOptions::all();
  return c == 0 ? none : all;
}

/// store_rerun runs the two figures that use both codegens, which set its
/// peak memory, plus one artifact of each pair, chosen by the seed. The
/// pairs are matched on the cost of each pass and on trace ops. fig1 and
/// fig6 are left out: their generate-bound grids scale unlike the rest.
const std::vector<const char*> kStoreFixed = {"fig5_transformations",
                                              "fig9_baseline_gain"};
const std::vector<std::vector<const char*>> kStoreGroups = {
    {"fig7_vwb_size", "exploration_iso_area"},
    {"fig3_vwb_penalty", "fig_reliability_lifetime"},
    {"fig4_rw_breakdown", "energy_report"},
    {"fig7_vwb_size_optimized", "fig8_alternatives"}};

double ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

double cpu_seconds() {
  rusage r{};
  getrusage(RUSAGE_SELF, &r);
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
         static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) * 1e-6;
}

/// Returns memory the process freed to the system, so every timed run
/// starts from the same resident set: without it, each run's freed but
/// retained memory would make the peak grow with the number of runs.
void trim() { malloc_trim(0); }

/// Resets the kernel's resident high-water mark (VmHWM) to the current
/// resident set, so peak_rss_mb covers the timed runs and not the set-up
/// checks (the differential oracle's memory depends on the sampled point).
void reset_peak_rss() {
  trim();
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM of /proc/self/status, in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Fisher-Yates with the raw generator, so a seed gives the same order with
/// every standard library.
template <typename T>
void shuffle(std::vector<T>& v, std::mt19937_64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng() % i]);
}

template <typename T>
const T& pick(const std::vector<T>& v, std::mt19937_64& rng) {
  return v[rng() % v.size()];
}

/// Sums the counters the modelled-design metrics are built from.
void accumulate(sim::RunStats& a, const sim::RunStats& b) {
  a.core.instructions += b.core.instructions;
  a.core.total_cycles += b.core.total_cycles;
  a.core.read_stall_cycles += b.core.read_stall_cycles;
  a.core.write_stall_cycles += b.core.write_stall_cycles;
  a.core.structural_stall_cycles += b.core.structural_stall_cycles;
  a.mem.front_hits += b.mem.front_hits;
  a.mem.front_misses += b.mem.front_misses;
  a.mem.l1_read_hits += b.mem.l1_read_hits;
  a.mem.l1_write_hits += b.mem.l1_write_hits;
  a.mem.l1_misses += b.mem.l1_misses;
  a.mem.l2_hits += b.mem.l2_hits;
  a.mem.l2_misses += b.mem.l2_misses;
  a.mem.bank_conflict_cycles += b.mem.bank_conflict_cycles;
}

const char* class_name(const cpu::SystemConfig& config) {
  switch (cpu::concrete_class(config)) {
    case cpu::Dl1ConcreteClass::kPlain:
      return "plain";
    case cpu::Dl1ConcreteClass::kVwb:
      return "vwb";
    case cpu::Dl1ConcreteClass::kNarrowFront:
      return "narrow_front";
  }
  return "narrow_front";
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// One timed run, measured from outside.
struct Iteration {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t simulations = 0;
  std::uint64_t trace_ops = 0;
  double instructions = 0.0;  ///< simulated instructions, when known
};

template <typename F>
Iteration measure(F&& work) {
  const exec::TelemetrySnapshot before = exec::Telemetry::instance().snapshot();
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  work();
  Iteration it;
  it.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  it.cpu_s = cpu_seconds() - cpu0;
  const exec::TelemetrySnapshot d =
      exec::Telemetry::instance().snapshot() - before;
  it.simulations = d.simulations;
  it.trace_ops = d.trace_ops;
  return it;
}

/// A simulated point of the attribution pass.
struct Point {
  std::size_t kernel = 0;  ///< index into the workload's kernels
  int codegen = 0;         ///< 0 = none, 1 = all
  cpu::SystemConfig config;
};

/// What the traced run observes below the end-to-end metrics. Metrics a
/// workload does not reach stay 0.
struct Layers {
  std::uint64_t gen_ns = 0;
  std::uint64_t gen_ops = 0;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> replay;
  std::uint64_t faulted_ns = 0;
  std::uint64_t clean_ns = 0;
  std::uint64_t fault_ops = 0;
  std::uint64_t queue_wait_ns = 0;
  std::map<Dl1Organization, sim::RunStats> by_org;
  std::uint64_t ecc_corrections = 0;
  std::uint64_t ecc_refills = 0;
  std::map<std::string, double> store;  ///< exec.result_store.* / trace_store.*
};

/// Replays every point once through cpu::System::run under a span, each as
/// a task the benchmark submits itself, after synthesizing each trace once
/// through Kernel::generate_decoded under a span. Faulted points are
/// replayed a second time with faults off, for the decorator's cost; the
/// modelled-design counters sum the fault-free points only.
void attribute(const std::vector<Kernel>& kernels,
               const std::vector<Point>& points, unsigned width, Layers& L) {
  std::map<std::pair<std::size_t, int>, cpu::DecodedTrace> traces;
  for (const Point& p : points) {
    const auto key = std::make_pair(p.kernel, p.codegen);
    if (traces.count(key) != 0) continue;
    Span span("workloads.Kernel.generate_decoded");
    const std::uint64_t t0 = now_ns();
    cpu::DecodedTrace t = kernels[p.kernel].generate_decoded(codegen(p.codegen));
    L.gen_ns += now_ns() - t0;
    L.gen_ops += t.size();
    traces.emplace(key, std::move(t));
  }

  struct Replay {
    sim::RunStats stats;
    std::uint64_t ns = 0;
    std::uint64_t clean_ns = 0;
    std::uint64_t wait_ns = 0;
  };
  exec::ParallelExecutor pool(width);
  std::vector<std::future<Replay>> futures;
  futures.reserve(points.size());
  for (const Point& p : points) {
    const cpu::DecodedTrace* trace = &traces.at({p.kernel, p.codegen});
    const std::string name = std::string("cpu.System.run.") + class_name(p.config);
    Span submit("exec.ParallelExecutor.submit");
    const std::uint32_t cause = submit.id();
    const std::uint64_t submitted = now_ns();
    futures.push_back(pool.submit([&p, trace, name, cause, submitted] {
      Replay r;
      r.wait_ns = now_ns() - submitted;
      {
        Span span(name, cause);
        cpu::System system(p.config);
        const std::uint64_t t0 = now_ns();
        r.stats = system.run(*trace);
        r.ns = now_ns() - t0;
      }
      if (p.config.faults_active()) {
        cpu::SystemConfig clean = p.config;
        clean.faults.enabled = false;
        Span span(name + ".fault_free", cause);
        cpu::System system(clean);
        const std::uint64_t t0 = now_ns();
        system.run(*trace);
        r.clean_ns = now_ns() - t0;
      }
      return r;
    }));
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Replay r = futures[i].get();
    const Point& p = points[i];
    const std::uint64_t ops = traces.at({p.kernel, p.codegen}).size();
    // A faulted point's class time is its fault-free replay, so the class
    // metrics measure the replay loop alone whatever the fault mix.
    auto& cls = L.replay[class_name(p.config)];
    cls.first += p.config.faults_active() ? r.clean_ns : r.ns;
    cls.second += ops;
    if (p.config.faults_active()) {
      L.faulted_ns += r.ns;
      L.clean_ns += r.clean_ns;
      L.fault_ops += ops;
      L.ecc_corrections += r.stats.mem.ecc_corrections;
      L.ecc_refills += r.stats.mem.ecc_refills;
    } else {
      accumulate(L.by_org[p.config.organization], r.stats);
    }
    L.queue_wait_ns += r.wait_ns;
  }
}

/// Replays a short trace prefix of every organization's default system in
/// lockstep with the differential oracle. Throws on a divergence.
void oracle_preflight() {
  experiments::TraceCache cache;
  const cpu::Trace& full =
      cache.get(workloads::find_kernel("gesummv"), CodegenOptions::all());
  const cpu::Trace prefix(full.begin(),
                          full.begin() + std::min(full.size(), kPreflightOps));
  for (const Dl1Organization org : kOrgs) {
    const check::Divergence d =
        check::run_differential(experiments::make_config(org), prefix);
    if (d.diverged) {
      throw std::runtime_error(std::string("oracle pre-flight ") +
                               cpu::to_string(org) + ": " + d.detail);
    }
  }
}

/// Renders one artifact; an exception is kept as its failure message.
bool try_render(const Artifact& a, Rendered& r, std::string& error) {
  try {
    r = render(a);
    return true;
  } catch (const std::exception& e) {
    error = a.name + ": " + e.what();
    return false;
  }
}

Fidelity fidelity_from_drivers() {
  return fidelity(experiments::fig1_dropin_penalty(),
                  experiments::fig5_transformations(),
                  experiments::fig8_alternatives());
}

/// Simulated instructions per replayed trace op over the whole suite, both
/// codegens: the artifact workloads see trace ops (Telemetry) but not the
/// RunStats of the figure grids, so their instruction count is estimated
/// with this ratio. Instructions depend on the trace only.
double instructions_per_trace_op() {
  experiments::TraceCache cache;
  const std::vector<Kernel>& kernels = workloads::polybench_suite();
  const cpu::SystemConfig sram =
      experiments::make_config(Dl1Organization::kSramBaseline);
  const auto grid = experiments::run_grid(
      cache, kernels, {{sram, codegen(0)}, {sram, codegen(1)}});
  double instructions = 0.0;
  double ops = 0.0;
  for (int c = 0; c < 2; ++c) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      instructions += static_cast<double>(grid[c][k].core.instructions);
      ops += static_cast<double>(cache.get_decoded(kernels[k], codegen(c)).size());
    }
  }
  return instructions / ops;
}

/// The default system of every organization on the whole suite, both
/// codegens, and each NVM organization's default system again with
/// retention faults and ECC on: the attribution points.
std::vector<Point> attribution_points(std::size_t kernels, std::uint64_t seed) {
  std::vector<Point> points;
  for (const Dl1Organization org : kOrgs) {
    cpu::SystemConfig faulted = experiments::make_config(org);
    faulted.faults.enabled = true;
    faulted.faults.seed = seed;
    faulted.faults.fail_ppm = kAttributionFailPpm;
    for (int c = 0; c < 2; ++c) {
      for (std::size_t k = 0; k < kernels; ++k) {
        points.push_back({k, c, experiments::make_config(org)});
        if (org != Dl1Organization::kSramBaseline) {  // no NVM array
          points.push_back({k, c, faulted});
        }
      }
    }
  }
  return points;
}

/// A workload regenerates artifacts through the experiments:: drivers.
class Workload {
 public:
  explicit Workload(const Options& o) : opts_(o), rng_(o.seed) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Prepares the inputs and runs the oracle pre-flight; repeated
  /// kSetupReps times. Throws when the pre-flight fails.
  virtual void setup() = 0;
  /// One timed run. Counts its operations and failed checks into `out`.
  virtual Iteration iterate(Outcome& out) = 0;
  /// After the timed runs: fidelity errors, and each iteration's
  /// instructions estimated from its replayed trace ops.
  virtual Fidelity finish(std::vector<Iteration>& iters) {
    estimate_instructions(iters);
    return fidelity_from_drivers();
  }

  /// Traced run only: the attribution pass.
  void attribute_pass() {
    const std::vector<Kernel>& kernels = workloads::polybench_suite();
    attribute(kernels, attribution_points(kernels.size(), opts_.seed),
              opts_.width, layers_);
  }

  const Layers& layers() const { return layers_; }

 protected:
  static void estimate_instructions(std::vector<Iteration>& iters) {
    const double per_op = instructions_per_trace_op();
    for (Iteration& it : iters) {
      it.instructions = static_cast<double>(it.trace_ops) * per_op;
    }
  }

  Options opts_;
  std::mt19937_64 rng_;
  Layers layers_;
  std::map<std::string, std::uint64_t> references_;
};

class ArtifactsCold final : public Workload {
 public:
  explicit ArtifactsCold(const Options& o) : Workload(o) {
    for (std::size_t i = 0; i < artifacts().size(); ++i) order_.push_back(i);
    shuffle(order_, rng_);
  }

  void setup() override {
    references_ = read_references(opts_.reference, opts_.perturb);
    oracle_preflight();
  }

  Iteration iterate(Outcome& out) override {
    std::vector<Rendered> rendered(order_.size());
    std::vector<std::string> errors(order_.size());
    std::vector<bool> ok(order_.size(), false);
    Iteration it = measure([&] {
      Span pass("artifacts_cold.pass");
      for (std::size_t i = 0; i < order_.size(); ++i) {
        ok[i] = try_render(artifacts()[order_[i]], rendered[i], errors[i]);
      }
    });
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const Artifact& a = artifacts()[order_[i]];
      if (!ok[i]) {
        ++out.attempted;
        out.fail(1, errors[i]);
        continue;
      }
      check_artifact(a.name, rendered[i], references_, out);
      if (a.name == "fig1_dropin_penalty") fig1_ = rendered[i].figure;
      if (a.name == "fig5_transformations") fig5_ = rendered[i].figure;
      if (a.name == "fig8_alternatives") fig8_ = rendered[i].figure;
    }
    return it;
  }

  Fidelity finish(std::vector<Iteration>& iters) override {
    // The fidelity errors come from this workload's own outputs.
    estimate_instructions(iters);
    return fidelity(fig1_, fig5_, fig8_);
  }

 private:
  std::vector<std::size_t> order_;
  report::FigureData fig1_, fig5_, fig8_;
};

class StoreRerun final : public Workload {
 public:
  explicit StoreRerun(const Options& o) : Workload(o) {
    subset_.assign(kStoreFixed.begin(), kStoreFixed.end());
    for (const auto& group : kStoreGroups) subset_.push_back(pick(group, rng_));
    shuffle(subset_, rng_);
    std::string names;
    for (const std::string& n : subset_) names += " " + n;
    std::fprintf(stderr, "store_rerun subset:%s\n", names.c_str());
  }

  void setup() override {
    references_ = read_references(opts_.reference, opts_.perturb);
    oracle_preflight();
    fs::remove_all(opts_.work_dir);
    fs::create_directories(opts_.work_dir);
  }

  Iteration iterate(Outcome& out) override {
    const fs::path dir = fs::path(opts_.work_dir) / ("run" + std::to_string(runs_++));
    fs::create_directories(dir);
    const std::string results = (dir / "results.log").string();
    const std::string traces = (dir / "traces.log").string();
    exec::Telemetry& telemetry = exec::Telemetry::instance();
    std::vector<std::vector<Rendered>> passes(3, std::vector<Rendered>(subset_.size()));
    std::vector<std::vector<std::string>> errors(3, std::vector<std::string>(subset_.size()));
    std::vector<std::vector<bool>> ok(3, std::vector<bool>(subset_.size(), false));
    std::unique_ptr<exec::ResultStore> rs;
    std::unique_ptr<exec::TraceStore> ts;
    exec::TelemetrySnapshot t0, t1, t2, t3;
    double rs_open_ms = 0.0;
    double ts_open_ms = 0.0;

    const auto run_pass = [&](int p) {
      for (std::size_t i = 0; i < subset_.size(); ++i) {
        ok[p][i] = try_render(find_artifact(subset_[i]), passes[p][i], errors[p][i]);
      }
    };
    const auto open = [&] {
      std::uint64_t start = now_ns();
      {
        Span span("exec.ResultStore.open");
        rs = std::make_unique<exec::ResultStore>(results, sim::kRunStatsBytes);
      }
      rs_open_ms = ms(now_ns() - start);
      start = now_ns();
      {
        Span span("exec.TraceStore.open");
        ts = std::make_unique<exec::TraceStore>(traces, cpu::kTraceFormatVersion);
      }
      ts_open_ms = ms(now_ns() - start);
      exec::set_result_store(rs.get());
      exec::set_trace_store(ts.get());
    };

    Iteration it = measure([&] {
      t0 = telemetry.snapshot();
      {
        Span pass("store_rerun.pass1_cold");
        open();
        run_pass(0);
      }
      exec::set_result_store(nullptr);
      exec::set_trace_store(nullptr);
      rs.reset();
      ts.reset();
      t1 = telemetry.snapshot();
      {
        Span pass("store_rerun.pass2_reopened");
        open();
        run_pass(1);
      }
      t2 = telemetry.snapshot();
      exec::set_result_store(nullptr);
      {
        Span pass("store_rerun.pass3_trace_store_only");
        run_pass(2);
      }
      t3 = telemetry.snapshot();
      exec::set_trace_store(nullptr);
    });

    for (int p = 0; p < 3; ++p) {
      for (std::size_t i = 0; i < subset_.size(); ++i) {
        if (!ok[p][i]) {
          ++out.attempted;
          out.fail(1, "pass " + std::to_string(p + 1) + ": " + errors[p][i]);
          continue;
        }
        check_artifact(subset_[i], passes[p][i], references_, out);
      }
    }

    auto& st = layers_.store;
    st["exec.result_store.open_ms"] = rs_open_ms;
    st["exec.trace_store.open_ms"] = ts_open_ms;
    st["exec.result_store.misses"] = static_cast<double>((t1 - t0).memo_misses);
    st["exec.result_store.hits"] = static_cast<double>((t2 - t1).memo_hits);
    st["exec.trace_store.hits"] = static_cast<double>((t3 - t2).trace_store_hits);
    st["exec.trace_store.decode_ms"] = ms((t3 - t2).decode_ns);
    st["exec.trace_store.bytes"] = static_cast<double>(fs::file_size(traces));
    if (Tracer::instance().enabled()) store_calls(*rs, *ts, dir);
    rs.reset();
    ts.reset();
    fs::remove_all(dir);
    return it;
  }

 private:
  /// Times the store calls run_grid and the trace cache make, on the stores
  /// this run wrote: a lookup of every default-config digest of the suite,
  /// then an append of each record into a fresh store.
  void store_calls(const exec::ResultStore& rs, const exec::TraceStore& ts,
                   const fs::path& dir) {
    const std::vector<Kernel>& kernels = workloads::polybench_suite();
    exec::ResultStore rs_copy((dir / "append-results.log").string(),
                              sim::kRunStatsBytes);
    exec::TraceStore ts_copy((dir / "append-traces.log").string(),
                             cpu::kTraceFormatVersion);
    std::uint64_t probe_ns = 0, append_ns = 0, probes = 0;
    std::uint8_t payload[sim::kRunStatsBytes] = {};
    for (const Dl1Organization org : kOrgs) {
      const cpu::SystemConfig config = experiments::make_config(org);
      for (int c = 0; c < 2; ++c) {
        for (const Kernel& k : kernels) {
          const std::uint64_t key =
              experiments::simulation_digest(k.name, codegen(c), config);
          std::uint64_t t0 = now_ns();
          {
            Span span("exec.ResultStore.lookup");
            rs.lookup(key, payload);
          }
          probe_ns += now_ns() - t0;
          t0 = now_ns();
          {
            Span span("exec.ResultStore.append");
            rs_copy.append(key, payload);
          }
          append_ns += now_ns() - t0;
          ++probes;
        }
      }
    }
    std::uint64_t trace_append_ns = 0;
    std::vector<std::uint8_t> blob;
    for (int c = 0; c < 2; ++c) {
      for (const Kernel& k : kernels) {
        const std::uint64_t key = experiments::trace_digest(k.name, codegen(c));
        bool hit = false;
        {
          Span span("exec.TraceStore.lookup");
          hit = ts.lookup(key, blob);
        }
        if (!hit) continue;
        const std::uint64_t t0 = now_ns();
        {
          Span span("exec.TraceStore.append");
          ts_copy.append(key, blob.data(), blob.size());
        }
        trace_append_ns += now_ns() - t0;
      }
    }
    auto& st = layers_.store;
    st["exec.result_store.probe_us"] = static_cast<double>(probe_ns) * 1e-3 / static_cast<double>(probes);
    st["exec.result_store.append_us"] = static_cast<double>(append_ns) * 1e-3 / static_cast<double>(probes);
    st["exec.trace_store.append_ms"] = ms(trace_append_ns);
  }

  std::vector<std::string> subset_;
  unsigned runs_ = 0;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "artifacts_cold") return std::make_unique<ArtifactsCold>(o);
  if (o.workload == "store_rerun") return std::make_unique<StoreRerun>(o);
  throw std::runtime_error("unknown workload: " + o.workload);
}

/// Sets every process-global the experiment engine reads, so the run does
/// not depend on the environment: no stores, unbatched replay, the default
/// campaign request, and the pool width.
void isolate(const Options& o) {
  exec::set_result_store(nullptr);
  exec::set_trace_store(nullptr);
  exec::set_default_batch(1);
  exec::set_default_request(exec::CampaignRequest{});
  exec::set_default_jobs(o.width);
}

void set_end_to_end(Outcome& out, const std::vector<Iteration>& iters,
                    double setup_s, double rss_mb, const Fidelity& f) {
  std::vector<double> wall, cpu, sims, minstr;
  for (const Iteration& it : iters) {
    wall.push_back(it.wall_s);
    cpu.push_back(it.cpu_s);
    sims.push_back(static_cast<double>(it.simulations) / it.wall_s);
    minstr.push_back(it.instructions * 1e-6 / it.wall_s);
  }
  out.set("wall_s", median(wall), "s");
  out.set("cpu_s", median(cpu), "s");
  out.set("sims_per_s", median(sims), "1/s");
  out.set("sim_minstr_per_s", median(minstr), "Minstr/s");
  out.set("peak_rss_mb", rss_mb, "MB");
  out.set("setup_s", setup_s, "s");
  out.set("fig1_err_pp", f.fig1_err_pp, "pp");
  out.set("fig5_err_pp", f.fig5_err_pp, "pp");
  out.set("fig8_ratio_err", f.fig8_ratio_err, "ratio");
}

/// `spans` are those of the traced run, `d` its Telemetry delta.
void set_per_layer(Outcome& out, const Layers& L,
                   const std::vector<SpanRecord>& spans, const Iteration& plain,
                   const Iteration& traced,
                   const exec::TelemetrySnapshot& d, unsigned width) {
  const auto per_op = [](std::uint64_t ns, std::uint64_t ops) {
    return ratio(static_cast<double>(ns), static_cast<double>(ops));
  };
  out.set("workloads.traces_generated", static_cast<double>(d.traces_generated), "count");
  out.set("workloads.generate_ms", ms(d.generate_ns), "ms");
  out.set("workloads.generate_ns_per_op", per_op(L.gen_ns, L.gen_ops), "ns/op");

  out.set("cpu.replay_ms", ms(d.replay_ns), "ms");
  for (const char* cls : {"plain", "vwb", "narrow_front"}) {
    const auto it = L.replay.find(cls);
    out.set(std::string("cpu.replay_ns_per_op.") + cls,
            it == L.replay.end() ? 0.0 : per_op(it->second.first, it->second.second),
            "ns/op");
  }

  out.set("reliability.fault_ns_per_op",
          L.fault_ops == 0 ? 0.0
                           : (static_cast<double>(L.faulted_ns) -
                              static_cast<double>(L.clean_ns)) /
                                 static_cast<double>(L.fault_ops),
          "ns/op");
  out.set("reliability.ecc_corrections", static_cast<double>(L.ecc_corrections), "count");
  out.set("reliability.ecc_refills", static_cast<double>(L.ecc_refills), "count");

  out.set("exec.tasks", static_cast<double>(d.simulations), "count");
  out.set("exec.pool_util", traced.cpu_s / (traced.wall_s * width), "ratio");
  out.set("exec.queue_wait_ms", ms(L.queue_wait_ns), "ms");
  const auto store = [&](const char* name, const char* unit) {
    const auto it = L.store.find(name);
    out.set(name, it == L.store.end() ? 0.0 : it->second, unit);
  };
  store("exec.result_store.open_ms", "ms");
  store("exec.result_store.probe_us", "us");
  store("exec.result_store.append_us", "us");
  store("exec.result_store.hits", "count");
  store("exec.result_store.misses", "count");
  store("exec.trace_store.open_ms", "ms");
  store("exec.trace_store.decode_ms", "ms");
  store("exec.trace_store.append_ms", "ms");
  store("exec.trace_store.bytes", "bytes");
  store("exec.trace_store.hits", "count");

  out.set("experiments.unattributed_ms",
          width * traced.wall_s * 1e3 -
              ms(d.generate_ns + d.decode_ns + d.replay_ns),
          "ms");
  std::uint64_t render_ns = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "report.render_csv") render_ns += s.duration_ns();
  }
  out.set("report.render_ms", ms(render_ns), "ms");
  out.set("trace.overhead_ms", (traced.wall_s - plain.wall_s) * 1e3, "ms");

  for (const Dl1Organization org : kOrgs) {
    const std::string o = cpu::to_string(org);
    const auto it = L.by_org.find(org);
    const sim::RunStats s = it == L.by_org.end() ? sim::RunStats{} : it->second;
    const double cycles = static_cast<double>(s.core.total_cycles);
    out.set("core.cpi." + o,
            ratio(cycles, static_cast<double>(s.core.instructions)), "cycle/instr");
    out.set("core.read_stall_frac." + o,
            ratio(static_cast<double>(s.core.read_stall_cycles), cycles), "ratio");
    out.set("core.write_stall_frac." + o,
            ratio(static_cast<double>(s.core.write_stall_cycles), cycles), "ratio");
    out.set("core.structural_stall_frac." + o,
            ratio(static_cast<double>(s.core.structural_stall_cycles), cycles),
            "ratio");
    out.set("front.hit_rate." + o, s.mem.front_hit_rate(), "ratio");
    out.set("dl1.miss_rate." + o, s.mem.l1_miss_rate(), "ratio");
    out.set("dl1.bank_conflict_cycles." + o,
            static_cast<double>(s.mem.bank_conflict_cycles), "cycles");
    out.set("mem.l2_hit_rate." + o,
            ratio(static_cast<double>(s.mem.l2_hits),
                  static_cast<double>(s.mem.l2_hits + s.mem.l2_misses)),
            "ratio");
  }
}

}  // namespace

Outcome run_workload(const Options& o) {
  isolate(o);
  std::unique_ptr<Workload> w = make_workload(o);
  Outcome out;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    trim();  // as for the timed runs: every set-up starts from fresh memory
    const std::uint64_t t0 = now_ns();
    w->setup();
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    std::fprintf(stderr, "set-up %zu: %.4f s\n", setups.size(), setups.back());
  }
  const double setup_s = median(setups);
  reset_peak_rss();

  if (!o.trace) {
    std::vector<Iteration> iters;
    const std::uint64_t start = now_ns();
    do {
      trim();
      iters.push_back(w->iterate(out));
      std::fprintf(stderr, "timed run %zu: wall %.4f s, cpu %.4f s\n",
                   iters.size(), iters.back().wall_s, iters.back().cpu_s);
    } while (static_cast<double>(now_ns() - start) * 1e-9 < o.seconds);
    const double rss = peak_rss_mb();
    const Fidelity f = w->finish(iters);
    set_end_to_end(out, iters, setup_s, rss, f);
    return out;
  }

  // Traced run: one untraced timed run, then the same run traced; their
  // wall-time difference is the tracing overhead.
  const Iteration plain = w->iterate(out);
  trim();
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  tracer.enable(true);
  const exec::TelemetrySnapshot before = exec::Telemetry::instance().snapshot();
  const Iteration traced = w->iterate(out);
  const exec::TelemetrySnapshot d = exec::Telemetry::instance().snapshot() - before;
  const std::vector<SpanRecord> run_spans = tracer.spans();
  w->attribute_pass();
  tracer.enable(false);
  set_per_layer(out, w->layers(), run_spans, plain, traced, d, o.width);

  const std::vector<SpanRecord> spans = tracer.spans();
  if (!Tracer::children_fit(spans)) {
    out.fail(0, "spans: a parent's children's self times exceed its duration");
  }
  if (!o.spans_out.empty()) {
    std::ofstream f(o.spans_out);
    f << Tracer::to_json(spans);
    if (!f) throw std::runtime_error("cannot write spans: " + o.spans_out);
  }
  return out;
}

}  // namespace sttbench
