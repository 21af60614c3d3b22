// sttsim — command-line driver for the simulator.
//
// Kernel mode runs any suite kernel (or an external binary trace) on any
// DL1 organization with any codegen options, and prints the run statistics:
//
//   sttsim --kernel=gemm --org=nvm-vwb --opts=vec,pf,br
//   sttsim --kernel=atax --org=sram-baseline --baseline-penalty
//   sttsim --trace-in=foo.trc --org=nvm-drop-in
//   sttsim --kernel=mvt --trace-out=mvt.trc      (capture, no simulation)
//   sttsim --trace-in=repro.trace --org=nvm-vwb --check-oracle
//   sttsim --kernel=gemm --org=nvm-vwb,nvm-l0,nvm-emshr   (side by side)
//   sttsim --list                  (kernels, then artifact names)
//
// --org accepts a comma-separated list: the trace is decoded once and
// replayed on each named organization in turn (cpu::System::run each), and
// the runs are reported side by side, in the order given.
//
// Artifact mode prints artifacts of experiments::artifacts() in the order
// given, with one blank line between two tables and nothing between two
// CSVs; --kernels restricts the suite:
//
//   sttsim --artifact=all                        (every table and figure)
//   sttsim --artifact=fig5_transformations --csv --kernels=gemm,atax
//
// Its first Ctrl-C drains the running grid (started points finish and stay
// in the --store) and exits 130; kernel mode keeps the default SIGINT
// disposition. A kernel-mode flag (kKernelModeFlags) next to --artifact,
// an artifact-mode flag (kArtifactModeFlags) without it, an unknown
// artifact name, and a malformed number (--jobs, --vwb-kbit, --vwb-lines,
// --banks, --clock-ghz, --faults, --ecc), like an unknown flag, print
// usage and exit 2.
//
// Both modes take --csv and --jobs=N (0 = one worker per hardware
// thread). Artifact mode alone takes --store=PATH / --trace-store=PATH:
// persistent result and trace stores, so a repeated run reads back stats
// and traces instead of recomputing them. A store opens only from its
// flag. A store path has one writer at a time: a run that finds it held
// prints one line and goes on without that store. Kernel mode opens no
// store: it simulates each run it prints.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sttsim/check/differential.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/request.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/trace_store.hpp"
#include "sttsim/experiments/artifacts.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/util/check.hpp"
#include "sttsim/util/text.hpp"
#include "sttsim/workloads/suite.hpp"

namespace {

using namespace sttsim;

struct CliOptions {
  std::string kernel;
  std::string trace_in;
  std::string trace_out;
  std::vector<cpu::Dl1Organization> orgs = {
      cpu::Dl1Organization::kSramBaseline};
  workloads::CodegenOptions codegen;
  cpu::SystemConfig system;
  bool list = false;
  bool csv = false;
  bool json = false;
  bool baseline_penalty = false;  ///< also run the SRAM baseline and report %
  bool check_oracle = false;  ///< run the differential oracle instead of
                              ///< just simulating; nonzero exit on divergence
  std::string store;          ///< result-store path; "" = disabled
  std::string trace_store;    ///< trace-store path; "" = disabled
  /// --artifact, in print order; non-empty selects artifact mode.
  std::vector<const experiments::Artifact*> artifacts;
  experiments::KernelFilter kernels;  ///< --kernels (artifact mode)
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--list] [--kernel=NAME | --trace-in=FILE]\n"
      "          [--org=sram-baseline|nvm-drop-in|nvm-vwb|nvm-l0|nvm-emshr|"
      "nvm-writebuf[,...]]\n"
      "          [--opts=vec,pf,br] [--vwb-kbit=N] [--vwb-lines=N]\n"
      "          [--banks=N] [--clock-ghz=F] [--trace-out=FILE]\n"
      "          [--faults=SEED[:PPM[:DOUBLEPCT]]] [--ecc=CORR[:REFILL]]\n"
      "          [--baseline-penalty] [--check-oracle] [--jobs=N]\n"
      "          [--csv|--json]\n"
      "       %s --artifact=NAME[,NAME...]|all [--kernels=a,b,c] [--csv]\n"
      "          [--jobs=N] [--store=PATH] [--trace-store=PATH]\n"
      "(a comma-separated --org list runs each organization in turn and\n"
      " reports them side by side; --faults enables deterministic\n"
      " retention-fault injection on NVM organizations — SEED keys the\n"
      " schedule, PPM the per-window failure odds, DOUBLEPCT the\n"
      " double-bit share; --ecc sets the SEC-DED correction / line-refill\n"
      " penalty cycles; --list names every kernel and artifact)\n",
      argv0, argv0);
  std::exit(2);
}

std::optional<cpu::Dl1Organization> parse_org(const std::string& name) {
  for (const auto org :
       {cpu::Dl1Organization::kSramBaseline, cpu::Dl1Organization::kNvmDropIn,
        cpu::Dl1Organization::kNvmVwb, cpu::Dl1Organization::kNvmL0,
        cpu::Dl1Organization::kNvmEmshr,
        cpu::Dl1Organization::kNvmWriteBuf}) {
    if (name == cpu::to_string(org)) return org;
  }
  return std::nullopt;
}

/// Parses "--org=" values: one organization name or a comma-separated list.
std::optional<std::vector<cpu::Dl1Organization>> parse_org_list(
    const std::string& list) {
  std::vector<cpu::Dl1Organization> out;
  for (const std::string& name : split(list, ',')) {
    if (name.empty()) continue;
    const auto org = parse_org(name);
    if (!org) return std::nullopt;
    out.push_back(*org);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

/// Parses "--opts=" values: a comma-separated list of vec, pf, br, all.
std::optional<workloads::CodegenOptions> parse_codegen(
    const std::string& list) {
  workloads::CodegenOptions o;
  for (const std::string& item : split(list, ',')) {
    if (item == "vec") {
      o.vectorize = true;
    } else if (item == "pf") {
      o.prefetch = true;
    } else if (item == "br") {
      o.branch_opts = true;
    } else if (item == "all") {
      o = workloads::CodegenOptions::all();
    } else if (!item.empty()) {
      return std::nullopt;
    }
  }
  return o;
}

/// Appends the artifacts one --artifact value names ("all", or a
/// comma-separated list) to `out`; false if a name is empty or unknown.
bool parse_artifacts(const std::string& list,
                     std::vector<const experiments::Artifact*>& out) {
  if (list == "all") {
    for (const experiments::Artifact& a : experiments::artifacts()) {
      out.push_back(&a);
    }
    return true;
  }
  for (const std::string& name : split(list, ',')) {
    out.push_back(experiments::find_artifact(name));
    if (out.back() == nullptr) return false;
  }
  return true;
}

/// Flags only kernel mode reads; artifact mode rejects them.
constexpr const char* kKernelModeFlags[] = {
    "--kernel=",    "--trace-in=",        "--trace-out=",    "--org=",
    "--opts=",      "--vwb-kbit=",        "--vwb-lines=",    "--banks=",
    "--clock-ghz=", "--faults=",          "--ecc=",          "--json",
    "--check-oracle", "--baseline-penalty"};

/// Flags only artifact mode reads; anywhere else they are rejected.
constexpr const char* kArtifactModeFlags[] = {"--kernels=", "--store=",
                                              "--trace-store="};

CliOptions parse_args(int argc, char** argv) {
  CliOptions o;
  bool kernel_mode_flag = false;
  bool artifact_mode_flag = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    for (const char* flag : kKernelModeFlags) {
      if (arg.rfind(flag, 0) == 0) kernel_mode_flag = true;
    }
    for (const char* flag : kArtifactModeFlags) {
      if (arg.rfind(flag, 0) == 0) artifact_mode_flag = true;
    }
    std::string val;
    const auto take = [&](const char* prefix) {
      const std::size_t n = std::strlen(prefix);
      if (arg.rfind(prefix, 0) == 0) {
        val = arg.substr(n);
        return true;
      }
      return false;
    };
    const auto number = [&](const std::string& text, auto& out) {
      if (!parse_unsigned(text.c_str(), out)) usage(argv[0]);
    };
    if (arg == "--list") {
      o.list = true;
    } else if (arg == "--csv") {
      o.csv = true;
    } else if (arg == "--json") {
      o.json = true;
    } else if (arg == "--baseline-penalty") {
      o.baseline_penalty = true;
    } else if (arg == "--check-oracle") {
      o.check_oracle = true;
    } else if (take("--kernel=")) {
      o.kernel = val;
    } else if (take("--trace-in=")) {
      o.trace_in = val;
    } else if (take("--trace-out=")) {
      o.trace_out = val;
    } else if (take("--org=")) {
      const auto orgs = parse_org_list(val);
      if (!orgs) usage(argv[0]);
      o.orgs = *orgs;
    } else if (take("--opts=")) {
      const auto codegen = parse_codegen(val);
      if (!codegen) usage(argv[0]);
      o.codegen = *codegen;
    } else if (take("--vwb-kbit=")) {
      number(val, o.system.vwb_total_kbit);
    } else if (take("--vwb-lines=")) {
      number(val, o.system.vwb_lines);
    } else if (take("--banks=")) {
      number(val, o.system.nvm_banks);
    } else if (take("--clock-ghz=")) {
      if (!parse_finite(val.c_str(), o.system.clock_ghz)) usage(argv[0]);
    } else if (take("--faults=")) {
      // SEED[:PPM[:DOUBLEPCT]]
      o.system.faults.enabled = true;
      const std::vector<std::string> parts = split(val, ':');
      if (parts.size() > 3) usage(argv[0]);
      number(parts[0], o.system.faults.seed);
      if (parts.size() > 1) number(parts[1], o.system.faults.fail_ppm);
      if (parts.size() > 2) number(parts[2], o.system.faults.double_fault_pct);
    } else if (take("--ecc=")) {
      // CORR[:REFILL]
      const std::vector<std::string> parts = split(val, ':');
      if (parts.size() > 2) usage(argv[0]);
      number(parts[0], o.system.ecc.correction_cycles);
      if (parts.size() > 1) number(parts[1], o.system.ecc.refill_cycles);
    } else if (take("--artifact=")) {
      if (!parse_artifacts(val, o.artifacts)) usage(argv[0]);
    } else if (take("--kernels=")) {
      for (std::string& name : split(val, ',')) {
        if (!name.empty()) o.kernels.push_back(std::move(name));
      }
    } else if (take("--jobs=")) {
      unsigned jobs = 0;
      number(val, jobs);
      exec::set_default_jobs(jobs);
    } else if (take("--store=")) {
      o.store = val;
    } else if (take("--trace-store=")) {
      o.trace_store = val;
    } else {
      usage(argv[0]);
    }
  }
  const bool artifact_mode = !o.artifacts.empty();
  if (artifact_mode_flag && !artifact_mode) usage(argv[0]);
  if (artifact_mode && kernel_mode_flag) usage(argv[0]);
  // Only grids read the drain flag the handler sets; kernel mode keeps
  // the default disposition, so its first Ctrl-C ends the run.
  if (artifact_mode) exec::install_interrupt_handler();
  return o;
}

void print_stats(const sim::RunStats& s, bool csv) {
  if (!csv) {
    std::fputs(sim::to_string(s).c_str(), stdout);
    return;
  }
  std::printf("cycles,instructions,cpi,read_stalls,write_stalls,loads,stores,"
              "front_hit_rate,l1_miss_rate,l2_misses\n");
  std::printf("%llu,%llu,%.4f,%llu,%llu,%llu,%llu,%.4f,%.4f,%llu\n",
              static_cast<unsigned long long>(s.core.total_cycles),
              static_cast<unsigned long long>(s.core.instructions),
              s.core.cpi(),
              static_cast<unsigned long long>(s.core.read_stall_cycles),
              static_cast<unsigned long long>(s.core.write_stall_cycles),
              static_cast<unsigned long long>(s.mem.loads),
              static_cast<unsigned long long>(s.mem.stores),
              s.mem.front_hit_rate(), s.mem.l1_miss_rate(),
              static_cast<unsigned long long>(s.mem.l2_misses));
}

/// Opens one store. A path that another open store holds (another
/// process, or this run's other store on the same path) costs one stderr
/// line and returns nullptr: the run goes on without that store, and its
/// output does not change.
template <typename Store, typename... Args>
std::unique_ptr<Store> open_store(Args&&... args) {
  try {
    return std::make_unique<Store>(std::forward<Args>(args)...);
  } catch (const exec::StoreInUse& e) {
    std::fprintf(stderr, "[sttsim] %s; running without it\n", e.what());
    return nullptr;
  }
}

/// Opens the store of each path artifact mode was given.
void open_stores(const CliOptions& o) {
  static std::unique_ptr<exec::ResultStore> store_holder;
  if (!o.store.empty()) {
    store_holder =
        open_store<exec::ResultStore>(o.store, sim::kRunStatsBytes);
    exec::set_result_store(store_holder.get());
  }
  static std::unique_ptr<exec::TraceStore> trace_store_holder;
  if (!o.trace_store.empty()) {
    trace_store_holder = open_store<exec::TraceStore>(
        o.trace_store, cpu::kTraceFormatVersion);
    exec::set_trace_store(trace_store_holder.get());
  }
}

int run(const CliOptions& o) {
  if (o.list) {
    for (const auto& k : workloads::polybench_suite()) {
      std::printf("%-16s %s\n", k.name.c_str(), k.description.c_str());
    }
    std::printf("\nartifacts (--artifact=NAME):\n");
    for (const experiments::Artifact& a : experiments::artifacts()) {
      std::printf("%s\n", a.name);
    }
    return 0;
  }
  if (!o.artifacts.empty()) {
    open_stores(o);
    for (std::size_t i = 0; i < o.artifacts.size(); ++i) {
      const std::string out =
          experiments::render_artifact(*o.artifacts[i], o.kernels, o.csv);
      if (i > 0 && !o.csv) std::fputs("\n", stdout);
      std::fputs(out.c_str(), stdout);
    }
    return 0;
  }
  if (o.kernel.empty() == o.trace_in.empty()) {
    std::fprintf(stderr, "exactly one of --kernel / --trace-in required\n");
    return 2;
  }
  cpu::Trace trace = o.kernel.empty()
                         ? cpu::read_trace_file(o.trace_in)
                         : cpu::reassemble(
                               workloads::find_kernel(o.kernel)
                                   .generate_decoded(o.codegen));
  if (!o.trace_out.empty()) {
    cpu::write_trace_file(o.trace_out, trace);
    std::printf("wrote %zu ops to %s\n", trace.size(), o.trace_out.c_str());
    return 0;
  }
  if (o.orgs.size() > 1 && (o.check_oracle || o.baseline_penalty || o.json)) {
    std::fprintf(stderr,
                 "--org with multiple organizations is incompatible with "
                 "--check-oracle/--baseline-penalty/--json\n");
    return 2;
  }
  const auto config_of = [&](cpu::Dl1Organization org) {
    cpu::SystemConfig cfg = o.system;
    cfg.organization = org;
    return cfg;
  };

  if (o.check_oracle) {
    const cpu::SystemConfig cfg = config_of(o.orgs.front());
    // Kernel generators emit zero store payloads; give them deterministic
    // values so the data-content shadow distinguishes stale bytes.
    if (!o.kernel.empty()) cpu::assign_store_values(trace, 0x5eed);
    const check::Divergence div = check::run_differential(cfg, trace);
    if (!div.diverged) {
      std::printf("oracle agreement: %zu ops, no divergence (%s)\n",
                  trace.size(), cpu::to_string(cfg.organization));
      return 0;
    }
    std::fprintf(stderr, "DIVERGENCE: %s\nminimizing...\n",
                 div.detail.c_str());
    const check::MinimizeResult min = check::minimize_trace(cfg, trace);
    const std::string path =
        check::write_reproducer("repro", "divergence", cfg, min);
    std::fprintf(stderr, "minimal reproducer: %zu ops (%u probes) -> %s\n",
                 min.trace.size(), min.probes, path.c_str());
    return 1;
  }

  // Every organization replays the one decoded trace, and all of them run
  // before anything prints, so a configuration error leaves stdout empty.
  // With --baseline-penalty the SRAM reference replays alongside, on the
  // experiment engine's pool (inline at --jobs=1).
  const cpu::DecodedTrace decoded = cpu::decode(trace);
  const auto replay = [&](cpu::Dl1Organization org) {
    cpu::System system(config_of(org));
    return system.run(decoded);
  };
  const bool with_baseline =
      o.baseline_penalty && !o.json &&
      o.orgs.front() != cpu::Dl1Organization::kSramBaseline;
  exec::ParallelExecutor pool;
  std::future<sim::RunStats> baseline;
  if (with_baseline) {
    baseline = pool.submit(
        [&] { return replay(cpu::Dl1Organization::kSramBaseline); });
  }
  std::vector<sim::RunStats> stats;
  for (const cpu::Dl1Organization org : o.orgs) stats.push_back(replay(org));
  if (o.json) {
    std::printf("%s\n", sim::to_json(stats.front()).c_str());
    return 0;
  }
  for (std::size_t i = 0; i < o.orgs.size(); ++i) {
    if (!o.csv) {
      if (i > 0) std::printf("\n");
      std::printf("organization : %s\n", cpu::to_string(o.orgs[i]));
      std::printf("workload     : %s (%s)\n",
                  o.kernel.empty() ? o.trace_in.c_str() : o.kernel.c_str(),
                  o.codegen.label().c_str());
    }
    print_stats(stats[i], o.csv);
  }
  if (with_baseline) {
    std::printf("penalty vs same-code SRAM baseline: %+.2f%%\n",
                experiments::penalty_pct(stats.front(), baseline.get()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const exec::CampaignInterrupted& e) {
    // The first Ctrl-C drained a grid; its started points are persisted.
    std::fprintf(stderr, "sttsim: %s\n", e.what());
    return 130;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sttsim: %s\n", e.what());
    return 1;
  }
}
