// sttsim — command-line driver for the simulator.
//
// Run any suite kernel (or an external binary trace) on any DL1
// organization with any codegen options, and print the run statistics:
//
//   sttsim --kernel=gemm --org=nvm-vwb --opts=vec,pf,br
//   sttsim --kernel=atax --org=sram-baseline --baseline-penalty
//   sttsim --trace-in=foo.trc --org=nvm-drop-in
//   sttsim --kernel=mvt --trace-out=mvt.trc      (capture, no simulation)
//   sttsim --trace-in=repro.trace --org=nvm-vwb --check-oracle
//   sttsim --kernel=gemm --org=nvm-vwb,nvm-l0,nvm-emshr   (side by side)
//   sttsim --list
//
// --org accepts a comma-separated list: the named organizations replay the
// decoded trace one after another (cpu::System::run each) and are reported
// side by side, in the order given.
//
// Numeric flags (--jobs, --deadline, --vwb-kbit, --vwb-lines, --banks,
// --clock-ghz, --faults, --ecc) must be well-formed numbers; a malformed
// value, like an unknown flag, prints usage and exits 2.
//
// Options: --vwb-kbit=N --vwb-lines=N --banks=N --clock-ghz=F --csv
//          --store=PATH (persistent result store: repeated identical runs
//          read back their stats instead of re-simulating; --no-store
//          ignores the STTSIM_RESULT_STORE environment default)
//          --trace-store=PATH (persistent compressed-trace store: a kernel
//          trace generated by a previous run is deserialized from disk
//          instead of re-synthesized; --no-trace-store ignores the
//          STTSIM_TRACE_STORE environment default)
//          --deadline=SECS (wall-clock budget for any engine-driven work:
//          points not started when it expires are skipped as timed-out)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <string>

#include "sttsim/check/differential.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/request.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/exec/trace_store.hpp"
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
      "          [--store=PATH] [--no-store] [--trace-store=PATH]\n"
      "          [--no-trace-store] [--deadline=SECS] [--csv|--json]\n"
      "(a comma-separated --org list runs each organization in turn and\n"
      " reports them side by side; --faults enables deterministic\n"
      " retention-fault injection on NVM organizations — SEED keys the\n"
      " schedule, PPM the per-window failure odds, DOUBLEPCT the\n"
      " double-bit share; --ecc sets the SEC-DED correction / line-refill\n"
      " penalty cycles)\n",
      argv0);
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
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string name = list.substr(
        pos, comma == std::string::npos ? comma : comma - pos);
    if (!name.empty()) {
      const auto org = parse_org(name);
      if (!org) return std::nullopt;
      out.push_back(*org);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) return std::nullopt;
  return out;
}

workloads::CodegenOptions parse_codegen(const std::string& list) {
  workloads::CodegenOptions o;
  std::size_t pos = 0;
  while (pos < list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string item = list.substr(
        pos, comma == std::string::npos ? comma : comma - pos);
    if (item == "vec") {
      o.vectorize = true;
    } else if (item == "pf") {
      o.prefetch = true;
    } else if (item == "br") {
      o.branch_opts = true;
    } else if (item == "all") {
      o = workloads::CodegenOptions::all();
    } else if (!item.empty()) {
      throw ConfigError("unknown codegen option '" + item + "'");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return o;
}

/// Splits a ':'-separated flag payload ("SEED:PPM:PCT") into fields.
std::vector<std::string> split_fields(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t colon = s.find(':', pos);
    out.push_back(
        s.substr(pos, colon == std::string::npos ? colon : colon - pos));
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  return out;
}

CliOptions parse_args(int argc, char** argv) {
  CliOptions o;
  bool no_store = false;
  bool no_trace_store = false;
  exec::CampaignRequest request;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
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
      o.codegen = parse_codegen(val);
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
      const std::vector<std::string> parts = split_fields(val);
      if (parts.size() > 3) usage(argv[0]);
      number(parts[0], o.system.faults.seed);
      if (parts.size() > 1) number(parts[1], o.system.faults.fail_ppm);
      if (parts.size() > 2) number(parts[2], o.system.faults.double_fault_pct);
    } else if (take("--ecc=")) {
      // CORR[:REFILL]
      const std::vector<std::string> parts = split_fields(val);
      if (parts.size() > 2) usage(argv[0]);
      number(parts[0], o.system.ecc.correction_cycles);
      if (parts.size() > 1) number(parts[1], o.system.ecc.refill_cycles);
    } else if (take("--jobs=")) {
      unsigned jobs = 0;
      number(val, jobs);
      exec::set_default_jobs(jobs);
    } else if (take("--deadline=")) {
      if (!parse_finite(val.c_str(), request.deadline_s)) usage(argv[0]);
    } else if (take("--store=")) {
      o.store = val;
    } else if (arg == "--no-store") {
      no_store = true;
    } else if (take("--trace-store=")) {
      o.trace_store = val;
    } else if (arg == "--no-trace-store") {
      no_trace_store = true;
    } else {
      usage(argv[0]);
    }
  }
  if (o.store.empty() && !no_store) {
    if (const char* env = std::getenv("STTSIM_RESULT_STORE");
        env != nullptr && *env != '\0') {
      o.store = env;
    }
  }
  if (no_store) o.store.clear();
  if (o.trace_store.empty() && !no_trace_store) {
    if (const char* env = std::getenv("STTSIM_TRACE_STORE");
        env != nullptr && *env != '\0') {
      o.trace_store = env;
    }
  }
  if (no_trace_store) o.trace_store.clear();
  exec::set_default_request(request);
  exec::install_interrupt_handler();
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

int run(const CliOptions& o) {
  static std::unique_ptr<exec::ResultStore> store_holder;
  if (!o.store.empty()) {
    store_holder =
        std::make_unique<exec::ResultStore>(o.store, sim::kRunStatsBytes);
    exec::set_result_store(store_holder.get());
  }
  static std::unique_ptr<exec::TraceStore> trace_store_holder;
  if (!o.trace_store.empty()) {
    trace_store_holder = std::make_unique<exec::TraceStore>(
        o.trace_store, cpu::kTraceFormatVersion);
    exec::set_trace_store(trace_store_holder.get());
  }
  if (o.list) {
    for (const auto& k : workloads::polybench_suite()) {
      std::printf("%-16s %s\n", k.name.c_str(), k.description.c_str());
    }
    return 0;
  }
  if (o.kernel.empty() == o.trace_in.empty()) {
    std::fprintf(stderr, "exactly one of --kernel / --trace-in required\n");
    return 2;
  }

  cpu::Trace trace;
  if (!o.kernel.empty()) {
    // Through the trace cache: a miss synthesizes the decoded trace
    // directly (and persists it when --trace-store is active); a warm
    // store serves the stored blob with zero generation.
    experiments::TraceCache cache;
    trace = cache.get(workloads::find_kernel(o.kernel), o.codegen);
  } else {
    trace = cpu::read_trace_file(o.trace_in);
  }
  if (!o.trace_out.empty()) {
    cpu::write_trace_file(o.trace_out, trace);
    std::printf("wrote %zu ops to %s\n", trace.size(), o.trace_out.c_str());
    return 0;
  }

  if (o.orgs.size() > 1) {
    if (o.check_oracle || o.baseline_penalty || o.json) {
      std::fprintf(stderr,
                   "--org with multiple organizations is incompatible with "
                   "--check-oracle/--baseline-penalty/--json\n");
      return 2;
    }
    // Side-by-side comparison: every organization replays the decoded
    // trace in turn. All of them run before anything prints, so a
    // configuration error still leaves stdout empty.
    const cpu::DecodedTrace decoded = cpu::decode(trace);
    std::vector<sim::RunStats> all;
    all.reserve(o.orgs.size());
    for (const cpu::Dl1Organization org : o.orgs) {
      cpu::SystemConfig cfg = o.system;
      cfg.organization = org;
      cpu::System system(cfg);
      all.push_back(system.run(decoded));
    }
    for (std::size_t i = 0; i < o.orgs.size(); ++i) {
      if (!o.csv) {
        if (i > 0) std::printf("\n");
        std::printf("organization : %s\n", cpu::to_string(o.orgs[i]));
        std::printf("workload     : %s (%s)\n",
                    o.kernel.empty() ? o.trace_in.c_str() : o.kernel.c_str(),
                    o.codegen.label().c_str());
      }
      print_stats(all[i], o.csv);
    }
    return 0;
  }

  const cpu::Dl1Organization org = o.orgs.front();
  cpu::SystemConfig cfg = o.system;
  cfg.organization = org;

  if (o.check_oracle) {
    // Kernel generators emit zero store payloads; give them deterministic
    // values so the data-content shadow distinguishes stale bytes.
    if (!o.kernel.empty()) cpu::assign_store_values(trace, 0x5eed);
    const check::Divergence div = check::run_differential(cfg, trace);
    if (!div.diverged) {
      std::printf("oracle agreement: %zu ops, no divergence (%s)\n",
                  trace.size(), cpu::to_string(org));
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

  const bool with_baseline = o.baseline_penalty && !o.json &&
                             org != cpu::Dl1Organization::kSramBaseline;

  // One simulation with result-store memoization: a named kernel is keyed
  // by (name x codegen x config), an external trace by its content digest.
  const auto simulate = [&](const cpu::SystemConfig& c) -> sim::RunStats {
    cpu::SystemConfig validated = c;
    validated.validate();
    exec::ResultStore* store = exec::result_store();
    std::uint64_t digest = 0;
    if (store != nullptr) {
      digest = o.kernel.empty()
                   ? experiments::simulation_digest(trace, validated)
                   : experiments::simulation_digest(o.kernel, o.codegen,
                                                    validated);
      std::uint8_t payload[sim::kRunStatsBytes];
      if (store->lookup(digest, payload)) {
        exec::Telemetry::instance().count_memo_hit();
        return sim::decode_run_stats(payload);
      }
      exec::Telemetry::instance().count_memo_miss();
    }
    cpu::System system(validated, cpu::System::kPrevalidated);
    const sim::RunStats stats = system.run(trace);
    if (store != nullptr) {
      std::uint8_t payload[sim::kRunStatsBytes];
      sim::encode_run_stats(stats, payload);
      store->append(digest, payload);
    }
    return stats;
  };

  // With --baseline-penalty the variant and the SRAM reference run as two
  // jobs on the experiment engine's pool (a no-op at --jobs=1).
  cpu::SystemConfig base_cfg = o.system;
  base_cfg.organization = cpu::Dl1Organization::kSramBaseline;
  exec::ParallelExecutor pool;
  std::future<sim::RunStats> baseline_run;
  if (with_baseline) {
    baseline_run = pool.submit([&] { return simulate(base_cfg); });
  }
  const sim::RunStats stats = simulate(cfg);
  if (o.json) {
    std::printf("%s\n", sim::to_json(stats).c_str());
    return 0;
  }
  if (!o.csv) {
    std::printf("organization : %s\n", cpu::to_string(org));
    std::printf("workload     : %s (%s)\n",
                o.kernel.empty() ? o.trace_in.c_str() : o.kernel.c_str(),
                o.codegen.label().c_str());
  }
  print_stats(stats, o.csv);

  if (with_baseline) {
    const sim::RunStats base = baseline_run.get();
    std::printf("penalty vs same-code SRAM baseline: %+.2f%%\n",
                experiments::penalty_pct(stats, base));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sttsim: %s\n", e.what());
    return 1;
  }
}
