#include "sttsim/check/differential.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/util/text.hpp"

namespace sttsim::check {
namespace {

struct StatField {
  const char* name;
  std::uint64_t sim::MemStats::* member;
};

constexpr StatField kMemStatFields[] = {
    {"loads", &sim::MemStats::loads},
    {"stores", &sim::MemStats::stores},
    {"prefetches", &sim::MemStats::prefetches},
    {"front_hits", &sim::MemStats::front_hits},
    {"front_misses", &sim::MemStats::front_misses},
    {"front_store_hits", &sim::MemStats::front_store_hits},
    {"promotions", &sim::MemStats::promotions},
    {"front_writebacks", &sim::MemStats::front_writebacks},
    {"prefetch_hits", &sim::MemStats::prefetch_hits},
    {"l1_read_hits", &sim::MemStats::l1_read_hits},
    {"l1_write_hits", &sim::MemStats::l1_write_hits},
    {"l1_misses", &sim::MemStats::l1_misses},
    {"l1_writebacks", &sim::MemStats::l1_writebacks},
    {"l2_hits", &sim::MemStats::l2_hits},
    {"l2_misses", &sim::MemStats::l2_misses},
    {"l1_array_reads", &sim::MemStats::l1_array_reads},
    {"l1_array_writes", &sim::MemStats::l1_array_writes},
    {"l2_array_reads", &sim::MemStats::l2_array_reads},
    {"l2_array_writes", &sim::MemStats::l2_array_writes},
    {"bank_conflict_cycles", &sim::MemStats::bank_conflict_cycles},
    {"ecc_corrections", &sim::MemStats::ecc_corrections},
    {"ecc_refills", &sim::MemStats::ecc_refills},
    // The wear counters (l1_frame_writes_*) are deliberately absent: they
    // are end-of-run array snapshots, not part of the per-op contract.
};

const char* kind_name(cpu::OpKind kind) {
  switch (kind) {
    case cpu::OpKind::kExec:
      return "exec";
    case cpu::OpKind::kLoad:
      return "load";
    case cpu::OpKind::kStore:
      return "store";
    case cpu::OpKind::kPrefetch:
      return "prefetch";
  }
  return "?";
}

}  // namespace

Divergence run_differential(const cpu::SystemConfig& config,
                            const cpu::Trace& trace,
                            const OracleFaults& faults) {
  cpu::System system(config);
  std::unique_ptr<ReferenceDl1> oracle = make_reference_dl1(config, faults);

  Divergence div;
  std::size_t shadow_seen = 0;
  // The oracle reads each op, store payload included, from the raw trace
  // by index (the decoded form carries no payloads).
  system.run_observed(cpu::decode(trace), [&](const cpu::OpEvent& ev) {
    if (div.diverged) return;  // oracle stops at the first divergence
    const cpu::TraceOp& op = trace[ev.index];

    sim::Cycle predicted = 0;
    switch (op.kind) {
      case cpu::OpKind::kExec:
        predicted = ev.issue + op.count;
        break;
      case cpu::OpKind::kLoad:
        predicted = std::max<sim::Cycle>(
            ev.issue + 1, oracle->load(op.addr, op.size, ev.issue));
        break;
      case cpu::OpKind::kStore:
        predicted = std::max<sim::Cycle>(
            ev.issue + 1,
            oracle->store(op.addr, op.size, op.value, ev.issue));
        break;
      case cpu::OpKind::kPrefetch:
        oracle->prefetch(op.addr, ev.issue);
        predicted = ev.issue + 1;
        break;
    }

    const auto flag = [&](const std::string& field, std::uint64_t expected,
                          std::uint64_t observed) {
      div.diverged = true;
      div.op_index = ev.index;
      div.field = field;
      div.expected = expected;
      div.observed = observed;
      div.detail = strprintf(
          "op #%zu (%s addr=0x%llx size=%u): %s oracle=%llu simulator=%llu",
          ev.index, kind_name(op.kind),
          static_cast<unsigned long long>(op.addr),
          static_cast<unsigned>(op.size), field.c_str(),
          static_cast<unsigned long long>(expected),
          static_cast<unsigned long long>(observed));
    };

    if (predicted != ev.complete) {
      flag("cycle", predicted, ev.complete);
      return;
    }
    const sim::MemStats& got = system.dl1().stats();
    const sim::MemStats& want = oracle->stats();
    for (const StatField& f : kMemStatFields) {
      if (got.*(f.member) != want.*(f.member)) {
        flag(f.name, want.*(f.member), got.*(f.member));
        return;
      }
    }
    const auto& violations = oracle->shadow_violations();
    if (violations.size() > shadow_seen) {
      const ShadowViolation& v = violations[shadow_seen];
      flag("shadow", v.expected, v.observed);
      div.detail = strprintf(
          "op #%zu (%s addr=0x%llx size=%u): shadow at 0x%llx level=%s "
          "expected=0x%02x observed=0x%02x",
          ev.index, kind_name(op.kind),
          static_cast<unsigned long long>(op.addr),
          static_cast<unsigned>(op.size),
          static_cast<unsigned long long>(v.addr), v.level.c_str(),
          static_cast<unsigned>(v.expected), static_cast<unsigned>(v.observed));
    }
  });
  return div;
}

MinimizeResult minimize_trace(const cpu::SystemConfig& config,
                              const cpu::Trace& trace,
                              const OracleFaults& faults) {
  MinimizeResult result;
  result.trace = trace;
  result.divergence = run_differential(config, result.trace, faults);
  result.probes = 1;
  if (!result.divergence.diverged) return result;

  // Classic ddmin over op subsequences: try dropping ever-finer chunks,
  // keeping any candidate that still diverges.
  std::size_t n = 2;
  while (result.trace.size() >= 2) {
    const std::size_t chunk = (result.trace.size() + n - 1) / n;
    bool reduced = false;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lo = std::min(result.trace.size(), i * chunk);
      const std::size_t hi = std::min(result.trace.size(), lo + chunk);
      if (lo >= hi) break;
      cpu::Trace candidate;
      candidate.reserve(result.trace.size() - (hi - lo));
      candidate.insert(candidate.end(), result.trace.begin(),
                       result.trace.begin() + lo);
      candidate.insert(candidate.end(), result.trace.begin() + hi,
                       result.trace.end());
      if (candidate.empty()) continue;
      const Divergence d = run_differential(config, candidate, faults);
      result.probes += 1;
      if (d.diverged) {
        result.trace = std::move(candidate);
        result.divergence = d;
        n = std::max<std::size_t>(2, n - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= result.trace.size()) break;  // 1-minimal
      n = std::min(result.trace.size(), n * 2);
    }
  }
  return result;
}

std::string write_reproducer(const std::string& dir, const std::string& tag,
                             const cpu::SystemConfig& config,
                             const MinimizeResult& result) {
  std::filesystem::create_directories(dir);
  const std::string trace_path = dir + "/" + tag + ".trace";
  cpu::write_trace_file(trace_path, result.trace);

  std::ofstream txt(dir + "/" + tag + ".txt");
  txt << "sttsim differential reproducer\n"
      << "organization: " << cpu::to_string(config.organization) << "\n"
      << "vwb_total_kbit: " << config.vwb_total_kbit << "\n"
      << "nvm_banks: " << config.nvm_banks << "\n"
      << "mshr_entries: " << config.mshr_entries << "\n"
      << "l2: capacity_bytes=" << config.l2.capacity_bytes
      << " associativity=" << config.l2.associativity
      << " line_bytes=" << config.l2.line_bytes << "\n";
  if (config.faults_active()) {
    txt << "faults: seed=" << config.faults.seed
        << " ppm=" << config.faults.fail_ppm
        << " double_pct=" << config.faults.double_fault_pct << "\n"
        << "ecc: correction_cycles=" << config.ecc.correction_cycles
        << " refill_cycles=" << config.ecc.refill_cycles << "\n";
  }
  txt << "trace_ops: " << result.trace.size() << "\n"
      << "minimizer_probes: " << result.probes << "\n"
      << "divergence: " << result.divergence.detail << "\n"
      << "replay: sttsim --check-oracle --trace-in=" << tag << ".trace"
      << " --org=" << cpu::to_string(config.organization);
  if (config.faults_active()) {
    txt << " --faults=" << config.faults.seed << ":" << config.faults.fail_ppm
        << ":" << config.faults.double_fault_pct
        << " --ecc=" << config.ecc.correction_cycles << ":"
        << config.ecc.refill_cycles;
  }
  txt << "\n";
  return trace_path;
}

}  // namespace sttsim::check
