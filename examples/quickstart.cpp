// Quickstart: simulate one PolyBench kernel on the SRAM baseline, the
// drop-in STT-MRAM DL1, and the paper's VWB proposal, and print the
// performance penalty of each NVM organization.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "sttsim/cpu/system.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/workloads/suite.hpp"

using namespace sttsim;

int main() {
  // 1. Generate the dynamic trace of a suite kernel (gemm, 64^3,
  //    unoptimized).
  const workloads::Kernel& gemm = workloads::find_kernel("gemm");
  const cpu::Trace trace =
      cpu::reassemble(gemm.generate_decoded(workloads::CodegenOptions::none()));
  std::printf("workload: gemm 64^3 — %s\n\n", cpu::describe(trace).c_str());

  // 2. Run it on the three organizations.
  sim::RunStats baseline;
  for (const auto org : {cpu::Dl1Organization::kSramBaseline,
                         cpu::Dl1Organization::kNvmDropIn,
                         cpu::Dl1Organization::kNvmVwb}) {
    cpu::SystemConfig cfg;
    cfg.organization = org;  // everything else: paper defaults (Section VI)
    cpu::System system(cfg);
    const sim::RunStats stats = system.run(trace);
    if (org == cpu::Dl1Organization::kSramBaseline) {
      baseline = stats;
      std::printf("%-14s : %10llu cycles (CPI %.3f)\n", cpu::to_string(org),
                  static_cast<unsigned long long>(stats.core.total_cycles),
                  stats.core.cpi());
    } else {
      std::printf("%-14s : %10llu cycles (CPI %.3f)  penalty %+.1f%%\n",
                  cpu::to_string(org),
                  static_cast<unsigned long long>(stats.core.total_cycles),
                  stats.core.cpi(),
                  experiments::penalty_pct(stats, baseline));
    }
  }

  // 3. The paper's fix: apply the Section V code transformations and rerun
  //    the proposal.
  const cpu::DecodedTrace optimized =
      gemm.generate_decoded(workloads::CodegenOptions::all());
  cpu::SystemConfig cfg;
  cfg.organization = cpu::Dl1Organization::kNvmVwb;
  cpu::System system(cfg);
  const sim::RunStats stats = system.run(optimized);
  std::printf("%-14s : %10llu cycles (CPI %.3f)  penalty %+.1f%% (optimized "
              "code)\n",
              "nvm-vwb+opts",
              static_cast<unsigned long long>(stats.core.total_cycles),
              stats.core.cpi(), experiments::penalty_pct(stats, baseline));
  return 0;
}
