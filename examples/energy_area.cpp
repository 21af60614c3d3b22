// Energy & area reporting: the paper's Section VII claims ("gains in area
// and even energy", "2-3x more capacity") computed from the technology
// models and a real simulation run.
//
//   $ ./examples/energy_area
#include <cstdio>

#include "sttsim/experiments/figures.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/tech/area.hpp"
#include "sttsim/tech/energy.hpp"
#include "sttsim/workloads/suite.hpp"

using namespace sttsim;

int main() {
  // Whole-suite energy figure (SRAM vs proposal) on three kernels.
  const auto fig =
      experiments::energy_report({"gemm", "mvt", "jacobi-2d"});
  std::fputs(report::render(fig).c_str(), stdout);
  std::fputs("\n", stdout);
  std::fputs(experiments::area_report().c_str(), stdout);

  // Per-component drill-down for one run: a one-point grid.
  experiments::TraceCache cache;
  const auto stats = experiments::run_grid(
      cache, experiments::select_kernels({"gemm"}),
      {{experiments::make_config(cpu::Dl1Organization::kNvmVwb),
        workloads::CodegenOptions::none()}})[0][0];
  const auto e =
      experiments::dl1_energy(stats, tech::stt_mram_l1d_64kb());
  std::printf("\ngemm on the proposal: DL1 reads %llu / writes %llu\n",
              static_cast<unsigned long long>(stats.mem.l1_array_reads),
              static_cast<unsigned long long>(stats.mem.l1_array_writes));
  std::printf("  dynamic read  : %10.1f nJ\n", e.dynamic_read_nj);
  std::printf("  dynamic write : %10.1f nJ\n", e.dynamic_write_nj);
  std::printf("  leakage       : %10.1f nJ\n", e.static_nj);
  std::printf("  total         : %10.1f nJ (avg %.2f mW)\n", e.total_nj(),
              tech::average_power_mw(e, stats.core.total_cycles, 1.0));
  return 0;
}
