// Endurance study: why the paper picks STT-MRAM over PRAM/ReRAM at L1
// (Section II), and what wear levelling could buy — computed from the
// measured per-frame wear of a real simulation run.
//
//   $ ./examples/endurance_study
#include <cstdio>

#include "sttsim/cpu/system.hpp"
#include "sttsim/reliability/endurance.hpp"
#include "sttsim/report/table.hpp"
#include "sttsim/util/text.hpp"
#include "sttsim/workloads/suite.hpp"

using namespace sttsim;

int main() {
  // A write-heavy workload: the in-place Gauss-Seidel stencil.
  const auto& kernel = workloads::find_kernel("seidel-2d");
  cpu::SystemConfig cfg;
  cfg.organization = cpu::Dl1Organization::kNvmVwb;
  cpu::System system(cfg);
  const auto trace = kernel.generate_decoded(workloads::CodegenOptions::none());
  const auto stats = system.run(trace);

  const auto wear = reliability::profile_wear(system.dl1().array(),
                                              stats.core.total_cycles);
  std::printf("workload        : %s (%s)\n", kernel.name.c_str(),
              kernel.description.c_str());
  std::printf("simulated time  : %.3f ms\n",
              static_cast<double>(stats.core.total_cycles) / 1e6);
  std::printf("hottest frame   : %llu writes (%.3g writes/s sustained)\n",
              static_cast<unsigned long long>(wear.max_frame_writes),
              wear.max_write_rate_hz());
  std::printf("average frame   : %.3g writes/s\n\n", wear.avg_write_rate_hz());

  report::TableBuilder t({"technology", "endurance", "time to first failure",
                          "with ideal wear levelling"});
  for (const auto& spec :
       {reliability::stt_mram_endurance(), reliability::reram_endurance(),
        reliability::pram_endurance()}) {
    t.add_row({spec.label, strprintf("%.0e", spec.write_endurance),
               reliability::format_lifetime(
                   reliability::project_lifetime(wear, spec)),
               reliability::format_lifetime(
                   reliability::project_lifetime_leveled(wear, spec))});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf(
      "\nSTT-MRAM's 1e16 budget is the only one that survives sustained L1 "
      "write\npressure — the paper's reason to focus on it (and on its READ "
      "latency)\nrather than on PRAM/ReRAM.\n");
  return 0;
}
