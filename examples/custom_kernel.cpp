// Onboarding a custom workload: write your own trace generator with the
// Emitter/DataLayout API, synthesize it under the paper's code
// transformations (workloads::CodegenOptions, the path every figure takes),
// and measure it across DL1 organizations.
//
// The kernel here is a saxpy-with-gather. Its unit-stride stream is written
// with stream_load/stream_store inside a vloop, so vectorization widens it
// and prefetching drops a hint at each new line; its data-dependent gather
// is written with plain loads, which neither transformation touches.
//
//   $ ./examples/custom_kernel
#include <cstdio>
#include <iterator>

#include "sttsim/cpu/system.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/util/rng.hpp"
#include "sttsim/workloads/emitter.hpp"

using namespace sttsim;

namespace {

cpu::DecodedTrace saxpy_gather(std::uint64_t n,
                               const workloads::CodegenOptions& opts) {
  workloads::DataLayout mem;
  const workloads::Vector x = mem.vector("x", n);
  const workloads::Vector y = mem.vector("y", n);
  Rng rng(7);
  return workloads::synthesize(opts, [&](workloads::Emitter& em) {
    workloads::vloop(em, 0, n, [&](std::uint64_t i, unsigned w) {
      em.stream_load(x.at(i), w);  // unit-stride: w elements in one access
      for (unsigned e = 0; e < w; ++e) {
        em.load(y.at(rng.next_below(n)));  // data-dependent gather
      }
      em.flop(2);
      em.stream_store(x.at(i), w);
    });
  });
}

sim::RunStats run(const cpu::DecodedTrace& trace, cpu::Dl1Organization org) {
  cpu::SystemConfig cfg;
  cfg.organization = org;
  cpu::System system(cfg);
  return system.run(trace);
}

}  // namespace

int main() {
  constexpr std::uint64_t kN = 100000;
  const workloads::CodegenOptions codes[] = {
      workloads::CodegenOptions::none(), workloads::CodegenOptions::all()};
  cpu::DecodedTrace traces[std::size(codes)];
  for (std::size_t c = 0; c < std::size(codes); ++c) {
    traces[c] = saxpy_gather(kN, codes[c]);
    std::printf("%-10s trace: %s\n", codes[c].label().c_str(),
                cpu::describe(cpu::reassemble(traces[c])).c_str());
  }

  // Each organization against the SRAM baseline running the same code, as
  // in Fig. 5.
  std::printf("\n%-10s %-14s %12s %10s\n", "code", "organization", "cycles",
              "penalty");
  for (std::size_t c = 0; c < std::size(codes); ++c) {
    const sim::RunStats base =
        run(traces[c], cpu::Dl1Organization::kSramBaseline);
    for (const cpu::Dl1Organization org :
         {cpu::Dl1Organization::kSramBaseline, cpu::Dl1Organization::kNvmDropIn,
          cpu::Dl1Organization::kNvmVwb}) {
      const sim::RunStats stats = run(traces[c], org);
      std::printf("%-10s %-14s %12llu %+9.1f%%\n", codes[c].label().c_str(),
                  cpu::to_string(org),
                  static_cast<unsigned long long>(stats.core.total_cycles),
                  experiments::penalty_pct(stats, base));
    }
  }
  return 0;
}
