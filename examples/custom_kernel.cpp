// Onboarding a custom workload: write your own trace generator with the
// Emitter/DataLayout API, optimize it with the automated trace passes
// (xform), and measure it across DL1 organizations.
//
// The kernel here is a saxpy-with-gather — one unit-stride stream the
// passes can prefetch/vectorize, and one indirect stream they must leave
// alone.
//
//   $ ./examples/custom_kernel
#include <cstdio>
#include <memory>

#include "sttsim/cpu/system.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/util/rng.hpp"
#include "sttsim/workloads/emitter.hpp"
#include "sttsim/xform/passes.hpp"

using namespace sttsim;

namespace {

cpu::Trace saxpy_gather(std::uint64_t n) {
  workloads::DataLayout mem;
  const workloads::Vector x = mem.vector("x", n);
  const workloads::Vector y = mem.vector("y", n);
  // Scalar code; the xform passes will optimize the trace afterwards.
  // synthesize() runs the body twice (a sizing pass, then the fill), so the
  // body seeds its own generator and emits the same sequence both times.
  return cpu::reassemble(workloads::synthesize(
      workloads::CodegenOptions::none(), [&](workloads::Emitter& em) {
        Rng rng(7);
        for (std::uint64_t i = 0; i < n; ++i) {
          em.loop_iter();
          em.load(x.at(i));                  // unit-stride
          em.load(y.at(rng.next_below(n)));  // data-dependent gather
          em.flop(2);
          em.store(x.at(i));
        }
      }));
}

double run(const cpu::Trace& trace, cpu::Dl1Organization org) {
  cpu::SystemConfig cfg;
  cfg.organization = org;
  cpu::System system(cfg);
  return static_cast<double>(system.run(trace).core.total_cycles);
}

}  // namespace

int main() {
  const cpu::Trace raw = saxpy_gather(100000);
  std::printf("raw trace      : %s\n", cpu::describe(raw).c_str());

  // Automated optimization: the pass pipeline finds the unit-stride stream
  // and prefetches it; the gather is (correctly) left untouched.
  xform::PassManager pm;
  pm.add(std::make_unique<xform::RedundantLoadPass>())
      .add(std::make_unique<xform::BranchOverheadPass>())
      .add(std::make_unique<xform::PrefetchInsertionPass>());
  const cpu::Trace optimized = pm.run(raw);
  std::printf("optimized trace: %s\n", cpu::describe(optimized).c_str());
  for (const auto& s : pm.stats()) {
    std::printf("  pass %-18s: +%llu inserted, -%llu reduced\n",
                s.pass.c_str(), static_cast<unsigned long long>(s.ops_inserted),
                static_cast<unsigned long long>(s.ops_reduced));
  }

  const double base = run(raw, cpu::Dl1Organization::kSramBaseline);
  std::printf("\n%-22s %12s %10s\n", "organization / code", "cycles",
              "penalty");
  const auto report = [&](const char* label, const cpu::Trace& t,
                          cpu::Dl1Organization org) {
    const double c = run(t, org);
    std::printf("%-22s %12.0f %+9.1f%%\n", label, c, (c - base) / base * 100);
  };
  report("sram / raw", raw, cpu::Dl1Organization::kSramBaseline);
  report("drop-in / raw", raw, cpu::Dl1Organization::kNvmDropIn);
  report("vwb / raw", raw, cpu::Dl1Organization::kNvmVwb);
  report("vwb / optimized", optimized, cpu::Dl1Organization::kNvmVwb);
  return 0;
}
