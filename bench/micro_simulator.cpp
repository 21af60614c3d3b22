// google-benchmark micro-benchmarks of the simulator's building blocks:
// how fast the functional cache, the VWB system and whole-kernel simulation
// run on the host. Useful for keeping the harness laptop-fast as models grow.
#include <benchmark/benchmark.h>

#include <sstream>

#include "sttsim/core/vwb.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/mem/set_assoc_cache.hpp"
#include "sttsim/util/rng.hpp"
#include "sttsim/workloads/kernels.hpp"
#include "sttsim/workloads/suite.hpp"

namespace {

using namespace sttsim;

void BM_SetAssocCacheAccess(benchmark::State& state) {
  mem::SetAssocCache cache(mem::CacheGeometry{64 * kKiB, 2, 64});
  Rng rng(42);
  std::vector<Addr> addrs(4096);
  for (auto& a : addrs) a = rng.next_below(256 * kKiB);
  std::size_t i = 0;
  for (auto _ : state) {
    const Addr a = addrs[i++ & 4095];
    if (!cache.access(a, false)) {
      const auto victim = cache.fill(a, false);
      benchmark::DoNotOptimize(victim);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SetAssocCacheAccess);

void BM_TraceGeneration_gemm(benchmark::State& state) {
  for (auto _ : state) {
    auto trace = workloads::emit(workloads::CodegenOptions::none(),
                                 workloads::gemm_into, 32, 32, 32);
    benchmark::DoNotOptimize(trace.data());
  }
}
BENCHMARK(BM_TraceGeneration_gemm);

void BM_SimulateKernel(benchmark::State& state) {
  const auto org = static_cast<cpu::Dl1Organization>(state.range(0));
  const auto trace = workloads::emit(workloads::CodegenOptions::none(),
                                     workloads::gemm_into, 32, 32, 32);
  const cpu::DecodedTrace decoded = cpu::decode(trace);
  cpu::SystemConfig cfg;
  cfg.organization = org;
  cpu::System system(cfg);
  for (auto _ : state) {
    const auto stats = system.run(decoded);
    benchmark::DoNotOptimize(stats.core.total_cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_SimulateKernel)
    ->Arg(static_cast<int>(cpu::Dl1Organization::kSramBaseline))
    ->Arg(static_cast<int>(cpu::Dl1Organization::kNvmDropIn))
    ->Arg(static_cast<int>(cpu::Dl1Organization::kNvmVwb))
    ->Arg(static_cast<int>(cpu::Dl1Organization::kNvmL0))
    ->Arg(static_cast<int>(cpu::Dl1Organization::kNvmEmshr))
    ->Arg(static_cast<int>(cpu::Dl1Organization::kNvmWriteBuf));

// The same replay loop instantiated over the virtual core::Dl1System
// interface (System::run_reference) — the reference of the per-class
// instantiations. The ratio of the two benchmarks is what static dispatch
// and the single-granule entries buy.
void BM_SimulateKernelReference(benchmark::State& state) {
  const auto org = static_cast<cpu::Dl1Organization>(state.range(0));
  const cpu::DecodedTrace trace = cpu::decode(workloads::emit(
      workloads::CodegenOptions::none(), workloads::gemm_into, 32, 32, 32));
  cpu::SystemConfig cfg;
  cfg.organization = org;
  cpu::System system(cfg);
  for (auto _ : state) {
    const auto stats = system.run_reference(trace);
    benchmark::DoNotOptimize(stats.core.total_cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_SimulateKernelReference)
    ->Arg(static_cast<int>(cpu::Dl1Organization::kSramBaseline))
    ->Arg(static_cast<int>(cpu::Dl1Organization::kNvmVwb));

void BM_VwbLookup(benchmark::State& state) {
  core::VeryWideBuffer vwb(core::VwbGeometry{2, 128, 64});
  const auto clean = [](Addr) {};  // nothing is evicted
  vwb.fill_sector(vwb.allocate_line(0x1000, clean), 0x1000, 0);
  vwb.fill_sector(vwb.allocate_line(0x2000, clean), 0x2000, 0);
  Addr a = 0x1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vwb.lookup(a));
    a ^= 0x3000;  // alternate between the two resident lines
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VwbLookup);

void BM_TraceIoRoundTrip(benchmark::State& state) {
  const auto trace = workloads::emit(workloads::CodegenOptions::none(),
                                     workloads::gemm_into, 16, 16, 16);
  for (auto _ : state) {
    std::stringstream ss;
    cpu::write_trace(ss, trace);
    auto restored = cpu::read_trace(ss);
    benchmark::DoNotOptimize(restored.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()) * 16);
}
BENCHMARK(BM_TraceIoRoundTrip);

void BM_FullSuiteTraceGen(benchmark::State& state) {
  for (auto _ : state) {
    for (const auto& k : workloads::polybench_suite()) {
      auto t = k.generate_decoded(workloads::CodegenOptions::none());
      benchmark::DoNotOptimize(t.chunk(0).data());
      break;  // first kernel only; perfbench times the full sweep
    }
  }
}
BENCHMARK(BM_FullSuiteTraceGen);

}  // namespace

BENCHMARK_MAIN();
