// The replay loop (cpu/replay.hpp) instantiated over the concrete DL1
// classes — static dispatch, single-granule entries — must be
// observationally identical to the same loop over the virtual
// core::Dl1System interface (System::run_reference), and System::run_observed
// to System::run: same cycles, same stall breakdown, same memory-hierarchy
// counters, for every DL1 organization. These tests pin those equivalences
// on randomized trace campaigns, and pin the decoded-trace representation
// itself (decode/reassemble round trip, precomputed spans).
#include <gtest/gtest.h>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/system.hpp"
#include "sttsim/util/rng.hpp"
#include "sttsim/workloads/kernels.hpp"
#include "trace_util.hpp"

namespace {

using namespace sttsim;

const cpu::Dl1Organization kAllOrgs[] = {
    cpu::Dl1Organization::kSramBaseline, cpu::Dl1Organization::kNvmDropIn,
    cpu::Dl1Organization::kNvmVwb,       cpu::Dl1Organization::kNvmL0,
    cpu::Dl1Organization::kNvmEmshr,     cpu::Dl1Organization::kNvmWriteBuf};

/// Every RunStats field, compared individually so a divergence names the
/// counter that broke.
void expect_identical(const sim::RunStats& fast, const sim::RunStats& ref,
                      const std::string& context) {
  SCOPED_TRACE(context);
  // Core.
  EXPECT_EQ(fast.core.instructions, ref.core.instructions);
  EXPECT_EQ(fast.core.mem_instructions, ref.core.mem_instructions);
  EXPECT_EQ(fast.core.exec_cycles, ref.core.exec_cycles);
  EXPECT_EQ(fast.core.read_stall_cycles, ref.core.read_stall_cycles);
  EXPECT_EQ(fast.core.write_stall_cycles, ref.core.write_stall_cycles);
  EXPECT_EQ(fast.core.structural_stall_cycles,
            ref.core.structural_stall_cycles);
  EXPECT_EQ(fast.core.total_cycles, ref.core.total_cycles);
  // Memory hierarchy — all twenty-four counters.
  EXPECT_EQ(fast.mem.loads, ref.mem.loads);
  EXPECT_EQ(fast.mem.stores, ref.mem.stores);
  EXPECT_EQ(fast.mem.prefetches, ref.mem.prefetches);
  EXPECT_EQ(fast.mem.front_hits, ref.mem.front_hits);
  EXPECT_EQ(fast.mem.front_misses, ref.mem.front_misses);
  EXPECT_EQ(fast.mem.front_store_hits, ref.mem.front_store_hits);
  EXPECT_EQ(fast.mem.promotions, ref.mem.promotions);
  EXPECT_EQ(fast.mem.front_writebacks, ref.mem.front_writebacks);
  EXPECT_EQ(fast.mem.prefetch_hits, ref.mem.prefetch_hits);
  EXPECT_EQ(fast.mem.l1_read_hits, ref.mem.l1_read_hits);
  EXPECT_EQ(fast.mem.l1_write_hits, ref.mem.l1_write_hits);
  EXPECT_EQ(fast.mem.l1_misses, ref.mem.l1_misses);
  EXPECT_EQ(fast.mem.l1_writebacks, ref.mem.l1_writebacks);
  EXPECT_EQ(fast.mem.l2_hits, ref.mem.l2_hits);
  EXPECT_EQ(fast.mem.l2_misses, ref.mem.l2_misses);
  EXPECT_EQ(fast.mem.l1_array_reads, ref.mem.l1_array_reads);
  EXPECT_EQ(fast.mem.l1_array_writes, ref.mem.l1_array_writes);
  EXPECT_EQ(fast.mem.l2_array_reads, ref.mem.l2_array_reads);
  EXPECT_EQ(fast.mem.l2_array_writes, ref.mem.l2_array_writes);
  EXPECT_EQ(fast.mem.bank_conflict_cycles, ref.mem.bank_conflict_cycles);
  EXPECT_EQ(fast.mem.ecc_corrections, ref.mem.ecc_corrections);
  EXPECT_EQ(fast.mem.ecc_refills, ref.mem.ecc_refills);
  EXPECT_EQ(fast.mem.l1_frame_writes_max, ref.mem.l1_frame_writes_max);
  EXPECT_EQ(fast.mem.l1_frame_writes_total, ref.mem.l1_frame_writes_total);
}

// Clean and faulted: a faulted NVM system must give the same counters,
// ECC ones included, on run() as on the virtual reference loop.
TEST(FastPath, MatchesReferenceOnRandomTraces) {
  for (const cpu::Dl1Organization org : kAllOrgs) {
    for (const bool faulted : {false, true}) {
      cpu::SystemConfig cfg;
      cfg.organization = org;
      cfg.faults.enabled = faulted;
      cfg.faults.seed = 11;
      cfg.faults.fail_ppm = 200'000;
      cfg.faults.double_fault_pct = 30;
      cfg.faults.retention_window_log2 = 8;
      cfg.faults.wear_sensitivity_log2 = 2;
      cpu::System system(cfg);
      std::uint64_t ecc_events = 0;
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        // Region sweeps from cache-resident to thrashing the 64 KiB DL1.
        const Addr region = Addr{8} << (10 + 2 * (seed % 4));
        const cpu::DecodedTrace trace =
            cpu::decode(testutil::random_trace(seed, 4000, region));
        const sim::RunStats fast = system.run(trace);
        const sim::RunStats ref = system.run_reference(trace);
        expect_identical(fast, ref,
                         std::string(cpu::to_string(org)) +
                             (faulted ? " faulted" : " clean") + " seed " +
                             std::to_string(seed));
        ecc_events += fast.mem.ecc_corrections + fast.mem.ecc_refills;
      }
      if (cfg.faults_active()) {
        EXPECT_GT(ecc_events, 0u) << cpu::to_string(org) << " never faulted";
      }
    }
  }
}

TEST(FastPath, MatchesReferenceOnKernelTrace) {
  const cpu::Trace trace = workloads::emit(
      workloads::CodegenOptions::none(), workloads::gemm_into, 20, 20, 20);
  const cpu::DecodedTrace decoded = cpu::decode(trace);
  for (const cpu::Dl1Organization org : kAllOrgs) {
    cpu::SystemConfig cfg;
    cfg.organization = org;
    cpu::System system(cfg);
    // The same decoded trace is shared (read-only) across organizations,
    // exactly as the grid's trace cache shares it across workers.
    expect_identical(system.run(decoded), system.run_reference(decoded),
                     cpu::to_string(org));
  }
}

TEST(FastPath, RawTraceOverloadDecodesOnTheFly) {
  const cpu::Trace trace = testutil::random_trace(99, 2000, 64 * kKiB);
  cpu::SystemConfig cfg;
  cfg.organization = cpu::Dl1Organization::kNvmVwb;
  cpu::System system(cfg);
  expect_identical(system.run(trace), system.run_reference(cpu::decode(trace)),
                   "run(Trace) overload");
}

TEST(FastPath, ObservedRunMatchesRunWithAndWithoutFaults) {
  // The oracle's entry point must replay exactly what run() replays, fault
  // decorator included, and report every op once, in order: each op issues
  // when the previous one retired, so completion cycles never decrease.
  const cpu::DecodedTrace decoded =
      cpu::decode(testutil::random_trace(7, 3000, 96 * kKiB));
  for (const cpu::Dl1Organization org : kAllOrgs) {
    for (const bool faulted : {false, true}) {
      cpu::SystemConfig cfg;
      cfg.organization = org;
      cfg.faults.enabled = faulted;
      cfg.faults.seed = 5;
      cfg.faults.fail_ppm = 300'000;
      cfg.faults.double_fault_pct = 25;
      cfg.faults.retention_window_log2 = 10;
      SCOPED_TRACE(std::string(cpu::to_string(org)) +
                   (faulted ? " faulted" : " clean"));
      cpu::System system(cfg);
      const sim::RunStats plain = system.run(decoded);
      std::size_t events = 0;
      sim::Cycle last = 0;
      bool in_order = true;
      const sim::RunStats observed =
          system.run_observed(decoded, [&](const cpu::OpEvent& ev) {
            in_order = in_order && ev.index == events &&
                       ev.issue == last && ev.complete >= ev.issue;
            last = ev.complete;
            ++events;
          });
      EXPECT_EQ(sim::to_json(observed), sim::to_json(plain));
      EXPECT_EQ(events, decoded.size());
      EXPECT_TRUE(in_order);
      EXPECT_EQ(last, plain.core.total_cycles);
      if (cfg.faults_active()) {
        EXPECT_GT(plain.mem.ecc_corrections + plain.mem.ecc_refills, 0u);
      }
    }
  }
}

// A trace over three chunks that ends 17 ops into the last.
cpu::DecodedTrace chunk_spanning_trace() {
  return cpu::decode(
      testutil::random_trace(31, 2 * cpu::kChunkOps + 17, 96 * kKiB));
}

TEST(FastPath, MatchesReferenceAcrossChunkBoundaries) {
  const cpu::DecodedTrace decoded = chunk_spanning_trace();
  ASSERT_EQ(decoded.chunk_count(), 3u);
  for (const cpu::Dl1Organization org : kAllOrgs) {
    cpu::SystemConfig cfg;
    cfg.organization = org;
    cpu::System system(cfg);
    expect_identical(system.run(decoded), system.run_reference(decoded),
                     cpu::to_string(org));
  }
}

TEST(FastPath, ObservedRunIndexesEveryOpAcrossChunkBoundaries) {
  // OpEvent::index is the op's index in the whole trace, not in its chunk.
  const cpu::DecodedTrace decoded = chunk_spanning_trace();
  for (const cpu::Dl1Organization org : kAllOrgs) {
    SCOPED_TRACE(cpu::to_string(org));
    cpu::SystemConfig cfg;
    cfg.organization = org;
    cpu::System system(cfg);
    std::size_t events = 0;
    bool in_order = true;
    system.run_observed(decoded, [&](const cpu::OpEvent& ev) {
      in_order = in_order && ev.index == events;
      ++events;
    });
    EXPECT_EQ(events, decoded.size());
    EXPECT_TRUE(in_order);
  }
}

TEST(DecodedTrace, RoundTripsAcrossChunkBoundaries) {
  const cpu::Trace trace =
      testutil::random_trace(31, 2 * cpu::kChunkOps + 17, 96 * kKiB);
  const cpu::DecodedTrace decoded = cpu::decode(trace);
  ASSERT_EQ(decoded.chunk_count(), 3u);
  EXPECT_EQ(decoded.chunk(2).size(), 17u);
  EXPECT_TRUE(cpu::reassemble(decoded) == testutil::without_payloads(trace));
}

TEST(DecodedTrace, RoundTripsExactly) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const cpu::Trace trace = testutil::random_trace(seed, 1000, 256 * kKiB);
    const cpu::Trace back = cpu::reassemble(cpu::decode(trace));
    const cpu::Trace expected = testutil::without_payloads(trace);
    ASSERT_EQ(back.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                   std::to_string(i));
      EXPECT_EQ(back[i], expected[i]);
    }
  }
}

TEST(DecodedTrace, PrecomputedSpansMatchOnTheFly) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    const Addr addr = rng.next_below(1 * kMiB);
    const unsigned size = 1u + static_cast<unsigned>(rng.next_below(64));
    cpu::Trace one{cpu::make_load(addr, size)};
    const cpu::DecodedOp op = cpu::decode(one)[0];
    for (const unsigned shift : {5u, 6u, 7u}) {
      const Addr mask = (Addr{1} << shift) - 1;
      const unsigned expected = static_cast<unsigned>(
          ((addr & mask) + size - 1) >> shift) + 1;
      EXPECT_EQ(cpu::decoded_span(op, shift), expected)
          << "addr=" << addr << " size=" << size << " shift=" << shift;
    }
  }
}

TEST(DecodedTrace, ExecOpsCarryCountAndNoSpans) {
  cpu::Trace trace{cpu::make_exec(17), cpu::make_prefetch(0x1234)};
  const cpu::DecodedTrace d = cpu::decode(trace);
  EXPECT_EQ(d[0].count, 17u);
  EXPECT_EQ(d[0].kind, cpu::OpKind::kExec);
  EXPECT_EQ(d[1].kind, cpu::OpKind::kPrefetch);
}

}  // namespace
