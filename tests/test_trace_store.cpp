// Tests: the persistent compressed-trace store (exec/trace_store) — what it
// adds to the store engine, whose durability matrix test_result_store runs
// (a content-version change re-initializes the file, the blob cap) — the
// compressed trace form the store holds (exact round trip, escape fallback,
// cursor, adversarial streams), the blob codec, the trace-digest key, and
// the engine-level invariant that a warm trace store serves byte-identical
// results while generating zero traces.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/exec/trace_store.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/workloads/kernels.hpp"
#include "sttsim/workloads/suite.hpp"
#include "trace_util.hpp"

namespace sttsim {
namespace {

constexpr std::uint32_t kContent = 7;  // content version used throughout

/// The process id keeps concurrent runs of this binary (other build trees
/// share the temp directory) off each other's store paths.
std::string temp_store_path(const char* name) {
  return ::testing::TempDir() + "sttsim_tstore_" + name + "_" +
         std::to_string(::getpid()) + ".bin";
}

std::vector<std::uint8_t> make_blob(std::uint8_t seed, std::size_t len) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<std::uint8_t>(seed + 3 * i);
  }
  return p;
}

// A different content version (a kTraceFormatVersion bump) makes every old
// blob unreachable wholesale.
TEST(TraceStore, ContentVersionChangeReinitializesEmpty) {
  const std::string path = temp_store_path("content");
  std::remove(path.c_str());
  {
    exec::TraceStore store(path, kContent);
    const auto blob = make_blob(7, 16);
    store.append(7, blob.data(), blob.size());
  }
  {
    exec::TraceStore store(path, kContent + 1);
    EXPECT_EQ(store.entries(), 0u);
    const auto blob = make_blob(8, 16);
    store.append(8, blob.data(), blob.size());
  }
  exec::TraceStore store(path, kContent + 1);
  EXPECT_EQ(store.entries(), 1u);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(store.lookup(7, out));
  ASSERT_TRUE(store.lookup(8, out));
  EXPECT_EQ(out, make_blob(8, 16));
  std::remove(path.c_str());
}

TEST(TraceStore, OversizedBlobIgnored) {
  const std::string path = temp_store_path("oversized");
  std::remove(path.c_str());
  exec::TraceStore store(path, kContent);
  const auto a = make_blob(1, 32);
  // A stated length beyond the blob cap never reaches the file.
  store.append(43, a.data(),
               static_cast<std::size_t>(exec::TraceStore::kMaxBlobBytes) + 1);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(store.lookup(43, out));
  EXPECT_EQ(store.entries(), 0u);
  std::remove(path.c_str());
}

// ---- Compressed trace representation ---------------------------------

void expect_ops_equal(const cpu::DecodedTrace& a, const cpu::DecodedTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) continue;
    SCOPED_TRACE("op " + std::to_string(i));
    EXPECT_EQ(a[i].addr, b[i].addr);
    EXPECT_EQ(a[i].count, b[i].count);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].span32, b[i].span32);
    EXPECT_EQ(a[i].span64, b[i].span64);
  }
}

TEST(CompressedTrace, ExactRoundTripOnGeneratedTraces) {
  // Random fuzz mix and a kernel trace: compress must invert exactly, and
  // the stream must actually be smaller.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const cpu::Trace trace = testutil::random_trace(seed, 5000, 1 << 18);
    const cpu::DecodedTrace decoded = cpu::decode(trace);
    const cpu::CompressedTrace compressed = cpu::compress(decoded);
    EXPECT_EQ(compressed.size(), decoded.size());
    EXPECT_LT(compressed.bytes.size(), compressed.decoded_bytes() / 2)
        << "compression should at least halve the op stream";
    expect_ops_equal(cpu::decompress(compressed), decoded);
  }
  const cpu::Trace kernel = workloads::emit(
      workloads::CodegenOptions::all(), workloads::gemm_into, 16, 16, 16);
  const cpu::DecodedTrace decoded = cpu::decode(kernel);
  expect_ops_equal(cpu::decompress(cpu::compress(decoded)), decoded);
}

TEST(CompressedTrace, ExactRoundTripAcrossChunkBoundaries) {
  // Three chunks, the last holding 17 ops: the compressed stream runs on
  // across chunks and expands back into the same chunk layout.
  const cpu::Trace trace =
      testutil::random_trace(17, 2 * cpu::kChunkOps + 17, 1 << 18);
  const cpu::DecodedTrace decoded = cpu::decode(trace);
  ASSERT_EQ(decoded.chunk_count(), 3u);
  const cpu::DecodedTrace back = cpu::decompress(cpu::compress(decoded));
  EXPECT_EQ(back.chunk_count(), 3u);
  expect_ops_equal(back, decoded);
}

TEST(CompressedTrace, EscapePathRoundTripsDegenerateOps) {
  // Ops the compact form cannot carry must survive via the 0xFF escape:
  // exec with a nonzero addr, memory ops with count != 1, ops whose stored
  // spans disagree with recomputation, zero-count exec.
  cpu::DecodedTrace weird;
  cpu::DecodedOp exec_addr;
  exec_addr.kind = cpu::OpKind::kExec;
  exec_addr.addr = 0xdead;
  exec_addr.count = 5;
  weird.push_back(exec_addr);

  cpu::DecodedOp multi_load;
  multi_load.kind = cpu::OpKind::kLoad;
  multi_load.addr = 0x1000;
  multi_load.size = 8;
  multi_load.count = 3;  // decode() never emits this
  multi_load.span32 = 1;
  multi_load.span64 = 1;
  weird.push_back(multi_load);

  cpu::DecodedOp bad_span;
  bad_span.kind = cpu::OpKind::kStore;
  bad_span.addr = 0x2000;
  bad_span.size = 16;
  bad_span.span32 = 7;  // disagrees with span_of(0x2000, 16, 5)
  bad_span.span64 = 1;
  weird.push_back(bad_span);

  cpu::DecodedOp zero_exec;
  zero_exec.kind = cpu::OpKind::kExec;
  zero_exec.count = 0;
  weird.push_back(zero_exec);

  // A normal op after the escapes: prev_addr/prev_size tracking must have
  // stayed consistent across the escape path.
  cpu::DecodedOp normal;
  normal.kind = cpu::OpKind::kLoad;
  normal.addr = 0x2008;
  normal.size = 16;
  normal.span32 = cpu::span_of(0x2008, 16, 5);
  normal.span64 = cpu::span_of(0x2008, 16, 6);
  weird.push_back(normal);

  expect_ops_equal(cpu::decompress(cpu::compress(weird)), weird);
}

TEST(CompressedTrace, CursorMatchesDecompress) {
  cpu::Trace trace = testutil::random_trace(11, 2000, 1 << 14);
  const cpu::DecodedTrace decoded = cpu::decode(trace);
  const cpu::CompressedTrace compressed = cpu::compress(decoded);
  const cpu::DecodedTrace expanded = cpu::decompress(compressed);

  cpu::CompressedCursor cursor(compressed);
  cpu::DecodedOp op;
  std::size_t i = 0;
  while (cursor.next(op)) {
    ASSERT_LT(i, expanded.size());
    SCOPED_TRACE("op " + std::to_string(i));
    EXPECT_EQ(op.addr, expanded[i].addr);
    EXPECT_EQ(op.count, expanded[i].count);
    EXPECT_EQ(op.kind, expanded[i].kind);
    EXPECT_EQ(op.size, expanded[i].size);
    EXPECT_EQ(op.span32, expanded[i].span32);
    EXPECT_EQ(op.span64, expanded[i].span64);
    ++i;
  }
  EXPECT_EQ(i, expanded.size());
}

// ---- Adversarial round-trip properties -------------------------------
//
// compress()/decompress() claim to be exact inverses for ANY op stream.
// The generated-trace tests above only reach the friendly encodings, so
// these drive the worst corners of the format head-on: address deltas of
// maximal magnitude in both directions (10-byte zigzag varints, wraparound
// through 2^64), the prefetch+size+varint tag whose bit pattern collides
// with the 0xFF escape, and zero-length exec runs.

cpu::DecodedOp mem_op(cpu::OpKind kind, Addr addr, std::uint8_t size) {
  cpu::DecodedOp op;
  op.kind = kind;
  op.addr = addr;
  op.size = size;
  const bool mem = kind != cpu::OpKind::kPrefetch;
  op.span32 = mem ? cpu::span_of(addr, size, 5) : std::uint8_t{1};
  op.span64 = mem ? cpu::span_of(addr, size, 6) : std::uint8_t{1};
  return op;
}

cpu::DecodedOp exec_op(std::uint32_t count) {
  cpu::DecodedOp op;
  op.kind = cpu::OpKind::kExec;
  op.count = count;
  op.size = 0;
  return op;
}

TEST(CompressedTrace, MaxMagnitudeDeltasRoundTrip) {
  // Consecutive addresses chosen so the deltas hit INT64_MIN, INT64_MAX,
  // -1, +1, and full wraparound — the zigzag/varint stack's extremes.
  const Addr extremes[] = {
      0x0ULL,
      0x8000000000000000ULL,  // delta INT64_MIN
      0x0ULL,                 // delta INT64_MIN again (wraps the other way)
      0x7fffffffffffffffULL,  // delta INT64_MAX
      0xffffffffffffffffULL,  // delta INT64_MIN (as int64)
      0xfffffffffffffffeULL,  // delta -1
      0xffffffffffffffffULL,  // delta +1
      0x1ULL,                 // delta +2 (wraps through zero)
  };
  cpu::DecodedTrace t;
  for (const Addr a : extremes) {
    t.push_back(mem_op(cpu::OpKind::kLoad, a, 8));
  }
  expect_ops_equal(cpu::decompress(cpu::compress(t)), t);
}

TEST(CompressedTrace, EscapeCollisionTagRoundTrips) {
  // A prefetch with a changed size byte and a >= 31 zigzag delta encodes
  // tag 0b11111111 — exactly the escape marker. The compressor must detect
  // the collision and fall back to the verbatim form, and prev_addr /
  // prev_size tracking must stay consistent so the *next* delta-coded op
  // still expands correctly.
  cpu::DecodedTrace t;
  t.push_back(mem_op(cpu::OpKind::kLoad, 0x1000, 8));  // prev = (0x1000, 8)
  cpu::DecodedOp collide = mem_op(cpu::OpKind::kPrefetch, 0x1400, 0);
  t.push_back(collide);  // delta 0x400, size 0 != 8 -> tag would be 0xFF
  t.push_back(mem_op(cpu::OpKind::kLoad, 0x1408, 8));  // delta vs 0x1400
  const cpu::CompressedTrace c = cpu::compress(t);
  // The collision op must have taken the 17-byte escape.
  std::size_t escapes = 0;
  for (std::size_t i = 0; i < c.bytes.size();) {
    if (c.bytes[i] == 0xFFu) {
      ++escapes;
      i += 1 + sizeof(cpu::DecodedOp);
    } else {
      ++i;
    }
  }
  EXPECT_EQ(escapes, 1u);
  expect_ops_equal(cpu::decompress(c), t);
}

TEST(CompressedTrace, AdversarialPropertyFuzz) {
  // Property: for 64 seeded random streams mixing every nasty shape —
  // extreme addresses, every kind, size changes on every op, zero-length
  // exec runs, and the 62/63/64 inline-count boundary — decompress is the
  // exact inverse and the cursor agrees op-for-op.
  const Addr hot_spots[] = {0x0ULL,
                            0x1ULL,
                            0x7fffffffffffffffULL,
                            0x8000000000000000ULL,
                            0x8000000000000001ULL,
                            0xffffffffffffffffULL,
                            0x1000ULL,
                            0x1008ULL};
  const std::uint8_t sizes[] = {0, 1, 2, 4, 8, 16, 32, 64, 255};
  const std::uint32_t counts[] = {0, 1, 2, 62, 63, 64, 100000};
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng rng(seed);
    cpu::DecodedTrace t;
    for (unsigned i = 0; i < 200; ++i) {
      switch (rng.next_below(4)) {
        case 0:
          t.push_back(exec_op(counts[rng.next_below(std::size(counts))]));
          break;
        case 1:
          t.push_back(mem_op(cpu::OpKind::kLoad,
                                 hot_spots[rng.next_below(std::size(hot_spots))],
                                 sizes[rng.next_below(std::size(sizes))]));
          break;
        case 2:
          t.push_back(
              mem_op(cpu::OpKind::kStore,
                     hot_spots[rng.next_below(std::size(hot_spots))],
                     sizes[rng.next_below(std::size(sizes))]));
          break;
        default:
          t.push_back(
              mem_op(cpu::OpKind::kPrefetch,
                     hot_spots[rng.next_below(std::size(hot_spots))],
                     sizes[rng.next_below(std::size(sizes))]));
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    const cpu::CompressedTrace c = cpu::compress(t);
    EXPECT_EQ(c.size(), t.size());
    expect_ops_equal(cpu::decompress(c), t);
    cpu::CompressedCursor cursor(c);
    cpu::DecodedOp op;
    std::size_t n = 0;
    while (cursor.next(op)) ++n;
    EXPECT_EQ(n, t.size());
  }
}

// ---- Blob codec -------------------------------------------------------

TEST(CompressedBlobCodec, ExactRoundTripAndCorruptionRejected) {
  const cpu::Trace trace = testutil::random_trace(13, 1500, 1 << 14);
  const cpu::CompressedTrace compressed = cpu::compress(cpu::decode(trace));
  const std::vector<std::uint8_t> blob = cpu::serialize_compressed(compressed);

  cpu::CompressedTrace back;
  ASSERT_TRUE(cpu::deserialize_compressed(blob.data(), blob.size(), back));
  EXPECT_EQ(back.op_count, compressed.op_count);
  EXPECT_EQ(back.bytes, compressed.bytes);
  EXPECT_EQ(blob.size(), 16 + compressed.bytes.size());  // no other section

  // Truncation anywhere (a short header, an empty or cut stream) must fail
  // cleanly rather than read out of bounds.
  for (const std::size_t len : {std::size_t{0}, std::size_t{10},
                                std::size_t{15}, std::size_t{16},
                                blob.size() - 1}) {
    EXPECT_FALSE(cpu::deserialize_compressed(blob.data(), len, back))
        << "len " << len;
  }
  // An inconsistent stream length must fail, not misparse.
  std::vector<std::uint8_t> bad = blob;
  bad[8] = static_cast<std::uint8_t>(bad[8] ^ 0x01);  // stream_bytes field
  EXPECT_FALSE(cpu::deserialize_compressed(bad.data(), bad.size(), back));
}

// ---- Trace digest -----------------------------------------------------

TEST(TraceDigest, StableAndSensitiveToKernelAndCodegen) {
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  const std::uint64_t d = experiments::trace_digest("gemm", none);
  EXPECT_EQ(d, experiments::trace_digest("gemm", none));
  EXPECT_NE(d, experiments::trace_digest("atax", none));
  EXPECT_NE(d,
            experiments::trace_digest("gemm", workloads::CodegenOptions::all()));
  workloads::CodegenOptions vec = none;
  vec.vectorize = true;
  EXPECT_NE(d, experiments::trace_digest("gemm", vec));
  workloads::CodegenOptions pf = none;
  pf.prefetch = true;
  EXPECT_NE(experiments::trace_digest("gemm", vec),
            experiments::trace_digest("gemm", pf));
}

// ---- Engine-level integration -----------------------------------------

/// RAII: installs a fresh trace store for one scope and restores the
/// process-wide registration on exit.
class ScopedTraceStore {
 public:
  explicit ScopedTraceStore(const std::string& path)
      : store_(path, cpu::kTraceFormatVersion) {
    exec::set_trace_store(&store_);
  }
  ~ScopedTraceStore() { exec::set_trace_store(nullptr); }
  exec::TraceStore& get() { return store_; }

 private:
  exec::TraceStore store_;
};

TEST(TraceStoreIntegration, WarmRunGeneratesZeroTracesAndStaysIdentical) {
  const auto kernels = experiments::select_kernels({"atax"});
  const std::vector<experiments::SuiteJob> jobs = {
      {experiments::make_config(cpu::Dl1Organization::kNvmVwb),
       workloads::CodegenOptions::all()}};
  // One grid point: the atax trace replayed on the VWB system.
  const auto run = [&](experiments::TraceCache& cache) {
    return sim::to_json(experiments::run_grid(cache, kernels, jobs)[0][0]);
  };
  const std::string path = temp_store_path("integration");
  std::remove(path.c_str());

  exec::set_trace_store(nullptr);
  experiments::TraceCache ref_cache;
  const std::string reference = run(ref_cache);

  auto& telemetry = exec::Telemetry::instance();
  std::string cold;
  {
    ScopedTraceStore store(path);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    experiments::TraceCache cache;
    cold = run(cache);
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.trace_store_misses, 1u);
    EXPECT_EQ(delta.trace_store_hits, 0u);
    EXPECT_EQ(delta.traces_generated, 1u);
    EXPECT_EQ(store.get().entries(), 1u);
  }
  // Fresh store object + fresh trace cache: the warm pass must decode the
  // trace from disk and generate nothing.
  {
    ScopedTraceStore store(path);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    experiments::TraceCache cache;
    const std::string warm = run(cache);
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.trace_store_hits, 1u);
    EXPECT_EQ(delta.trace_store_misses, 0u);
    EXPECT_EQ(delta.traces_generated, 0u);
    EXPECT_EQ(warm, cold);
  }
  EXPECT_EQ(cold, reference) << "trace store changed simulation results";
  std::remove(path.c_str());
}

// The stored blob must reproduce the generated trace bit for bit: the
// decoded ops the cache keeps after decompressing it, and the raw-trace
// reassembly (every store payload 0), both match a storeless generation.
TEST(TraceStoreIntegration, StoredTraceDecodesToIdenticalWorkload) {
  const workloads::Kernel& kernel = workloads::find_kernel("gemm");
  const workloads::CodegenOptions opts = workloads::CodegenOptions::none();
  const std::string path = temp_store_path("workload");
  std::remove(path.c_str());

  exec::set_trace_store(nullptr);
  experiments::TraceCache ref_cache;
  const cpu::DecodedTrace& reference = ref_cache.get_decoded(kernel, opts);

  {
    ScopedTraceStore store(path);
    experiments::TraceCache cache;
    cache.get_decoded(kernel, opts);  // cold: populates the store
  }
  ScopedTraceStore store(path);
  experiments::TraceCache cache;
  const cpu::DecodedTrace& warm = cache.get_decoded(kernel, opts);
  expect_ops_equal(warm, reference);
  // The raw-trace view reassembles identically from the stored form too.
  const cpu::Trace& raw = cache.get(kernel, opts);
  const cpu::Trace& ref_raw = ref_cache.get(kernel, opts);
  EXPECT_TRUE(raw == ref_raw);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sttsim
