// Tests: the persistent compressed-trace store (exec/trace_store) —
// durability of the variable-length record log (truncated tail, tampered
// payloads, corrupted lengths that would desync framing, wrong
// schema/content version), concurrency, cross-process sharing (forked
// second writers, first-write-wins across processes, recovery from a
// writer killed mid-append), open-failure diagnostics, the blob codec, the
// trace-digest key, and the engine-level invariant that a warm trace store
// serves byte-identical results while generating zero traces.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/trace_io.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/exec/trace_store.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/workloads/suite.hpp"
#include "trace_util.hpp"

namespace sttsim {
namespace {

constexpr std::size_t kHeaderBytes = 24;  // magic, schema, aux, check
constexpr std::size_t kRecordHead = 12;   // digest u64 + len u32
constexpr std::size_t kRecordTail = 8;    // checksum u64
constexpr std::uint32_t kContent = 7;     // content version used throughout

std::size_t record_bytes(std::size_t payload) {
  return kRecordHead + payload + kRecordTail;
}

std::string temp_store_path(const char* name) {
  return ::testing::TempDir() + "sttsim_tstore_" + name + ".bin";
}

std::vector<std::uint8_t> make_blob(std::uint8_t seed, std::size_t len) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<std::uint8_t>(seed + 3 * i);
  }
  return p;
}

/// Overwrites one byte of the file in place (tampering helper).
void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x5a));
}

TEST(TraceStore, RoundTripVariableLengthBlobsAcrossReopen) {
  const std::string path = temp_store_path("roundtrip");
  std::remove(path.c_str());
  // Deliberately varied lengths (including empty): records are
  // variable-length, unlike the fixed-record result store.
  const std::size_t lens[] = {0, 1, 7, 64, 1000};
  {
    exec::TraceStore store(path, kContent);
    EXPECT_EQ(store.entries(), 0u);
    for (std::size_t i = 0; i < std::size(lens); ++i) {
      const auto blob = make_blob(static_cast<std::uint8_t>(i), lens[i]);
      store.append(100 + i, blob.data(), blob.size());
    }
    EXPECT_EQ(store.entries(), std::size(lens));
  }
  exec::TraceStore store(path, kContent);
  EXPECT_EQ(store.entries(), std::size(lens));
  EXPECT_EQ(store.dropped_records(), 0u);
  EXPECT_EQ(store.truncated_bytes(), 0u);
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < std::size(lens); ++i) {
    ASSERT_TRUE(store.lookup(100 + i, out)) << "blob " << i;
    EXPECT_EQ(out, make_blob(static_cast<std::uint8_t>(i), lens[i]));
  }
  EXPECT_FALSE(store.lookup(9999, out));
  std::remove(path.c_str());
}

TEST(TraceStore, FirstWriteWinsAndOversizedBlobIgnored) {
  const std::string path = temp_store_path("firstwrite");
  std::remove(path.c_str());
  exec::TraceStore store(path, kContent);
  const auto a = make_blob(1, 32);
  const auto b = make_blob(2, 48);
  store.append(42, a.data(), a.size());
  store.append(42, b.data(), b.size());  // ignored
  EXPECT_EQ(store.entries(), 1u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(store.lookup(42, out));
  EXPECT_EQ(out, a);
  // A stated length beyond the blob cap never reaches the file.
  store.append(43, a.data(),
               static_cast<std::size_t>(exec::TraceStore::kMaxBlobBytes) + 1);
  EXPECT_FALSE(store.contains(43));
  std::remove(path.c_str());
}

TEST(TraceStore, TruncatedTailIsDroppedAndFileRealigned) {
  const std::string path = temp_store_path("truncated");
  std::remove(path.c_str());
  {
    exec::TraceStore store(path, kContent);
    for (std::uint8_t i = 1; i <= 3; ++i) {
      const auto blob = make_blob(i, 40);
      store.append(i, blob.data(), blob.size());
    }
  }
  // Chop the third record in half — a crash mid-append.
  const std::size_t keep = kHeaderBytes + 2 * record_bytes(40) + 10;
  std::filesystem::resize_file(path, keep);
  {
    exec::TraceStore store(path, kContent);
    EXPECT_EQ(store.entries(), 2u);
    EXPECT_EQ(store.truncated_bytes(), 10u);
    std::vector<std::uint8_t> out;
    EXPECT_TRUE(store.lookup(1, out));
    EXPECT_TRUE(store.lookup(2, out));
    EXPECT_FALSE(store.lookup(3, out));
    // Appending after recovery must stay record-aligned.
    const auto blob = make_blob(4, 24);
    store.append(4, blob.data(), blob.size());
  }
  exec::TraceStore store(path, kContent);
  EXPECT_EQ(store.entries(), 3u);
  EXPECT_EQ(store.truncated_bytes(), 0u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(store.lookup(4, out));
  EXPECT_EQ(out, make_blob(4, 24));
  std::remove(path.c_str());
}

TEST(TraceStore, WrongSchemaOrContentVersionReinitializesEmpty) {
  const std::string path = temp_store_path("schema");
  std::remove(path.c_str());
  {
    exec::TraceStore store(path, kContent);
    const auto blob = make_blob(7, 16);
    store.append(7, blob.data(), blob.size());
  }
  // A different content version (e.g. a kTraceFormatVersion bump) makes
  // every old blob unreachable wholesale.
  {
    exec::TraceStore store(path, kContent + 1);
    EXPECT_EQ(store.entries(), 0u);
    const auto blob = make_blob(8, 16);
    store.append(8, blob.data(), blob.size());
  }
  // And a tampered schema field re-initializes too.
  flip_byte(path, 8);
  exec::TraceStore store(path, kContent + 1);
  EXPECT_EQ(store.entries(), 0u);
  std::remove(path.c_str());
}

// A tampered record's checksum no longer matches, so the key must MISS
// (forcing a regenerate) rather than serve corrupt trace bytes. Framing is
// intact, so records after the tampered one stay readable.
TEST(TraceStore, TamperedPayloadSkippedInPlace) {
  const std::string path = temp_store_path("tampered");
  std::remove(path.c_str());
  {
    exec::TraceStore store(path, kContent);
    const auto a = make_blob(1, 30);
    const auto b = make_blob(2, 30);
    store.append(1, a.data(), a.size());
    store.append(2, b.data(), b.size());
  }
  flip_byte(path, kHeaderBytes + kRecordHead + 3);  // payload of record #1
  exec::TraceStore store(path, kContent);
  EXPECT_EQ(store.dropped_records(), 1u);
  EXPECT_EQ(store.entries(), 1u);
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(store.lookup(1, out));  // regenerate, don't trust
  ASSERT_TRUE(store.lookup(2, out));
  EXPECT_EQ(out, make_blob(2, 30));
  std::remove(path.c_str());
}

// A corrupted LENGTH field cannot be skipped in place — it desyncs the
// variable-length framing — so everything from the bad record on is
// discarded as a torn tail, and the file realigns for future appends.
TEST(TraceStore, CorruptedLengthTruncatesRestOfFile) {
  const std::string path = temp_store_path("badlen");
  std::remove(path.c_str());
  {
    exec::TraceStore store(path, kContent);
    for (std::uint8_t i = 1; i <= 3; ++i) {
      const auto blob = make_blob(i, 20);
      store.append(i, blob.data(), blob.size());
    }
  }
  // Blast the high byte of record #2's length: the stated extent now runs
  // far past EOF.
  flip_byte(path, kHeaderBytes + record_bytes(20) + 8 + 3);
  {
    exec::TraceStore store(path, kContent);
    EXPECT_EQ(store.entries(), 1u);
    EXPECT_GT(store.truncated_bytes(), 0u);
    std::vector<std::uint8_t> out;
    EXPECT_TRUE(store.lookup(1, out));
    EXPECT_FALSE(store.lookup(2, out));
    EXPECT_FALSE(store.lookup(3, out));
    const auto blob = make_blob(9, 20);
    store.append(9, blob.data(), blob.size());
  }
  exec::TraceStore store(path, kContent);
  EXPECT_EQ(store.entries(), 2u);
  EXPECT_EQ(store.dropped_records(), 0u);
  EXPECT_EQ(store.truncated_bytes(), 0u);
  std::remove(path.c_str());
}

TEST(TraceStore, ConcurrentAppendFromEightThreads) {
  const std::string path = temp_store_path("concurrent");
  std::remove(path.c_str());
  constexpr unsigned kThreads = 8;
  constexpr unsigned kPerThread = 32;
  {
    exec::TraceStore store(path, kContent);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, t] {
        for (unsigned i = 0; i < kPerThread; ++i) {
          const std::uint64_t digest = t * kPerThread + i;
          const auto blob = make_blob(static_cast<std::uint8_t>(digest),
                                      8 + (digest % 40));
          store.append(digest, blob.data(), blob.size());
          // Contended digest: every thread races to write it; first wins.
          store.append(1ull << 60, blob.data(), blob.size());
          std::vector<std::uint8_t> out;
          EXPECT_TRUE(store.lookup(digest, out));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(store.entries(), kThreads * kPerThread + 1);
  }
  exec::TraceStore store(path, kContent);
  EXPECT_EQ(store.entries(), kThreads * kPerThread + 1);
  EXPECT_EQ(store.dropped_records(), 0u);
  EXPECT_EQ(store.truncated_bytes(), 0u);
  std::vector<std::uint8_t> out;
  for (std::uint64_t d = 0; d < kThreads * kPerThread; ++d) {
    ASSERT_TRUE(store.lookup(d, out));
    EXPECT_EQ(out, make_blob(static_cast<std::uint8_t>(d), 8 + (d % 40)));
  }
  std::remove(path.c_str());
}

// ---- Multi-process sharing (fork-based) -------------------------------

/// Forks, runs `child`, and _exits with its return code (bypassing gtest
/// atexit and inherited stdio buffers). Returns the child's exit status.
int run_forked(const std::function<int()>& child) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    _exit(child());
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

TEST(TraceStoreMultiProcess, ConcurrentForkedWriterInterleavesCleanly) {
  const std::string path = temp_store_path("forkwriter");
  std::remove(path.c_str());
  exec::TraceStore store(path, kContent);

  const int status = run_forked([&path] {
    exec::TraceStore child_store(path, kContent);
    for (std::uint64_t d = 2000; d < 2032; ++d) {
      const auto blob = make_blob(static_cast<std::uint8_t>(d), 16 + (d % 9));
      child_store.append(d, blob.data(), blob.size());
    }
    return 0;
  });
  for (std::uint64_t d = 0; d < 32; ++d) {
    const auto blob = make_blob(static_cast<std::uint8_t>(d), 16 + (d % 9));
    store.append(d, blob.data(), blob.size());
  }
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // refresh() pulls the child's records into the parent's index.
  store.refresh();
  EXPECT_EQ(store.entries(), 64u);
  std::vector<std::uint8_t> out;
  for (std::uint64_t d = 0; d < 32; ++d) {
    ASSERT_TRUE(store.lookup(d, out));
    ASSERT_TRUE(store.lookup(2000 + d, out));
  }
  exec::TraceStore reopened(path, kContent);
  EXPECT_EQ(reopened.entries(), 64u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
  std::remove(path.c_str());
}

TEST(TraceStoreMultiProcess, FirstWriteWinsAcrossProcesses) {
  const std::string path = temp_store_path("forkfww");
  std::remove(path.c_str());
  exec::TraceStore store(path, kContent);

  const int status = run_forked([&path] {
    exec::TraceStore child_store(path, kContent);
    const auto blob = make_blob(11, 25);
    child_store.append(5000, blob.data(), blob.size());
    return 0;
  });
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // The child exited before this append, so it unambiguously wrote first —
  // append itself must rescan under the lock and keep the child's bytes.
  const auto late = make_blob(99, 50);
  store.append(5000, late.data(), late.size());
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(store.lookup(5000, out));
  EXPECT_EQ(out, make_blob(11, 25))
      << "parent overwrote a trace another process had already generated";
  exec::TraceStore reopened(path, kContent);
  EXPECT_EQ(reopened.entries(), 1u);
  std::remove(path.c_str());
}

// A child killed mid-append — SIGKILL with the file lock held and half a
// record written — must not poison the store: the kernel releases its
// flock, and the parent's next refresh() truncates the torn tail.
TEST(TraceStoreMultiProcess, KilledMidAppendChildTailIsTruncatedOnRefresh) {
  const std::string path = temp_store_path("forkkill");
  std::remove(path.c_str());
  exec::TraceStore store(path, kContent);
  const auto blob = make_blob(1, 33);
  store.append(1, blob.data(), blob.size());

  const int status = run_forked([&path]() -> int {
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) return 1;
    if (flock(fd, LOCK_EX) != 0) return 2;
    const std::vector<std::uint8_t> half(record_bytes(33) / 2, 0xab);
    if (write(fd, half.data(), half.size()) !=
        static_cast<ssize_t>(half.size())) {
      return 3;
    }
    raise(SIGKILL);  // dies holding the lock, mid-record
    return 4;        // unreachable
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  EXPECT_EQ(store.refresh(), 0u);
  EXPECT_EQ(store.truncated_bytes(), record_bytes(33) / 2);
  EXPECT_EQ(store.entries(), 1u);

  const auto blob2 = make_blob(2, 12);
  store.append(2, blob2.data(), blob2.size());
  exec::TraceStore reopened(path, kContent);
  EXPECT_EQ(reopened.entries(), 2u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
  std::remove(path.c_str());
}

TEST(TraceStoreMultiProcess, RefreshMakesForeignAppendsVisible) {
  const std::string path = temp_store_path("forkrefresh");
  std::remove(path.c_str());
  exec::TraceStore store(path, kContent);

  const int status = run_forked([&path] {
    exec::TraceStore child_store(path, kContent);
    for (std::uint64_t d = 100; d < 103; ++d) {
      const auto blob = make_blob(static_cast<std::uint8_t>(d), 10);
      child_store.append(d, blob.data(), blob.size());
    }
    return 0;
  });
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  std::vector<std::uint8_t> out;
  EXPECT_FALSE(store.lookup(100, out)) << "lookup must not do hidden I/O";
  EXPECT_EQ(store.refresh(), 3u);
  for (std::uint64_t d = 100; d < 103; ++d) {
    ASSERT_TRUE(store.lookup(d, out));
  }
  EXPECT_EQ(store.refresh(), 0u);
  std::remove(path.c_str());
}

// ---- Open-failure diagnostics -----------------------------------------

TEST(TraceStoreOpenErrors, PathIsADirectory) {
  const std::string dir = ::testing::TempDir() + "sttsim_tstore_dir_as_path";
  std::filesystem::create_directory(dir);
  try {
    exec::TraceStore store(dir, kContent);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(dir), std::string::npos) << what;
    EXPECT_NE(what.find("directory"), std::string::npos) << what;
    EXPECT_NE(what.find("trace store"), std::string::npos) << what;
  }
  std::filesystem::remove(dir);
}

TEST(TraceStoreOpenErrors, MissingParentDirectory) {
  const std::string path =
      ::testing::TempDir() + "sttsim_no_such_dir/deeper/traces.bin";
  try {
    exec::TraceStore store(path, kContent);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("parent directory does not exist"), std::string::npos)
        << what;
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
  EXPECT_EQ(back.store_values, compressed.store_values);

  // Truncation at any section boundary (and a short header) must fail
  // cleanly rather than read out of bounds.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{10}, std::size_t{23},
        blob.size() - compressed.store_values.size() * 8 - 1,
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
  const workloads::Kernel& kernel = workloads::find_kernel("atax");
  const workloads::CodegenOptions opts = workloads::CodegenOptions::all();
  const cpu::SystemConfig cfg =
      experiments::make_config(cpu::Dl1Organization::kNvmVwb);
  const std::string path = temp_store_path("integration");
  std::remove(path.c_str());

  exec::set_trace_store(nullptr);
  experiments::TraceCache ref_cache;
  const std::string reference =
      sim::to_json(experiments::run_kernel(ref_cache, kernel, cfg, opts));

  auto& telemetry = exec::Telemetry::instance();
  std::string cold;
  {
    ScopedTraceStore store(path);
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    experiments::TraceCache cache;
    cold = sim::to_json(experiments::run_kernel(cache, kernel, cfg, opts));
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
    const std::string warm =
        sim::to_json(experiments::run_kernel(cache, kernel, cfg, opts));
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
// decoded ops and store payloads the cache keeps after decompressing it,
// and the raw-trace reassembly, all match a storeless generation.
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
  ASSERT_EQ(warm.ops.size(), reference.ops.size());
  EXPECT_EQ(std::memcmp(warm.ops.data(), reference.ops.data(),
                        warm.ops.size() * sizeof(cpu::DecodedOp)),
            0);
  EXPECT_EQ(warm.store_values, reference.store_values);
  // The raw-trace view reassembles identically from the stored form too.
  const cpu::Trace& raw = cache.get(kernel, opts);
  const cpu::Trace& ref_raw = ref_cache.get(kernel, opts);
  ASSERT_EQ(raw.size(), ref_raw.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sttsim
