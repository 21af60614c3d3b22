// Tests: the store engine behind both persistent stores (exec/append_log),
// its durability matrix once — round trip and reopen, first write wins,
// truncated tail, wrong schema, tampered record, corrupted length, a failed
// write, eight-thread append, a second open refused while the path is held,
// recovery from a writer killed mid-append, open-failure diagnostics — then
// the result store on top of it (payload-size header, wrong-length records,
// unwritable directory), the simulation digest, the RunStats codec, and the
// engine-level invariant that warm results are byte-identical to cold ones
// at any pool width, with a one-parameter grid edit recomputing only the
// dirty points.
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
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sttsim/exec/append_log.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/experiments/harness.hpp"
#include "sttsim/sim/stats.hpp"
#include "sttsim/util/hash.hpp"
#include "sttsim/workloads/suite.hpp"

namespace sttsim {
namespace {

constexpr std::size_t kHeaderBytes = 24;  // magic, schema, aux, check
constexpr std::size_t kRecordHead = 12;   // digest u64 + len u32
constexpr std::size_t kRecordTail = 8;    // checksum u64
constexpr std::uint64_t kMagic = 0x474f4c5453455454ULL;  // "TTESTLOG"
constexpr std::uint32_t kSchema = 1;
constexpr std::size_t kTestPayload = 16;  // result-store payload size

std::size_t record_bytes(std::size_t payload) {
  return kRecordHead + payload + kRecordTail;
}

/// The process id keeps concurrent runs of this binary (other build trees
/// share the temp directory) off each other's store paths.
std::string temp_store_path(const char* name) {
  return ::testing::TempDir() + "sttsim_store_" + name + "_" +
         std::to_string(::getpid()) + ".bin";
}

exec::AppendLog open_log(const std::string& path) {
  return exec::AppendLog(path, "test log", kMagic, kSchema, 0, 0);
}

std::vector<std::uint8_t> make_blob(std::uint8_t seed, std::size_t len) {
  std::vector<std::uint8_t> p(len);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<std::uint8_t>(seed + 3 * i);
  }
  return p;
}

std::vector<std::uint8_t> make_payload(std::uint8_t seed) {
  return make_blob(seed, kTestPayload);
}

void put(exec::AppendLog& log, std::uint64_t digest,
         const std::vector<std::uint8_t>& blob) {
  log.append(digest, blob.data(), blob.size());
}

/// Copies the record under `digest` into `out`; false on a miss.
bool read(const exec::AppendLog& log, std::uint64_t digest,
          std::vector<std::uint8_t>& out) {
  return log.lookup(digest, [&](const std::uint8_t* p, std::size_t n) {
    out.assign(p, p + n);
    return true;
  });
}

bool has(const exec::AppendLog& log, std::uint64_t digest) {
  std::vector<std::uint8_t> out;
  return read(log, digest, out);
}

std::string file_bytes(const std::string& path) {
  std::string bytes(std::filesystem::file_size(path), '\0');
  std::ifstream(path, std::ios::binary)
      .read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
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

/// Forks, runs `child` in the child process, and _exits with its return
/// code (bypassing gtest atexit and inherited stdio buffers). Returns the
/// child's exit status in the parent.
int run_forked(const std::function<int()>& child) {
  std::fflush(nullptr);  // no double-flush of inherited buffers
  const pid_t pid = fork();
  if (pid == 0) {
    _exit(child());
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

// ---- The engine's durability matrix -----------------------------------

TEST(AppendLog, RoundTripAndReopenFromDisk) {
  const std::string path = temp_store_path("roundtrip");
  std::remove(path.c_str());
  // Varied lengths, the empty payload included.
  const std::size_t lens[] = {0, 1, 7, 64, 1000};
  {
    exec::AppendLog log = open_log(path);
    EXPECT_EQ(log.entries(), 0u);
    for (std::size_t i = 0; i < std::size(lens); ++i) {
      put(log, 100 + i, make_blob(static_cast<std::uint8_t>(i), lens[i]));
    }
    EXPECT_EQ(log.entries(), std::size(lens));
    EXPECT_FALSE(has(log, 9999));
  }
  // Reopen: everything must come back from the bytes on disk.
  const exec::AppendLog log = open_log(path);
  EXPECT_EQ(log.entries(), std::size(lens));
  EXPECT_EQ(log.dropped_records(), 0u);
  EXPECT_EQ(log.truncated_bytes(), 0u);
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < std::size(lens); ++i) {
    ASSERT_TRUE(read(log, 100 + i, out)) << "record " << i;
    EXPECT_EQ(out, make_blob(static_cast<std::uint8_t>(i), lens[i]));
  }
  EXPECT_FALSE(has(log, 9999));
  std::remove(path.c_str());
}

TEST(AppendLog, FirstWriteWins) {
  const std::string path = temp_store_path("firstwrite");
  std::remove(path.c_str());
  exec::AppendLog log = open_log(path);
  put(log, 42, make_blob(1, 32));
  put(log, 42, make_blob(2, 48));  // ignored
  EXPECT_EQ(log.entries(), 1u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(read(log, 42, out));
  EXPECT_EQ(out, make_blob(1, 32));
  std::remove(path.c_str());
}

TEST(AppendLog, TruncatedTailIsDroppedAndFileRealigned) {
  const std::string path = temp_store_path("truncated");
  std::remove(path.c_str());
  {
    exec::AppendLog log = open_log(path);
    for (std::uint8_t i = 1; i <= 3; ++i) put(log, i, make_blob(i, 40));
  }
  // Chop the third record short — a crash mid-append.
  std::filesystem::resize_file(path, kHeaderBytes + 2 * record_bytes(40) + 10);
  {
    exec::AppendLog log = open_log(path);
    EXPECT_EQ(log.entries(), 2u);
    EXPECT_EQ(log.truncated_bytes(), 10u);
    EXPECT_TRUE(has(log, 1));
    EXPECT_TRUE(has(log, 2));
    EXPECT_FALSE(has(log, 3));
    // Appending after recovery must stay record-aligned.
    put(log, 4, make_blob(4, 24));
  }
  const exec::AppendLog log = open_log(path);
  EXPECT_EQ(log.entries(), 3u);
  EXPECT_EQ(log.truncated_bytes(), 0u);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(read(log, 4, out));
  EXPECT_EQ(out, make_blob(4, 24));
  std::remove(path.c_str());
}

TEST(AppendLog, WrongSchemaVersionReinitializesEmpty) {
  const std::string path = temp_store_path("schema");
  std::remove(path.c_str());
  {
    exec::AppendLog log = open_log(path);
    put(log, 7, make_blob(7, 16));
  }
  flip_byte(path, 8);  // schema-version field of the header
  {
    exec::AppendLog log = open_log(path);
    EXPECT_EQ(log.entries(), 0u);  // old records invalidated wholesale
    put(log, 8, make_blob(8, 16));
  }
  const exec::AppendLog log = open_log(path);
  EXPECT_EQ(log.entries(), 1u);
  EXPECT_FALSE(has(log, 7));
  EXPECT_TRUE(has(log, 8));
  std::remove(path.c_str());
}

// Hit poisoning: a tampered record's checksum no longer matches, so the key
// must MISS (forcing a recompute) rather than serve corrupt bytes. Framing
// is intact, so records after the tampered one stay readable.
TEST(AppendLog, TamperedRecordMissesInsteadOfServingCorruptBytes) {
  const std::string path = temp_store_path("tampered");
  std::remove(path.c_str());
  {
    exec::AppendLog log = open_log(path);
    put(log, 1, make_blob(1, 30));
    put(log, 2, make_blob(2, 30));
  }
  flip_byte(path, kHeaderBytes + kRecordHead + 3);  // payload of record #1
  const exec::AppendLog log = open_log(path);
  EXPECT_EQ(log.dropped_records(), 1u);
  EXPECT_EQ(log.entries(), 1u);
  EXPECT_FALSE(has(log, 1));  // recompute, don't trust
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(read(log, 2, out));
  EXPECT_EQ(out, make_blob(2, 30));
  std::remove(path.c_str());
}

// A corrupted LENGTH field cannot be skipped in place — it desyncs the
// framing — so everything from the bad record on is discarded as a torn
// tail, and the file realigns for future appends. Both stores frame their
// records this way.
TEST(AppendLog, CorruptedLengthTruncatesRestOfFile) {
  const std::string path = temp_store_path("badlen");
  std::remove(path.c_str());
  {
    exec::AppendLog log = open_log(path);
    for (std::uint8_t i = 1; i <= 3; ++i) put(log, i, make_blob(i, 20));
  }
  // Blast the high byte of record #2's length: the stated extent now runs
  // far past EOF.
  flip_byte(path, kHeaderBytes + record_bytes(20) + 8 + 3);
  {
    exec::AppendLog log = open_log(path);
    EXPECT_EQ(log.entries(), 1u);
    EXPECT_EQ(log.truncated_bytes(), 2 * record_bytes(20));
    EXPECT_TRUE(has(log, 1));
    EXPECT_FALSE(has(log, 2));
    EXPECT_FALSE(has(log, 3));
    put(log, 9, make_blob(9, 20));
  }
  const exec::AppendLog log = open_log(path);
  EXPECT_EQ(log.entries(), 2u);
  EXPECT_EQ(log.dropped_records(), 0u);
  EXPECT_EQ(log.truncated_bytes(), 0u);
  std::remove(path.c_str());
}

TEST(AppendLog, ConcurrentAppendFromEightThreads) {
  const std::string path = temp_store_path("concurrent");
  std::remove(path.c_str());
  constexpr unsigned kThreads = 8;
  constexpr unsigned kPerThread = 64;
  const auto blob_of = [](std::uint64_t d) {
    return make_blob(static_cast<std::uint8_t>(d), 8 + d % 40);
  };
  {
    exec::AppendLog log = open_log(path);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&log, &blob_of, t] {
        for (unsigned i = 0; i < kPerThread; ++i) {
          const std::uint64_t digest = t * kPerThread + i;
          const auto blob = blob_of(digest);
          put(log, digest, blob);
          // Contended digest: every thread races to write it; first wins.
          put(log, 1ull << 60, blob);
          EXPECT_TRUE(has(log, digest));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(log.entries(), kThreads * kPerThread + 1);
  }
  // Every record survives the reopen intact.
  const exec::AppendLog log = open_log(path);
  EXPECT_EQ(log.entries(), kThreads * kPerThread + 1);
  EXPECT_EQ(log.dropped_records(), 0u);
  EXPECT_EQ(log.truncated_bytes(), 0u);
  std::vector<std::uint8_t> out;
  for (std::uint64_t d = 0; d < kThreads * kPerThread; ++d) {
    ASSERT_TRUE(read(log, d, out));
    EXPECT_EQ(out, blob_of(d));
  }
  std::remove(path.c_str());
}

// One writer per path: while a log holds the path, a second open (from
// this process, from another one, or with another store's header, which
// would re-initialize the file) throws StoreInUse and leaves the bytes
// alone. Once the holder closes, a reopen indexes every record.
TEST(AppendLog, SecondOpenWhileHeldThrowsInUseAndLeavesTheFileAlone) {
  const std::string path = temp_store_path("inuse");
  std::remove(path.c_str());
  {
    exec::AppendLog holder = open_log(path);
    for (std::uint8_t i = 1; i <= 3; ++i) put(holder, i, make_blob(i, 24));
    const std::string before = file_bytes(path);
    EXPECT_THROW(open_log(path), exec::StoreInUse);
    EXPECT_THROW(exec::AppendLog(path, "other log", kMagic + 1, kSchema, 0, 0),
                 exec::StoreInUse);
    const int status = run_forked([&path] {
      try {
        open_log(path);
      } catch (const exec::StoreInUse&) {
        return 0;
      }
      return 1;
    });
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "another process opened a held path";
    EXPECT_EQ(file_bytes(path), before);
    put(holder, 4, make_blob(4, 24));
    EXPECT_EQ(holder.entries(), 4u);
  }
  const exec::AppendLog reopened = open_log(path);
  EXPECT_EQ(reopened.entries(), 4u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
  std::vector<std::uint8_t> out;
  for (std::uint8_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(read(reopened, i, out));
    EXPECT_EQ(out, make_blob(i, 24));
  }
  std::remove(path.c_str());
}

// A write that fails (here: the file-size limit, as on a full disk) must
// not leave an indexed record that never reached the disk. The append cuts
// the file back to the last complete record, reports the failure, keeps
// running, and the record misses.
TEST(AppendLogMultiProcess, FailedWriteStaysOutOfTheIndex) {
  const std::string path = temp_store_path("failedwrite");
  std::remove(path.c_str());
  const int status = run_forked([&path]() -> int {
    std::signal(SIGXFSZ, SIG_IGN);  // a failed write, not a dead process
    rlimit limit{};
    if (getrlimit(RLIMIT_FSIZE, &limit) != 0) return 10;
    limit.rlim_cur = kHeaderBytes + record_bytes(32) * 3 / 2;
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) return 11;
    exec::AppendLog log = open_log(path);
    put(log, 1, make_blob(1, 32));
    put(log, 2, make_blob(2, 32));  // crosses the limit
    if (!has(log, 1)) return 1;
    if (has(log, 2)) return 2;
    return 0;
  });
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const exec::AppendLog log = open_log(path);
  EXPECT_EQ(log.entries(), 1u);
  EXPECT_EQ(log.truncated_bytes(), 0u);
  EXPECT_TRUE(has(log, 1));
  std::remove(path.c_str());
}

// A writer killed mid-append — SIGKILL while it holds the store open, half
// a record past its last complete one — must not poison the store: the
// kernel drops its lock with it (no stale lock to recover), and the next
// open truncates exactly the torn half, so later appends stay aligned.
TEST(AppendLogMultiProcess, KilledMidAppendChildTailIsTruncatedOnReopen) {
  const std::string path = temp_store_path("forkkill");
  std::remove(path.c_str());
  {
    exec::AppendLog log = open_log(path);
    put(log, 1, make_blob(1, 33));
  }
  const int status = run_forked([&path]() -> int {
    exec::AppendLog log = open_log(path);
    put(log, 2, make_blob(2, 21));
    // What a write cut short by the kill leaves: half a record after the
    // last complete one.
    const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd < 0) return 1;
    const std::vector<std::uint8_t> half(record_bytes(33) / 2, 0xab);
    if (write(fd, half.data(), half.size()) !=
        static_cast<ssize_t>(half.size())) {
      return 2;
    }
    raise(SIGKILL);  // dies holding the store open, mid-record
    return 3;        // unreachable
  });
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  {
    // Non-blocking: a stale lock would throw StoreInUse here.
    exec::AppendLog log = open_log(path);
    EXPECT_EQ(log.entries(), 2u);
    EXPECT_EQ(log.truncated_bytes(), record_bytes(33) / 2);
    EXPECT_EQ(std::filesystem::file_size(path),
              kHeaderBytes + record_bytes(33) + record_bytes(21));
    put(log, 3, make_blob(3, 12));
  }
  const exec::AppendLog reopened = open_log(path);
  EXPECT_EQ(reopened.entries(), 3u);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  EXPECT_EQ(reopened.truncated_bytes(), 0u);
  for (std::uint64_t d = 1; d <= 3; ++d) EXPECT_TRUE(has(reopened, d));
  std::remove(path.c_str());
}

// ---- Open-failure diagnostics -----------------------------------------

TEST(AppendLogOpenErrors, PathIsADirectory) {
  const std::string dir = ::testing::TempDir() + "sttsim_store_dir_as_path";
  std::filesystem::create_directory(dir);
  try {
    exec::AppendLog log = open_log(dir);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(dir), std::string::npos) << what;
    EXPECT_NE(what.find("directory"), std::string::npos) << what;
    EXPECT_NE(what.find("test log"), std::string::npos) << what;
  }
  std::filesystem::remove(dir);
}

TEST(AppendLogOpenErrors, MissingParentDirectory) {
  const std::string path =
      ::testing::TempDir() + "sttsim_no_such_dir/deeper/store.bin";
  try {
    exec::AppendLog log = open_log(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("parent directory does not exist"), std::string::npos)
        << what;
  }
}

// ---- The result store on the engine -----------------------------------

TEST(ResultStore, MismatchedPayloadSizeReinitializesEmpty) {
  const std::string path = temp_store_path("payloadsize");
  std::remove(path.c_str());
  {
    exec::ResultStore store(path, kTestPayload);
    store.append(7, make_payload(7).data());
  }
  exec::ResultStore store(path, kTestPayload * 2);
  EXPECT_EQ(store.entries(), 0u);
  std::remove(path.c_str());
}

/// Appends one well-formed record — valid checksum — to the file at `path`.
void append_raw_record(const std::string& path, std::uint64_t digest,
                       const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> rec;
  const auto put_le = [&rec](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      rec.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put_le(digest, 8);
  put_le(payload.size(), 4);
  rec.insert(rec.end(), payload.begin(), payload.end());
  put_le(util::hash_bytes(rec.data(), rec.size()), 8);
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write(reinterpret_cast<const char*>(rec.data()),
          static_cast<std::streamsize>(rec.size()));
}

// The store file is input from outside the program: a record with a valid
// checksum that is not payload_bytes() long is skipped like a corrupt one.
// It misses, is never copied into (or past the end of) the caller's buffer,
// and a correct append for its digest heals the point for good.
TEST(ResultStore, WrongLengthRecordMisses) {
  const std::string path = temp_store_path("wronglen");
  std::remove(path.c_str());
  {
    exec::ResultStore store(path, kTestPayload);
    store.append(1, make_payload(1).data());
  }
  append_raw_record(path, 2, make_blob(2, kTestPayload - 1));
  append_raw_record(path, 3, make_blob(3, kTestPayload + 1));
  std::uint8_t out[kTestPayload];
  {
    exec::ResultStore store(path, kTestPayload);
    EXPECT_EQ(store.dropped_records(), 2u);  // checksums hold, lengths do not
    EXPECT_EQ(store.truncated_bytes(), 0u);
    ASSERT_TRUE(store.lookup(1, out));
    EXPECT_EQ(std::vector<std::uint8_t>(out, out + kTestPayload),
              make_payload(1));
    EXPECT_FALSE(store.lookup(2, out));
    EXPECT_FALSE(store.lookup(3, out));
    store.append(2, make_payload(2).data());
    ASSERT_TRUE(store.lookup(2, out));
    EXPECT_EQ(std::vector<std::uint8_t>(out, out + kTestPayload),
              make_payload(2));
  }
  const exec::ResultStore reopened(path, kTestPayload);
  ASSERT_TRUE(reopened.lookup(2, out));
  EXPECT_EQ(std::vector<std::uint8_t>(out, out + kTestPayload),
            make_payload(2));
  EXPECT_FALSE(reopened.lookup(3, out));
  std::remove(path.c_str());
}

TEST(ResultStoreOpenErrors, UnwritableDirectory) {
  if (geteuid() == 0) {
    GTEST_SKIP() << "permission checks are bypassed for root";
  }
  const std::string dir = ::testing::TempDir() + "sttsim_store_readonly";
  std::filesystem::create_directory(dir);
  std::filesystem::permissions(dir, std::filesystem::perms::owner_read |
                                        std::filesystem::perms::owner_exec);
  try {
    exec::ResultStore store(dir + "/store.bin", kTestPayload);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("permission denied"), std::string::npos) << what;
  }
  std::filesystem::permissions(dir, std::filesystem::perms::owner_all);
  std::filesystem::remove(dir);
}

// ---- Digest and engine-level behavior --------------------------------

TEST(SimulationDigest, StableAndSensitiveToEveryInput) {
  const cpu::SystemConfig cfg =
      experiments::make_config(cpu::Dl1Organization::kNvmVwb);
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  const std::uint64_t d = experiments::simulation_digest("gemm", none, cfg);
  EXPECT_EQ(d, experiments::simulation_digest("gemm", none, cfg));
  EXPECT_NE(d, experiments::simulation_digest("atax", none, cfg));
  EXPECT_NE(d, experiments::simulation_digest(
                   "gemm", workloads::CodegenOptions::all(), cfg));
  cpu::SystemConfig edited = cfg;
  edited.vwb_total_kbit *= 2;
  EXPECT_NE(d, experiments::simulation_digest("gemm", none, edited));
  edited = cfg;
  edited.clock_ghz = 1.25;
  EXPECT_NE(d, experiments::simulation_digest("gemm", none, edited));
  edited = cfg;
  edited.stt.write_latency_ns *= 2.0;
  EXPECT_NE(d, experiments::simulation_digest("gemm", none, edited));
}

TEST(SimulationDigest, FaultCampaignFoldsIntoTheKeyOnlyWhenActive) {
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  cpu::SystemConfig cfg = experiments::make_config(cpu::Dl1Organization::kNvmVwb);
  const std::uint64_t clean = experiments::simulation_digest("gemm", none, cfg);

  // Enabling injection re-keys the point; every fault/ECC parameter is
  // part of the key.
  cfg.faults.enabled = true;
  const std::uint64_t faulted = experiments::simulation_digest("gemm", none, cfg);
  EXPECT_NE(clean, faulted);
  cpu::SystemConfig edited = cfg;
  edited.faults.seed += 1;
  EXPECT_NE(faulted, experiments::simulation_digest("gemm", none, edited));
  edited = cfg;
  edited.faults.fail_ppm *= 2;
  EXPECT_NE(faulted, experiments::simulation_digest("gemm", none, edited));
  edited = cfg;
  edited.ecc.correction_cycles += 1;
  EXPECT_NE(faulted, experiments::simulation_digest("gemm", none, edited));

  // Inactive fault config must NOT perturb the key: a disabled seed edit
  // keeps the clean digest...
  cpu::SystemConfig disabled = experiments::make_config(cpu::Dl1Organization::kNvmVwb);
  disabled.faults.seed = 999;
  EXPECT_EQ(clean, experiments::simulation_digest("gemm", none, disabled));
  // ...and the SRAM baseline never activates injection, so its points stay
  // warm across fault-seed sweeps.
  cpu::SystemConfig sram =
      experiments::make_config(cpu::Dl1Organization::kSramBaseline);
  const std::uint64_t sram_d = experiments::simulation_digest("gemm", none, sram);
  sram.faults.enabled = true;
  sram.faults.seed = 42;
  EXPECT_EQ(sram_d, experiments::simulation_digest("gemm", none, sram));
}

/// RAII: installs a fresh store for one test and restores the previous
/// process-wide registration (and pool defaults) on exit.
class ScopedStore {
 public:
  explicit ScopedStore(const std::string& path)
      : path_(path), store_(path, sim::kRunStatsBytes) {
    exec::set_result_store(&store_);
  }
  ~ScopedStore() { exec::set_result_store(nullptr); }
  exec::ResultStore& get() { return store_; }

 private:
  std::string path_;
  exec::ResultStore store_;
};

std::vector<experiments::SuiteJob> small_grid() {
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  std::vector<experiments::SuiteJob> jobs;
  jobs.push_back(
      {experiments::make_config(cpu::Dl1Organization::kSramBaseline), none});
  jobs.push_back(
      {experiments::make_config(cpu::Dl1Organization::kNvmDropIn), none});
  jobs.push_back({experiments::make_config(cpu::Dl1Organization::kNvmVwb),
                  workloads::CodegenOptions::all()});
  return jobs;
}

std::string grid_fingerprint(
    const std::vector<std::vector<sim::RunStats>>& grid) {
  std::string out;
  for (const auto& row : grid) {
    for (const sim::RunStats& s : row) out += sim::to_json(s) + "\n";
  }
  return out;
}

TEST(IncrementalGrid, WarmRerunIsByteIdenticalAtAnyPoolWidth) {
  const auto kernels = experiments::select_kernels({"atax", "mvt"});
  const auto jobs = small_grid();
  const std::size_t n_points = jobs.size() * kernels.size();

  // Reference: no store at all.
  exec::set_result_store(nullptr);
  experiments::TraceCache ref_cache;
  const std::string reference =
      grid_fingerprint(experiments::run_grid(ref_cache, kernels, jobs));

  for (const unsigned width : {1u, 8u}) {
    const std::string path = temp_store_path("warmgrid");
    std::remove(path.c_str());
    exec::set_default_jobs(width);

    auto& telemetry = exec::Telemetry::instance();
    std::string cold;
    {
      ScopedStore store(path);
      const exec::TelemetrySnapshot before = telemetry.snapshot();
      experiments::TraceCache cache;
      cold = grid_fingerprint(experiments::run_grid(cache, kernels, jobs));
      const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
      EXPECT_EQ(delta.memo_hits, 0u);
      EXPECT_EQ(delta.memo_misses, n_points);
    }
    // Fresh store object + fresh trace cache: the warm pass must be served
    // entirely from disk and generate no traces.
    {
      ScopedStore store(path);
      const exec::TelemetrySnapshot before = telemetry.snapshot();
      experiments::TraceCache cache;
      const std::string warm =
          grid_fingerprint(experiments::run_grid(cache, kernels, jobs));
      const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
      EXPECT_EQ(delta.memo_hits, n_points);
      EXPECT_EQ(delta.memo_misses, 0u);
      EXPECT_EQ(delta.traces_generated, 0u);
      EXPECT_EQ(delta.simulations, 0u);
      EXPECT_EQ(warm, cold) << "warm grid diverged at --jobs=" << width;
      EXPECT_EQ(cache.entries(), 0u);
    }
    EXPECT_EQ(cold, reference) << "store changed results at --jobs=" << width;
    std::remove(path.c_str());
  }
  exec::set_default_jobs(0);
}

// The incremental-recomputation acceptance case: edit ONE grid parameter
// and re-run — only that job's points (one per kernel) may simulate; every
// other point must be a store hit.
TEST(IncrementalGrid, SingleParameterEditRecomputesOnlyDirtyPoints) {
  const auto kernels = experiments::select_kernels({"atax", "mvt"});
  std::vector<experiments::SuiteJob> jobs = small_grid();
  const std::size_t n_points = jobs.size() * kernels.size();
  const std::string path = temp_store_path("dirty");
  std::remove(path.c_str());

  auto& telemetry = exec::Telemetry::instance();
  ScopedStore store(path);
  {
    experiments::TraceCache cache;
    experiments::run_grid(cache, kernels, jobs);
  }

  jobs[1].config.vwb_total_kbit *= 2;  // the one-parameter campaign edit
  const exec::TelemetrySnapshot before = telemetry.snapshot();
  experiments::TraceCache cache;
  experiments::run_grid(cache, kernels, jobs);
  const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
  EXPECT_EQ(delta.memo_misses, kernels.size());  // jobs[1] x every kernel
  EXPECT_EQ(delta.memo_hits, n_points - kernels.size());

  // The dirty points were appended: an immediate re-run is all hits.
  const exec::TelemetrySnapshot before2 = telemetry.snapshot();
  experiments::TraceCache cache2;
  experiments::run_grid(cache2, kernels, jobs);
  const exec::TelemetrySnapshot delta2 = telemetry.snapshot() - before2;
  EXPECT_EQ(delta2.memo_hits, n_points);
  EXPECT_EQ(delta2.memo_misses, 0u);
  std::remove(path.c_str());
}

// Fault-campaign incremental recomputation: re-running the same grid with
// the same fault seed must be all warm hits (byte-identical), and editing
// ONLY the fault seed must recompute exactly the fault-active points —
// the SRAM baseline lanes stay warm because an inactive fault config never
// reaches their digest.
TEST(IncrementalGrid, FaultSeedEditRecomputesOnlyFaultActivePoints) {
  const auto kernels = experiments::select_kernels({"atax"});
  const workloads::CodegenOptions none = workloads::CodegenOptions::none();
  std::vector<experiments::SuiteJob> jobs;
  for (const auto org : {cpu::Dl1Organization::kSramBaseline,
                         cpu::Dl1Organization::kNvmDropIn,
                         cpu::Dl1Organization::kNvmVwb}) {
    experiments::SuiteJob job{experiments::make_config(org), none};
    job.config.faults.enabled = true;
    job.config.faults.seed = 1;
    jobs.push_back(job);
  }
  const std::size_t n_points = jobs.size() * kernels.size();
  const std::size_t n_faulted = 2 * kernels.size();  // SRAM lane is inactive
  const std::string path = temp_store_path("faultseed");
  std::remove(path.c_str());

  auto& telemetry = exec::Telemetry::instance();
  ScopedStore store(path);
  std::string cold;
  {
    experiments::TraceCache cache;
    cold = grid_fingerprint(experiments::run_grid(cache, kernels, jobs));
  }
  // Same seed, fresh pass: all hits, byte-identical.
  {
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    experiments::TraceCache cache;
    const std::string warm =
        grid_fingerprint(experiments::run_grid(cache, kernels, jobs));
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.memo_hits, n_points);
    EXPECT_EQ(delta.memo_misses, 0u);
    EXPECT_EQ(warm, cold);
  }
  // Seed edit: exactly the fault-active points recompute.
  for (auto& job : jobs) job.config.faults.seed = 2;
  {
    const exec::TelemetrySnapshot before = telemetry.snapshot();
    experiments::TraceCache cache;
    const std::string reseeded =
        grid_fingerprint(experiments::run_grid(cache, kernels, jobs));
    const exec::TelemetrySnapshot delta = telemetry.snapshot() - before;
    EXPECT_EQ(delta.memo_misses, n_faulted);
    EXPECT_EQ(delta.memo_hits, n_points - n_faulted);
    EXPECT_NE(reseeded, cold) << "fault seed had no observable effect";
  }
  std::remove(path.c_str());
}

// RunStats must survive the store's binary encoding exactly — every counter
// is a u64, so decode(encode(x)) == x bit for bit.
TEST(RunStatsCodec, ExactRoundTrip) {
  sim::RunStats s;
  s.core.instructions = 0xffffffffffffffffULL;
  s.core.total_cycles = 12345678901234ULL;
  s.core.structural_stall_cycles = 17;
  s.mem.loads = 1;
  s.mem.bank_conflict_cycles = 0x8000000000000000ULL;
  std::uint8_t buf[sim::kRunStatsBytes];
  sim::encode_run_stats(s, buf);
  const sim::RunStats back = sim::decode_run_stats(buf);
  EXPECT_EQ(back.core.instructions, s.core.instructions);
  EXPECT_EQ(back.core.total_cycles, s.core.total_cycles);
  EXPECT_EQ(back.core.structural_stall_cycles,
            s.core.structural_stall_cycles);
  EXPECT_EQ(back.mem.loads, s.mem.loads);
  EXPECT_EQ(back.mem.bank_conflict_cycles, s.mem.bank_conflict_cycles);
  EXPECT_EQ(sim::to_json(back), sim::to_json(s));
}

}  // namespace
}  // namespace sttsim
