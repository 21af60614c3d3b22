// Unit tests for the parallel experiment engine: the executor's serial
// path, concurrency and exception propagation, the concurrent memo-cache's
// exactly-once generation, the throughput telemetry counters, and both
// persistent stores under pool workers.
//
// Deliberately includes only sttsim/exec headers: the test_exec_tsan
// target recompiles this file together with the exec sources under
// ThreadSanitizer, with no dependency on the simulation libraries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <latch>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "sttsim/exec/memo_cache.hpp"
#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/request.hpp"
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"
#include "sttsim/exec/trace_store.hpp"

namespace sttsim::exec {
namespace {

TEST(Jobs, HardwareJobsIsPositive) { EXPECT_GE(hardware_jobs(), 1u); }

TEST(Jobs, DefaultJobsFollowsOverride) {
  set_default_jobs(3);
  EXPECT_EQ(default_jobs(), 3u);
  set_default_jobs(0);
  EXPECT_EQ(default_jobs(), hardware_jobs());
}

TEST(ParallelExecutor, SerialPathRunsInlineOnCallingThread) {
  ParallelExecutor pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  const auto main_id = std::this_thread::get_id();
  auto f = pool.submit([main_id] {
    EXPECT_EQ(std::this_thread::get_id(), main_id);
    return 42;
  });
  EXPECT_EQ(f.get(), 42);
}

TEST(ParallelExecutor, PoolActuallyRunsTasksConcurrently) {
  ParallelExecutor pool(2);
  // Both tasks wait on the latch, so each completes only if the other is
  // running at the same time on its own worker.
  std::latch both_started(2);
  const auto out = run_request(pool, 2, [&](std::size_t i) {
    both_started.arrive_and_wait();
    return i;
  });
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].value, 0u);
  EXPECT_EQ(out[1].value, 1u);
}

TEST(ParallelExecutor, SubmitPropagatesExceptionThroughFuture) {
  ParallelExecutor pool(2);
  auto f = pool.submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(MemoCache, GeneratesEachKeyExactlyOnceUnderContention) {
  ConcurrentMemoCache<int, std::string> cache;
  constexpr int kKeys = 10;
  std::atomic<int> generations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int iter = 0; iter < 50; ++iter) {
        for (int key = 0; key < kKeys; ++key) {
          const std::string& v = cache.get_or_generate(
              key, [&] { return key; },
              [&] {
                generations.fetch_add(1);
                return "value-" + std::to_string(key);
              });
          ASSERT_EQ(v, "value-" + std::to_string(key));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(generations.load(), kKeys);
  EXPECT_EQ(cache.entries(), static_cast<std::size_t>(kKeys));
}

TEST(MemoCache, HitReturnsSameObjectAndSkipsKeyMaterialization) {
  ConcurrentMemoCache<std::string, int> cache;
  int keys_built = 0;
  const auto get = [&] () -> const int& {
    return cache.get_or_generate(
        std::string_view("k"),
        [&] {
          ++keys_built;
          return std::string("k");
        },
        [] { return 7; });
  };
  const int& a = get();
  const int& b = get();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a, 7);
  EXPECT_EQ(keys_built, 1);  // the hit path never built the owning key
}

TEST(MemoCache, GeneratorFailureIsRetriable) {
  ConcurrentMemoCache<int, int> cache;
  int calls = 0;
  const auto get = [&] {
    return cache.get_or_generate(
        1, [] { return 1; },
        [&] {
          if (++calls == 1) throw std::runtime_error("flaky");
          return 99;
        });
  };
  EXPECT_THROW(get(), std::runtime_error);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(get(), 99);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(MemoCache, DropReleasesTheCacheCopyButNotAHeldHandle) {
  ConcurrentMemoCache<int, std::string> cache;
  int generations = 0;
  const auto acquire = [&] {
    return cache.acquire(
        1, [] { return 1; },
        [&] {
          ++generations;
          return std::string("value");
        });
  };
  const auto held = acquire();
  EXPECT_EQ(cache.resident(), 1u);
  cache.drop(1);
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_EQ(*held, "value") << "a handle outlives the cache's copy";
  cache.drop(1);  // already dropped: a no-op
  cache.drop(2);  // never requested: a no-op
  EXPECT_EQ(*acquire(), "value");
  EXPECT_EQ(generations, 2) << "a dropped value is generated again";
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.resident(), 1u);
}

TEST(MemoCache, ReferencePinsTheEntryAgainstDrop) {
  ConcurrentMemoCache<int, int> cache;
  int generations = 0;
  const auto gen = [&] { return ++generations; };
  const int& pinned = cache.get_or_generate(1, [] { return 1; }, gen);
  cache.drop(1);
  EXPECT_EQ(cache.resident(), 1u);
  EXPECT_EQ(&cache.get_or_generate(1, [] { return 1; }, gen), &pinned);
  EXPECT_EQ(*cache.acquire(1, [] { return 1; }, gen), 1);
  EXPECT_EQ(generations, 1);
}

// Workers acquire, read and drop a handful of keys as fast as they can, so
// drops race with generations, latch waits and other holders' reads. Every
// read must see its key's value (a dangling handle would not), and the
// ThreadSanitizer build of this file checks the drop path for races.
TEST(MemoCache, ConcurrentAcquireAndDropNeverDangles) {
  ConcurrentMemoCache<int, std::vector<int>> cache;
  constexpr int kKeys = 3;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int iter = 0; iter < 300; ++iter) {
        const int key = (iter + t) % kKeys;
        const auto v = cache.acquire(
            key, [key] { return key; },
            [key] { return std::vector<int>(256, key); });
        if ((iter + t) % 2 == 0) cache.drop(key);
        for (const int x : *v) {
          if (x != key) bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_LE(cache.resident(), static_cast<std::size_t>(kKeys));
  EXPECT_GE(cache.entries(), static_cast<std::size_t>(kKeys));
}

TEST(MemoCache, ReportsTheTimeARequesterWaitedOnTheLatch) {
  ConcurrentMemoCache<int, int> cache;
  std::latch started(1);
  std::thread generator([&] {
    cache.acquire(
        1, [] { return 1; },
        [&] {
          started.count_down();
          std::this_thread::sleep_for(std::chrono::milliseconds(200));
          return 5;
        });
  });
  started.wait();
  std::uint64_t waited = 0;
  EXPECT_EQ(*cache.acquire(
                1, [] { return 1; }, [] { return -1; }, &waited),
            5);
  generator.join();
  EXPECT_GT(waited, 0u) << "the second requester blocked on the latch";
  std::uint64_t hit_wait = 1;
  cache.acquire(1, [] { return 1; }, [] { return -1; }, &hit_wait);
  EXPECT_EQ(hit_wait, 0u) << "a hit does not wait";
}

TEST(Telemetry, CountersAccumulateAndSnapshotDiffs) {
  Telemetry& t = Telemetry::instance();
  const TelemetrySnapshot before = t.snapshot();
  t.count_simulation(1000);
  t.count_simulation(500);
  t.count_trace_generated();
  t.count_trace_wait_ns(250);
  const TelemetrySnapshot delta = t.snapshot() - before;
  EXPECT_EQ(delta.simulations, 2u);
  EXPECT_EQ(delta.trace_ops, 1500u);
  EXPECT_EQ(delta.traces_generated, 1u);
  EXPECT_EQ(delta.trace_wait_ns, 250u);
}

TEST(Telemetry, CountsFromWorkerThreadsAreNotLost) {
  Telemetry& t = Telemetry::instance();
  const TelemetrySnapshot before = t.snapshot();
  ParallelExecutor pool(4);
  run_request(pool, 100, [&](std::size_t) {
    t.count_simulation(10);
    return 0;
  });
  const TelemetrySnapshot delta = t.snapshot() - before;
  EXPECT_EQ(delta.simulations, 100u);
  EXPECT_EQ(delta.trace_ops, 1000u);
}

TEST(Telemetry, MemoCountersAccumulate) {
  Telemetry& t = Telemetry::instance();
  const TelemetrySnapshot before = t.snapshot();
  t.count_memo_hit();
  t.count_memo_hit();
  t.count_memo_miss();
  const TelemetrySnapshot delta = t.snapshot() - before;
  EXPECT_EQ(delta.memo_hits, 2u);
  EXPECT_EQ(delta.memo_misses, 1u);
}

// The grid engine's miss tasks append from pool workers while other tasks
// look up concurrently; this shape (8 workers, interleaved append + lookup
// + contended duplicate appends) runs under ThreadSanitizer via the
// test_exec_tsan target.
TEST(ResultStoreConcurrency, PoolWorkersAppendAndLookupRaceFree) {
  // test_exec and test_exec_tsan both run this case, possibly at the same
  // time: the process id keeps their store files apart.
  const std::string path = ::testing::TempDir() + "sttsim_store_exec_" +
                           std::to_string(::getpid()) + ".bin";
  std::remove(path.c_str());
  constexpr std::size_t kPayload = 32;
  constexpr std::size_t kPoints = 256;
  {
    ResultStore store(path, kPayload);
    set_result_store(&store);
    EXPECT_EQ(result_store(), &store);
    ParallelExecutor pool(8);
    run_request(pool, kPoints, [&](std::size_t i) {
      std::uint8_t payload[kPayload];
      for (std::size_t b = 0; b < kPayload; ++b) {
        payload[b] = static_cast<std::uint8_t>(i + b);
      }
      store.append(i, payload);
      store.append(1ull << 40, payload);  // contended: first write wins
      std::uint8_t out[kPayload];
      EXPECT_TRUE(store.lookup(i, out));
      EXPECT_EQ(out[0], static_cast<std::uint8_t>(i));
      return 0;
    });
    set_result_store(nullptr);
    EXPECT_EQ(store.entries(), kPoints + 1);
  }
  ResultStore reopened(path, kPayload);
  EXPECT_EQ(reopened.entries(), kPoints + 1);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  std::remove(path.c_str());
}

// The same shape through the trace store's variable-length records: blobs
// of varying length, as the trace cache appends them from pool workers.
TEST(TraceStoreConcurrency, PoolWorkersAppendAndLookupRaceFree) {
  const std::string path = ::testing::TempDir() + "sttsim_tstore_exec_" +
                           std::to_string(::getpid()) + ".bin";
  std::remove(path.c_str());
  constexpr std::size_t kPoints = 256;
  const auto blob_of = [](std::size_t i) {
    std::vector<std::uint8_t> blob(1 + i % 61);
    for (std::size_t b = 0; b < blob.size(); ++b) {
      blob[b] = static_cast<std::uint8_t>(i + b);
    }
    return blob;
  };
  {
    TraceStore store(path, 1);
    set_trace_store(&store);
    EXPECT_EQ(trace_store(), &store);
    ParallelExecutor pool(8);
    run_request(pool, kPoints, [&](std::size_t i) {
      const std::vector<std::uint8_t> blob = blob_of(i);
      store.append(i, blob.data(), blob.size());
      store.append(1ull << 40, blob.data(), blob.size());  // contended
      std::vector<std::uint8_t> out;
      EXPECT_TRUE(store.lookup(i, out));
      EXPECT_EQ(out, blob);
      return 0;
    });
    set_trace_store(nullptr);
    EXPECT_EQ(store.entries(), kPoints + 1);
  }
  TraceStore reopened(path, 1);
  EXPECT_EQ(reopened.entries(), kPoints + 1);
  EXPECT_EQ(reopened.dropped_records(), 0u);
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < kPoints; ++i) {
    ASSERT_TRUE(reopened.lookup(i, out));
    EXPECT_EQ(out, blob_of(i));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sttsim::exec
