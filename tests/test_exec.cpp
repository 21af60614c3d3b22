// Unit tests for the parallel experiment engine: executor ordering and
// exception propagation, the concurrent memo-cache's exactly-once
// generation, and the throughput telemetry counters.
//
// Deliberately includes only sttsim/exec headers: the test_exec_tsan
// target recompiles this file together with the exec sources under
// ThreadSanitizer, with no dependency on the simulation libraries.
#include <gtest/gtest.h>

#include <atomic>
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
#include "sttsim/exec/result_store.hpp"
#include "sttsim/exec/telemetry.hpp"

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

TEST(ParallelExecutor, MapReturnsResultsInInputOrder) {
  ParallelExecutor pool(4);
  const std::size_t n = 200;
  const auto out = pool.map(n, [](std::size_t i) {
    if (i % 7 == 0) std::this_thread::yield();  // shuffle completion order
    return i * i;
  });
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelExecutor, PoolActuallyRunsTasksConcurrently) {
  ParallelExecutor pool(2);
  // Both tasks wait on the latch, so each completes only if the other is
  // running at the same time on its own worker.
  std::latch both_started(2);
  const auto out = pool.map(2, [&](std::size_t i) {
    both_started.arrive_and_wait();
    return i;
  });
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1}));
}

TEST(ParallelExecutor, SubmitPropagatesExceptionThroughFuture) {
  ParallelExecutor pool(2);
  auto f = pool.submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParallelExecutor, MapRethrowsLowestIndexException) {
  ParallelExecutor pool(4);
  try {
    pool.map(10, [](std::size_t i) -> int {
      if (i == 3 || i == 7) {
        throw std::runtime_error("fail at " + std::to_string(i));
      }
      return 0;
    });
    FAIL() << "map did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail at 3");
  }
}

TEST(ParallelExecutor, SerialMapPropagatesException) {
  ParallelExecutor pool(1);
  EXPECT_THROW(pool.map(3,
                        [](std::size_t i) -> int {
                          if (i == 1) throw std::logic_error("serial");
                          return 0;
                        }),
               std::logic_error);
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

TEST(Telemetry, CountersAccumulateAndSnapshotDiffs) {
  Telemetry& t = Telemetry::instance();
  const TelemetrySnapshot before = t.snapshot();
  t.count_simulation(1000);
  t.count_simulation(500);
  t.count_trace_generated();
  const TelemetrySnapshot delta = t.snapshot() - before;
  EXPECT_EQ(delta.simulations, 2u);
  EXPECT_EQ(delta.trace_ops, 1500u);
  EXPECT_EQ(delta.traces_generated, 1u);
}

TEST(Telemetry, CountsFromWorkerThreadsAreNotLost) {
  Telemetry& t = Telemetry::instance();
  const TelemetrySnapshot before = t.snapshot();
  ParallelExecutor pool(4);
  pool.map(100, [&](std::size_t) {
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
    pool.map(kPoints, [&](std::size_t i) {
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

}  // namespace
}  // namespace sttsim::exec
