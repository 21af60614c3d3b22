// Unit tests for the campaign lifecycle: run_request's start-of-task
// interrupt check, failure capture, inline serial order, and the SIGINT
// handler.
//
// Deliberately includes only sttsim/exec headers: the test_request_tsan
// target recompiles this file together with the exec sources under
// ThreadSanitizer, with no dependency on the simulation libraries — every
// path here runs with full happens-before checking.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/request.hpp"

namespace sttsim::exec {
namespace {

/// Clears the sticky interrupt flag between tests.
class RequestTest : public ::testing::Test {
 protected:
  void SetUp() override { interrupt_source().reset(); }
  void TearDown() override { interrupt_source().reset(); }
};

/// Tasks skipped after an interrupt: neither a value nor an error.
template <typename T>
std::size_t count_skipped(const std::vector<TaskResult<T>>& tasks) {
  return static_cast<std::size_t>(std::count_if(
      tasks.begin(), tasks.end(),
      [](const TaskResult<T>& t) { return !t.value && !t.error; }));
}

TEST_F(RequestTest, InstalledSigintHandlerTripsInterruptSource) {
  install_interrupt_handler();
  EXPECT_FALSE(interrupt_source().cancelled());
  std::raise(SIGINT);
  EXPECT_TRUE(interrupt_source().cancelled());
  // SA_RESETHAND restored the default disposition; re-arm for other tests
  // (and leave the handler installed so a stray SIGINT drains gracefully).
  install_interrupt_handler();
  interrupt_source().reset();
}

TEST_F(RequestTest, HappyPathMatchesPlainMapInOrderAndValue) {
  for (const unsigned jobs : {1u, 4u}) {
    ParallelExecutor pool(jobs);
    const auto tasks = run_request(pool, 100, [](std::size_t i) {
      if (i % 7 == 0) std::this_thread::yield();  // shuffle completion order
      return i * i;
    });
    ASSERT_EQ(tasks.size(), 100u);
    EXPECT_EQ(count_skipped(tasks), 0u);
    EXPECT_FALSE(interrupt_source().cancelled());
    for (std::size_t i = 0; i < 100; ++i) {
      ASSERT_TRUE(tasks[i].value.has_value());
      EXPECT_EQ(*tasks[i].value, i * i);
      EXPECT_FALSE(tasks[i].error);
    }
  }
}

TEST_F(RequestTest, SerialRequestRunsTasksInlineInSubmissionOrder) {
  ParallelExecutor pool(1);
  const auto main_id = std::this_thread::get_id();
  std::vector<std::size_t> seen;
  run_request(pool, 10, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), main_id);
    seen.push_back(i);
    return 0;
  });
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST_F(RequestTest, ThrowingTaskIsCapturedAsFailed) {
  ParallelExecutor pool(2);
  const auto tasks = run_request(pool, 5, [](std::size_t i) {
    if (i == 3) throw std::runtime_error("boom");
    return i;
  });
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 3) continue;
    ASSERT_TRUE(tasks[i].value.has_value()) << "task " << i;
    EXPECT_EQ(*tasks[i].value, i);
    EXPECT_FALSE(tasks[i].error);
  }
  const TaskResult<std::size_t>& bad = tasks[3];
  EXPECT_FALSE(bad.value.has_value());
  ASSERT_TRUE(bad.error);
  try {
    std::rethrow_exception(bad.error);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST_F(RequestTest, InterruptSkipsRemainingTasks) {
  ParallelExecutor pool(1);
  const auto tasks = run_request(pool, 5, [](std::size_t i) {
    if (i == 1) interrupt_source().cancel();
    return i;
  });
  EXPECT_TRUE(interrupt_source().cancelled());
  // Tasks 0 and 1 completed (the interrupt landed while 1 was running and
  // is honored when the next task starts); 2..4 were skipped.
  ASSERT_TRUE(tasks[0].value.has_value());
  ASSERT_TRUE(tasks[1].value.has_value());
  EXPECT_EQ(count_skipped(tasks), 3u);
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_FALSE(tasks[i].value.has_value()) << "task " << i;
    EXPECT_FALSE(tasks[i].error) << "task " << i;
  }
}

TEST_F(RequestTest, InterruptMidRunAtWidthFourEndsEveryTaskDoneOrSkipped) {
  // Task kTrip trips the flag while the other workers are busy: under TSan
  // this checks the workers' result writes against the caller's reads.
  // Tasks queued behind it that start before the flag is set wait for it,
  // so the pool cannot run out of tasks before the interrupt lands.
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kTrip = 8;
  ParallelExecutor pool(4);
  const auto tasks = run_request(pool, kTasks, [](std::size_t i) {
    if (i == kTrip) {
      interrupt_source().cancel();
    } else if (i > kTrip) {
      while (!interrupt_source().cancelled()) std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return i * 31 + 7;
  });
  ASSERT_EQ(tasks.size(), kTasks);
  EXPECT_TRUE(tasks[kTrip].value.has_value()) << "the tripping task ran";
  EXPECT_GT(count_skipped(tasks), 0u);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_FALSE(tasks[i].error) << "task " << i;
    if (tasks[i].value) {
      EXPECT_EQ(*tasks[i].value, i * 31 + 7) << "task " << i;
    }
  }
}

}  // namespace
}  // namespace sttsim::exec
