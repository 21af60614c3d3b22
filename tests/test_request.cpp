// Unit tests for the campaign lifecycle: run_request's start-of-task
// interrupt and deadline checks, failure capture, inline serial order, the
// SIGINT handler, and the process-wide request default.
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
#include "sttsim/exec/telemetry.hpp"

namespace sttsim::exec {
namespace {

/// Clears process-wide lifecycle state between tests: the sticky interrupt
/// flag and the request default.
class RequestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    interrupt_source().reset();
    set_default_request(CampaignRequest{});
  }
  void TearDown() override {
    interrupt_source().reset();
    set_default_request(CampaignRequest{});
  }
};

template <typename T>
std::size_t count_status(const std::vector<TaskResult<T>>& tasks,
                         TaskStatus status) {
  return static_cast<std::size_t>(std::count_if(
      tasks.begin(), tasks.end(),
      [&](const TaskResult<T>& t) { return t.status == status; }));
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
    const auto tasks = run_request(pool, CampaignRequest{}, 100,
                                   [](std::size_t i) { return i * i; });
    ASSERT_EQ(tasks.size(), 100u);
    EXPECT_EQ(count_status(tasks, TaskStatus::kOk), 100u);
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
  run_request(pool, CampaignRequest{}, 10, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), main_id);
    seen.push_back(i);
    return 0;
  });
  ASSERT_EQ(seen.size(), 10u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST_F(RequestTest, ThrowingTaskIsCapturedAsFailed) {
  ParallelExecutor pool(2);
  const auto tasks =
      run_request(pool, CampaignRequest{}, 5, [](std::size_t i) {
        if (i == 3) throw std::runtime_error("boom");
        return i;
      });
  EXPECT_EQ(count_status(tasks, TaskStatus::kOk), 4u);
  const TaskResult<std::size_t>& bad = tasks[3];
  EXPECT_EQ(bad.status, TaskStatus::kFailed);
  EXPECT_FALSE(bad.value.has_value());
  ASSERT_TRUE(bad.error);
  try {
    std::rethrow_exception(bad.error);
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST_F(RequestTest, ExpiredDeadlineSkipsLaterTasksInline) {
  // jobs == 1 runs inline: task 0 outlives the deadline but, having
  // started, finishes; every later task starts past it and is skipped.
  CampaignRequest request;
  request.deadline_s = 0.02;
  ParallelExecutor pool(1);
  const auto before = Telemetry::instance().snapshot();
  const auto tasks = run_request(pool, request, 4, [](std::size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return i;
  });
  const auto delta = Telemetry::instance().snapshot() - before;
  EXPECT_EQ(tasks[0].status, TaskStatus::kOk);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(tasks[i].status, TaskStatus::kTimedOut)
        << "task " << i << " started after the deadline";
    EXPECT_FALSE(tasks[i].value.has_value());
  }
  EXPECT_EQ(delta.tasks_timed_out, 3u);
}

TEST_F(RequestTest, InterruptSkipsRemainingTasks) {
  ParallelExecutor pool(1);
  const auto before = Telemetry::instance().snapshot();
  const auto tasks =
      run_request(pool, CampaignRequest{}, 5, [](std::size_t i) {
        if (i == 1) interrupt_source().cancel();
        return i;
      });
  const auto delta = Telemetry::instance().snapshot() - before;
  EXPECT_TRUE(interrupt_source().cancelled());
  // Tasks 0 and 1 completed (the interrupt landed while 1 was running and
  // is honored when the next task starts); 2..4 were skipped.
  EXPECT_EQ(count_status(tasks, TaskStatus::kOk), 2u);
  EXPECT_EQ(delta.tasks_cancelled, 3u);
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(tasks[i].status, TaskStatus::kCancelled);
    EXPECT_FALSE(tasks[i].value.has_value());
  }
}

TEST_F(RequestTest, DeadlineMidRunAtWidthFourEndsEveryTaskOkOrTimedOut) {
  // The deadline lands while workers are busy: under TSan this checks the
  // workers' result writes against the caller's reads.
  CampaignRequest request;
  request.deadline_s = 0.01;
  ParallelExecutor pool(4);
  constexpr std::size_t kTasks = 64;
  const auto tasks = run_request(pool, request, kTasks, [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return i * 31 + 7;
  });
  ASSERT_EQ(tasks.size(), kTasks);
  // 64 tasks of >= 1 ms on 4 workers need >= 16 ms: some start late.
  EXPECT_GT(count_status(tasks, TaskStatus::kTimedOut), 0u);
  for (std::size_t i = 0; i < kTasks; ++i) {
    if (tasks[i].status == TaskStatus::kOk) {
      ASSERT_TRUE(tasks[i].value.has_value());
      EXPECT_EQ(*tasks[i].value, i * 31 + 7);
    } else {
      EXPECT_EQ(tasks[i].status, TaskStatus::kTimedOut) << "task " << i;
      EXPECT_FALSE(tasks[i].value.has_value());
    }
  }
}

TEST_F(RequestTest, DefaultRequestRoundTrips) {
  CampaignRequest request;
  request.deadline_s = 12.5;
  set_default_request(request);
  EXPECT_DOUBLE_EQ(default_request().deadline_s, 12.5);
}

}  // namespace
}  // namespace sttsim::exec
