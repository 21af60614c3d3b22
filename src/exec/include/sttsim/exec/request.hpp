// Campaign lifecycle for the experiment engine. A grid point is a pure
// function of its inputs, so a campaign can end early in only three ways:
// an interrupt (Ctrl-C), a wall-clock deadline, or a bug. run_request()
// handles all three with one check at the start of every task:
//
//   * interrupt_source() tripped  -> the task is skipped as cancelled;
//   * the request's deadline passed -> the task is skipped as timed-out;
//   * otherwise the task runs to completion, and an exception it throws is
//     kept as the task's failure.
//
// A task that has started always finishes: nothing interrupts a running
// simulation, so a grid point that was started is always complete (and,
// with a result store, persisted). Tasks go straight to
// ParallelExecutor::map; with jobs == 1 they run inline in submission
// order. No state outlives a run_request() call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sttsim/exec/parallel_executor.hpp"
#include "sttsim/exec/telemetry.hpp"

namespace sttsim::exec {

/// Process-wide interrupt flag. cancel() is a single lock-free atomic
/// store, so the SIGINT handler may call it directly.
class InterruptFlag {
 public:
  bool cancelled() const { return flag_.load(std::memory_order_acquire); }
  void cancel() { flag_.store(true, std::memory_order_release); }
  /// Re-arms the flag (tests; a real SIGINT is sticky for the process).
  void reset() { flag_.store(false, std::memory_order_release); }

 private:
  static_assert(std::atomic<bool>::is_always_lock_free);
  std::atomic<bool> flag_{false};
};

/// The flag the SIGINT handler trips (tests trip it directly). Every
/// run_request() task checks it when it starts, so Ctrl-C lets in-flight
/// points finish and skips the rest.
InterruptFlag& interrupt_source();

/// Installs a SIGINT handler that trips interrupt_source() and then resets
/// itself (SA_RESETHAND): the first Ctrl-C requests a graceful drain, a
/// second one kills the process the old-fashioned way. Idempotent.
void install_interrupt_handler();

/// Thrown by experiments::run_grid when interrupt_source() tripped during
/// the grid, after every started point finished.
class CampaignInterrupted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How a campaign is bounded.
struct CampaignRequest {
  double deadline_s = 0.0;  ///< wall-clock budget from run start; 0 = none
};

/// Process-wide request default (the CLIs' --deadline flag). run_grid
/// runs every grid under it.
void set_default_request(const CampaignRequest& request);
CampaignRequest default_request();

enum class TaskStatus : std::uint8_t { kOk, kFailed, kTimedOut, kCancelled };

template <typename T>
struct TaskResult {
  TaskStatus status = TaskStatus::kOk;
  std::optional<T> value;     ///< engaged iff status == kOk
  std::exception_ptr error;   ///< set iff status == kFailed
};

/// Runs `fn(0) .. fn(count-1)` on `pool` under `request` and returns every
/// task's status and value in input order, after all tasks have finished.
/// Never throws for task-level failures: a failed task keeps its exception
/// so the caller decides whether to rethrow it. Whether the campaign was
/// interrupted is interrupt_source().cancelled() once this returns.
template <typename F>
auto run_request(ParallelExecutor& pool, const CampaignRequest& request,
                 std::size_t count, F&& fn)
    -> std::vector<TaskResult<std::invoke_result_t<F&, std::size_t>>> {
  using R = std::invoke_result_t<F&, std::size_t>;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  // Compared in seconds as doubles: no deadline value can overflow a
  // clock's integer tick count.
  const auto past_deadline = [&] {
    return request.deadline_s > 0.0 &&
           std::chrono::duration<double>(Clock::now() - start).count() >=
               request.deadline_s;
  };
  return pool.map(count, [&](std::size_t i) {
    TaskResult<R> task;
    if (interrupt_source().cancelled()) {
      task.status = TaskStatus::kCancelled;
      Telemetry::instance().count_task_cancelled();
    } else if (past_deadline()) {
      task.status = TaskStatus::kTimedOut;
      Telemetry::instance().count_task_timed_out();
    } else {
      try {
        task.value.emplace(fn(i));
      } catch (...) {
        task.status = TaskStatus::kFailed;
        task.error = std::current_exception();
      }
    }
    return task;
  });
}

}  // namespace sttsim::exec
