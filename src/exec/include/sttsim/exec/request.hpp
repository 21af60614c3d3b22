// Campaign lifecycle for the experiment engine. A grid point is a pure
// function of its inputs, so a campaign ends in one of three ways: it
// finishes, an interrupt (Ctrl-C) drains it, or a bug aborts it.
// run_request() handles the last two with one check at the start of every
// task:
//
//   * interrupt_source() tripped -> the task is skipped: its result holds
//     neither a value nor an error;
//   * otherwise the task runs to completion, and an exception it throws is
//     kept as the task's error.
//
// A task that has started always finishes: nothing interrupts a running
// simulation, so a grid point that was started is always complete (and,
// with a result store, persisted). Each task is one
// ParallelExecutor::submit; with jobs == 1 they run inline in submission
// order. No state outlives a run_request() call.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <future>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sttsim/exec/parallel_executor.hpp"

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

/// Empty. It stays only because perfbench/ still passes one to
/// set_default_request(), and goes when perfbench drops the call.
struct CampaignRequest {};

/// Does nothing. A grid ends only by finishing, by an interrupt or by a
/// failure; this entry point stays only because perfbench/ still calls
/// it, and goes when perfbench drops the call.
void set_default_request(const CampaignRequest& request);

/// One task's outcome. A task skipped after an interrupt has neither a
/// value nor an error.
template <typename T>
struct TaskResult {
  std::optional<T> value;     ///< engaged iff the task ran and returned
  std::exception_ptr error;   ///< set iff the task ran and threw
};

/// Runs `fn(0) .. fn(count-1)` on `pool` and returns every task's result
/// in input order, after all tasks have finished. Never throws for
/// task-level failures: a failed task keeps its exception so the caller
/// decides whether to rethrow it. Whether the campaign was interrupted is
/// interrupt_source().cancelled() once this returns.
template <typename F>
auto run_request(ParallelExecutor& pool, std::size_t count, F&& fn)
    -> std::vector<TaskResult<std::invoke_result_t<F&, std::size_t>>> {
  using R = std::invoke_result_t<F&, std::size_t>;
  // Each task returns its TaskResult by value, exception included, so no
  // exception is ever freed through a future's shared state: a worker may
  // drop the last reference to that state after the caller is done with
  // its future, and the exception must not be freed there while the
  // caller still reads it (its reference count lives in the uninstrumented
  // C++ runtime, so ThreadSanitizer cannot see that release as
  // synchronization).
  std::vector<std::future<TaskResult<R>>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(pool.submit([&fn, i] {
      TaskResult<R> task;
      if (interrupt_source().cancelled()) return task;
      try {
        task.value.emplace(fn(i));
      } catch (...) {
        task.error = std::current_exception();
      }
      return task;
    }));
  }
  std::vector<TaskResult<R>> out;
  out.reserve(count);
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

}  // namespace sttsim::exec
