// Fixed-size thread pool for fanning simulation jobs across hardware
// threads. The experiment drivers submit one job per (kernel x
// organization x codegen) grid point and collect results in deterministic
// input order, so parallel runs produce byte-identical artifacts.
//
// `jobs == 1` is the serial path: tasks run inline on the calling thread,
// no workers are spawned, and execution order matches the historical
// serial loops exactly.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sttsim::exec {

/// max(1, std::thread::hardware_concurrency()).
unsigned hardware_jobs();

/// Process-wide default parallelism used by executors constructed with
/// `jobs == 0`. `set_default_jobs(0)` restores hardware_jobs(). This is
/// what the benches' `--jobs=N` flag sets.
void set_default_jobs(unsigned jobs);
unsigned default_jobs();

/// Process-wide config-parallel batch width (the benches' `--batch=K`
/// flag): how many same-class DL1 configurations one grid task replays per
/// decoded-trace pass (experiments::run_grid). 1 — the default — is the
/// unbatched PR 5 path, bit-identical by construction; values are clamped
/// to the engine's lane limit (cpu::kMaxBatchLanes) at use.
void set_default_batch(unsigned batch);
unsigned default_batch();

class ParallelExecutor {
 public:
  /// `jobs == 0` uses default_jobs().
  explicit ParallelExecutor(unsigned jobs = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  unsigned jobs() const { return jobs_; }

  /// Schedules `fn()` and returns its future. With `jobs() == 1` the task
  /// runs inline before submit() returns. Exceptions thrown by the task
  /// are captured and rethrown from future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    std::packaged_task<R()> task(std::forward<F>(fn));
    std::future<R> future = task.get_future();
    if (jobs_ == 1) {
      task();
      return future;
    }
    enqueue(std::packaged_task<void()>(std::move(task)));
    return future;
  }

  /// Runs `fn(0) .. fn(count-1)` across the pool and returns the results
  /// in input order. If any invocation throws, the lowest-index exception
  /// is rethrown after all submitted tasks finished or were drained.
  template <typename F>
  auto map(std::size_t count, F&& fn)
      -> std::vector<std::invoke_result_t<F&, std::size_t>> {
    using R = std::invoke_result_t<F&, std::size_t>;
    std::vector<R> out;
    out.reserve(count);
    if (jobs_ == 1) {
      for (std::size_t i = 0; i < count; ++i) out.push_back(fn(i));
      return out;
    }
    // A failed call hands its exception back as a value, not through the
    // future's shared state: a worker may drop the last reference to that
    // state after the caller is done with its future, and the exception
    // must not be freed there while the caller still reads it (its
    // reference count lives in the uninstrumented C++ runtime, so
    // ThreadSanitizer cannot see that release as synchronization).
    struct Slot {
      std::optional<R> value;
      std::exception_ptr error;
    };
    std::vector<std::future<Slot>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      futures.push_back(submit([&fn, i] {
        Slot slot;
        try {
          slot.value.emplace(fn(i));
        } catch (...) {
          slot.error = std::current_exception();
        }
        return slot;
      }));
    }
    // Collect in input order; capture the first failure but keep draining
    // so no task is left referencing `fn` when we unwind.
    std::exception_ptr first_error;
    for (auto& f : futures) {
      Slot slot = f.get();
      if (slot.error) {
        if (!first_error) first_error = std::move(slot.error);
      } else {
        out.push_back(std::move(*slot.value));
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return out;
  }

 private:
  void enqueue(std::packaged_task<void()> task);
  void worker_loop();

  unsigned jobs_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
};

}  // namespace sttsim::exec
