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
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sttsim::exec {

/// max(1, std::thread::hardware_concurrency()).
unsigned hardware_jobs();

/// Process-wide default parallelism used by executors constructed with
/// `jobs == 0`. `set_default_jobs(0)` restores hardware_jobs(). This is
/// what the sttsim CLI's `--jobs=N` flag sets.
void set_default_jobs(unsigned jobs);
unsigned default_jobs();

/// Does nothing. Grid replay has one schedule, one point per task; this
/// entry point stays only because the benchmark driver (perfbench/) still
/// calls it, and goes when that driver drops the call.
void set_default_batch(unsigned batch);

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
