#include "sttsim/exec/parallel_executor.hpp"

#include <atomic>

namespace sttsim::exec {
namespace {

std::atomic<unsigned> g_default_jobs{0};  // 0 = hardware_jobs()

}  // namespace

unsigned hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

void set_default_jobs(unsigned jobs) { g_default_jobs.store(jobs); }

unsigned default_jobs() {
  const unsigned n = g_default_jobs.load();
  return n == 0 ? hardware_jobs() : n;
}

void set_default_batch(unsigned /*batch*/) {}

ParallelExecutor::ParallelExecutor(unsigned jobs)
    : jobs_(jobs == 0 ? default_jobs() : jobs) {
  if (jobs_ > 1) {
    workers_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ParallelExecutor::enqueue(std::packaged_task<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ParallelExecutor::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task routes exceptions into the future
  }
}

}  // namespace sttsim::exec
