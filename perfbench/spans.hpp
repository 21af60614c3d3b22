// In-memory span recorder for the benchmark's traced run.
//
// A span covers one call the benchmark makes into a layer of sttsim. Spans
// nest per thread: `parent` is the enclosing span on the same thread, so
// children of one parent never overlap and a span's self time is its
// duration minus its children's durations. Work a span hands to another
// thread (a pool task) records the handing span as its `cause` instead.
// Recording is off until enable(); a disabled recorder records nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sttbench {

std::uint64_t now_ns();

struct SpanRecord {
  std::uint32_t id = 0;      ///< 1-based; 0 means "none"
  std::uint32_t parent = 0;  ///< enclosing span on the same thread
  std::uint32_t cause = 0;   ///< span on another thread that caused this one
  std::uint32_t thread = 0;  ///< small per-thread index
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Innermost open span on the calling thread (0 when none is open).
  static std::uint32_t current();

  std::vector<SpanRecord> spans() const;
  void clear();

  /// Self time of every span, indexed like spans(): duration minus the
  /// durations of its same-thread children.
  static std::vector<std::uint64_t> self_times(
      const std::vector<SpanRecord>& spans);

  /// True when, for every span, its children's self times sum to no more
  /// than its own duration.
  static bool children_fit(const std::vector<SpanRecord>& spans);

  /// Writes spans (with self times) as a JSON array.
  static std::string to_json(const std::vector<SpanRecord>& spans);

 private:
  friend class Span;
  std::uint32_t open(std::string name, std::uint32_t cause);
  void close(std::uint32_t id);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::atomic<std::uint32_t> next_thread_{0};
};

/// RAII span on the calling thread. Records nothing while the tracer is
/// disabled. `cause` links a span opened on a pool worker to the span that
/// submitted its task.
class Span {
 public:
  explicit Span(std::string name, std::uint32_t cause = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_ = 0;
};

}  // namespace sttbench
