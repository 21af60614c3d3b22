// Concurrency-safe memoization: a shared_mutex-guarded map whose values
// are produced by a per-key once-latch, so each value is generated exactly
// once per residency even when many jobs request the same key
// simultaneously (the other requesters block on the latch, not on the map
// lock, so unrelated keys generate in parallel).
//
// Values are held by shared ownership, so the cache can drop its copy of a
// value that is no longer needed: a holder of a handle keeps the value
// alive until it lets go, and the next request regenerates it. A value
// handed out by reference (get_or_generate) is pinned instead and stays
// resident for the cache's lifetime, since nothing tracks who holds the
// reference.
//
// experiments::TraceCache instantiates this for (kernel, codegen) -> Trace;
// the template itself is simulator-agnostic so the ThreadSanitizer test
// target can exercise it without linking the simulation libraries.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "sttsim/exec/telemetry.hpp"

namespace sttsim::exec {

template <typename Key, typename Value, typename Compare = std::less<>>
class ConcurrentMemoCache {
 public:
  /// Shared, read-only ownership of one value.
  using Handle = std::shared_ptr<const Value>;

  /// Returns the value for `lookup`, generating it with `gen()` if it is
  /// not resident. `lookup` may be a cheap view type (heterogeneous
  /// comparison via a transparent `Compare`); `make_key()` materializes the
  /// owning Key only on the insertion path, so cache hits allocate nothing.
  /// If `gen` throws, the entry stays ungenerated and the next requester
  /// retries. When `wait_ns` is given it receives the nanoseconds this call
  /// blocked on another requester's generation (0 if it did not block).
  template <typename LookupKey, typename MakeKey, typename Generator>
  Handle acquire(const LookupKey& lookup, MakeKey&& make_key, Generator&& gen,
                 std::uint64_t* wait_ns = nullptr) {
    return fetch(lookup, make_key, gen, wait_ns, false);
  }

  /// As acquire(), but returns a reference and pins the entry: drop()
  /// leaves it resident, so the reference stays valid for the cache's
  /// lifetime.
  template <typename LookupKey, typename MakeKey, typename Generator>
  const Value& get_or_generate(const LookupKey& lookup, MakeKey&& make_key,
                               Generator&& gen) {
    return *fetch(lookup, make_key, gen, nullptr, true);
  }

  /// Releases the cache's copy of `lookup`'s value unless it is pinned.
  /// Handles already given out keep the value alive; the next request
  /// generates it again. A no-op for an absent or ungenerated key.
  template <typename LookupKey>
  void drop(const LookupKey& lookup) {
    Entry* entry = nullptr;
    {
      std::shared_lock<std::shared_mutex> read(mu_);
      const auto it = map_.find(lookup);
      if (it == map_.end()) return;
      entry = &it->second;
    }
    Handle released;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      if (entry->pinned || !entry->value) return;
      released = std::move(entry->value);
      resident_.fetch_sub(1, std::memory_order_relaxed);
    }
    // `released` frees the value here, outside the entry lock, unless a
    // holder still shares it.
  }

  /// Number of generations so far (a dropped and regenerated value counts
  /// twice).
  std::size_t entries() const {
    return generated_.load(std::memory_order_relaxed);
  }

  /// Number of values the cache currently holds.
  std::size_t resident() const {
    return resident_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::mutex mu;
    std::condition_variable done;
    bool generating = false;
    bool pinned = false;
    Handle value;
  };

  template <typename LookupKey, typename MakeKey, typename Generator>
  Handle fetch(const LookupKey& lookup, MakeKey& make_key, Generator& gen,
               std::uint64_t* wait_ns, bool pin) {
    if (wait_ns != nullptr) *wait_ns = 0;
    Entry* entry = nullptr;
    {
      std::shared_lock<std::shared_mutex> read(mu_);
      const auto it = map_.find(lookup);
      if (it != map_.end()) entry = &it->second;
    }
    if (entry == nullptr) {
      std::unique_lock<std::shared_mutex> write(mu_);
      entry = &map_[make_key()];
    }
    // Per-key latch (explicit mutex/condvar rather than std::call_once,
    // whose exceptional path is not ThreadSanitizer-clean in libstdc++).
    std::unique_lock<std::mutex> lock(entry->mu);
    if (!entry->value && entry->generating) {
      const std::uint64_t t0 = now_ns();
      while (!entry->value && entry->generating) entry->done.wait(lock);
      if (wait_ns != nullptr) *wait_ns = now_ns() - t0;
    }
    if (entry->value) {
      entry->pinned = entry->pinned || pin;
      return entry->value;
    }
    entry->generating = true;
    lock.unlock();
    Handle v;
    try {
      v = std::make_shared<Value>(gen());
    } catch (...) {
      lock.lock();
      entry->generating = false;  // let the next requester retry
      entry->done.notify_all();
      throw;
    }
    lock.lock();
    entry->value = v;
    entry->pinned = entry->pinned || pin;
    entry->generating = false;
    generated_.fetch_add(1, std::memory_order_relaxed);
    resident_.fetch_add(1, std::memory_order_relaxed);
    entry->done.notify_all();
    return v;
  }

  mutable std::shared_mutex mu_;
  // Entries are never erased (drop() only releases the value), so node
  // stability keeps every Entry* valid for the cache's lifetime.
  std::map<Key, Entry, Compare> map_;
  std::atomic<std::size_t> generated_{0};
  std::atomic<std::size_t> resident_{0};
};

}  // namespace sttsim::exec
