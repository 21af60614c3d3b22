// Persistent, digest-keyed result store: the campaign-level memoization
// layer behind `--store=PATH`.
//
// An on-disk append-only log of (key digest, fixed-size payload) records
// plus an in-memory index. The experiment engine keys records by a stable
// 64-bit digest of the *full* simulation input (experiments::
// simulation_digest) and stores the complete encoded RunStats record, so a
// warm re-run of a figure probes the store instead of simulating and a
// one-parameter grid edit recomputes only the dirty points.
//
// Durability model — crash-safe, never abort:
//  * every append writes one complete record and flushes it;
//  * on load (and on refresh), a truncated tail (partial record — a writer
//    crashed or was killed mid-append) is dropped and the file is truncated
//    back to the last complete record, so future appends stay
//    record-aligned;
//  * a complete record whose checksum does not match its bytes (bit rot,
//    tampering) is skipped — the key simply misses and is recomputed;
//  * a header with the wrong magic/schema/payload size invalidates the
//    whole file: it is re-initialized empty (recompute everything, never
//    refuse to run). Paths that cannot work at all — the path is a
//    directory, its parent is missing or unwritable — throw a
//    std::runtime_error naming the path and the reason.
//
// Multi-process sharing — two concurrent `--store=PATH` campaigns
// interleave safely:
//  * every mutation (load, append, refresh) holds an advisory exclusive
//    flock(2) on the store file, so records from concurrent writer
//    processes never tear each other;
//  * append() first scans records other processes appended since the last
//    scan, so first-write-wins holds across processes exactly as it does
//    across threads (a digest another campaign already computed is never
//    overwritten);
//  * refresh() re-reads records appended by other processes into the
//    in-memory index (run_grid calls it before probing a grid), and — as
//    the lock holder — truncates any torn tail a killed writer left
//    behind;
//  * stale locks cannot occur: flock locks are owned by the kernel's open
//    file description and are released automatically when the holding
//    process exits or dies, so a crashed campaign never blocks the next
//    one. Recovery from a crashed writer is the torn-tail truncation
//    above.
//
// The store is simulation-agnostic (payloads are opaque fixed-size byte
// blobs) so the ThreadSanitizer exec test target can exercise it without
// linking the simulation libraries. The file/header/lock plumbing shared
// with the trace store lives in exec::AppendLog (append_log.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sttsim/exec/append_log.hpp"

namespace sttsim::exec {

class ResultStore {
 public:
  /// Bumped whenever the record layout OR the meaning of stored payloads
  /// changes (e.g. RunStats gains a counter). Mixed into every simulation
  /// digest as well, so schema changes invalidate keys and files alike.
  static constexpr std::uint32_t kSchemaVersion = 2;

  /// Opens (creating or loading) the store at `path`. `payload_bytes` is
  /// the fixed record payload size; a file recorded with a different size
  /// or schema is re-initialized empty. Throws std::runtime_error — with a
  /// diagnostic naming the path and the failing condition — when the path
  /// is a directory or cannot be opened read-write (missing or unwritable
  /// parent directory, permissions).
  ResultStore(std::string path, std::size_t payload_bytes);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  const std::string& path() const { return log_.path(); }
  std::size_t payload_bytes() const { return payload_bytes_; }

  /// Number of indexed (valid) records.
  std::size_t entries() const;
  /// Complete-but-corrupt records skipped so far (checksum mismatch).
  std::size_t dropped_records() const { return dropped_; }
  /// Bytes of truncated tail discarded so far (load + refresh).
  std::size_t truncated_bytes() const { return truncated_; }

  /// Copies the payload for `digest` into `out` (payload_bytes() long).
  /// Returns false on miss. Thread-safe. Probes the in-memory index only —
  /// call refresh() first to observe other processes' appends.
  bool lookup(std::uint64_t digest, void* out) const;

  /// Appends one record (payload_bytes() long) and indexes it. A digest
  /// already present — including one another process appended since the
  /// last scan — is ignored: first write wins, across threads and across
  /// processes. Thread-safe; each record is written and flushed under the
  /// file lock, atomically with respect to every other appender.
  void append(std::uint64_t digest, const void* payload);

  /// Re-reads records appended by other processes since the last scan into
  /// the in-memory index, and truncates any torn tail a killed writer left
  /// (safe: performed under the exclusive file lock, where no writer can
  /// be mid-append). Returns the number of newly indexed records.
  /// Thread-safe.
  std::size_t refresh();

 private:
  void load_or_init_locked();
  void init_header_locked();
  /// Indexes complete records in [scan_end_, EOF); truncates a torn tail.
  /// Caller holds mu_ and the exclusive flock.
  std::size_t scan_new_locked();

  std::size_t payload_bytes_;
  std::size_t record_bytes_;

  mutable std::mutex mu_;
  AppendLog log_;
  // Fixed-size payloads live in one flat arena; the index maps digest ->
  // arena offset. No per-record allocation, cheap snapshot-free reads under
  // the mutex (lookups copy out).
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::vector<std::uint8_t> arena_;
  std::size_t scan_end_ = 0;  ///< file offset after the last indexed record
  std::size_t dropped_ = 0;
  std::size_t truncated_ = 0;
};

/// Process-wide active store, consulted by experiments::run_grid and the
/// CLI run paths (the CLI's `--store=PATH` flag installs one; nullptr —
/// the default — disables memoization entirely). Not owning.
void set_result_store(ResultStore* store);
ResultStore* result_store();

}  // namespace sttsim::exec
