// Persistent, digest-keyed compressed-trace store: the cold-path
// memoization layer behind `--trace-store=PATH`.
//
// A kernel's memory trace is a pure function of (kernel, codegen options,
// trace format version), so a second campaign — or the same campaign
// re-run after an unrelated config edit — regenerates bytes it already
// produced. This store persists each kernel's trace in compressed form
// (cpu::CompressedTrace serialized to an opaque blob, ~2 bytes/op) in an
// append-only log keyed by experiments::trace_digest, so a warm run decodes
// straight from disk and generates zero traces. The compressed form exists
// only on the way to and from this store: the trace cache compresses a
// generated trace just to append it, and keeps only the decompressed trace
// after a hit.
//
// On-disk format: the shared 24-byte AppendLog header (magic "STTTRCS1",
// kSchemaVersion, an aux word holding the caller's content version — the
// harness passes cpu::kTraceFormatVersion so a format bump re-initializes
// the file), then variable-length records:
//
//   [digest u64][len u32][payload len bytes][checksum u64]
//
// with the checksum an FNV-1a hash of (digest || len || payload), all
// little-endian. Durability and sharing mirror ResultStore exactly (same
// AppendLog substrate): every append is written and flushed under an
// exclusive flock; a torn tail is truncated on load/refresh; a complete
// record with a bad checksum is skipped (the key misses and the trace is
// regenerated); a record whose stated length cannot fit in the file — a
// corrupted length would desync variable-length framing — truncates the
// rest of the file; a header mismatch re-initializes the store empty.
// First write wins across threads and processes.
//
// Simulation-agnostic (blobs are opaque): the ThreadSanitizer exec test
// target exercises it without linking the simulation libraries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sttsim/exec/append_log.hpp"

namespace sttsim::exec {

class TraceStore {
 public:
  /// Bumped whenever the record layout changes. The blob encoding itself is
  /// versioned by the aux/content version (cpu::kTraceFormatVersion) and by
  /// the digest, which folds both.
  static constexpr std::uint32_t kSchemaVersion = 1;

  /// Upper bound on a single blob (1 GiB). A stated length beyond this is a
  /// corrupted record, not a huge trace — rejected before any allocation.
  static constexpr std::uint32_t kMaxBlobBytes = 1u << 30;

  /// Opens (creating or loading) the store at `path`. `content_version` is
  /// stamped into the header's aux word; a file recorded under a different
  /// content version or schema is re-initialized empty. Throws
  /// std::runtime_error — naming the path and the failing condition — when
  /// the path is a directory or cannot be opened read-write.
  explicit TraceStore(std::string path, std::uint32_t content_version = 0);
  ~TraceStore();

  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  const std::string& path() const { return log_.path(); }

  /// Number of indexed (valid) records.
  std::size_t entries() const;
  /// Complete-but-corrupt records skipped so far (checksum mismatch).
  std::size_t dropped_records() const { return dropped_; }
  /// Bytes of truncated tail discarded so far (load + refresh).
  std::size_t truncated_bytes() const { return truncated_; }

  /// Copies the blob for `digest` into `out` (replacing its contents).
  /// Returns false on miss. Thread-safe. Probes the in-memory index only —
  /// call refresh() first to observe other processes' appends.
  bool lookup(std::uint64_t digest, std::vector<std::uint8_t>& out) const;

  /// Appends one blob and indexes it. A digest already present — including
  /// one another process appended since the last scan — is ignored: first
  /// write wins, across threads and across processes. Blobs larger than
  /// kMaxBlobBytes are ignored (never stored). Thread-safe; the record is
  /// written and flushed under the file lock.
  void append(std::uint64_t digest, const void* payload, std::size_t len);

  /// Re-reads records appended by other processes since the last scan into
  /// the in-memory index, and truncates any torn tail a killed writer left
  /// (safe: performed under the exclusive file lock). Returns the number of
  /// newly indexed records. Thread-safe.
  std::size_t refresh();

 private:
  void load_or_init_locked();
  void init_header_locked();
  /// Indexes complete records in [scan_end_, EOF); truncates a torn or
  /// unframeable tail. Caller holds mu_ and the exclusive flock.
  std::size_t scan_new_locked();

  mutable std::mutex mu_;
  AppendLog log_;
  struct Entry {
    std::size_t offset;  ///< into arena_
    std::uint32_t len;
  };
  std::unordered_map<std::uint64_t, Entry> index_;
  std::vector<std::uint8_t> arena_;
  std::size_t scan_end_ = 0;  ///< file offset after the last indexed record
  std::size_t dropped_ = 0;
  std::size_t truncated_ = 0;
};

/// Process-wide active trace store, consulted by the experiments trace
/// cache (the CLI's `--trace-store=PATH` flag installs one;
/// nullptr — the default — disables trace persistence). Not owning.
void set_trace_store(TraceStore* store);
TraceStore* trace_store();

}  // namespace sttsim::exec
