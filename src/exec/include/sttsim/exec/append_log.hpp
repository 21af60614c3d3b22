// The one digest-keyed store engine: an append-only log file of
// (digest, payload) records plus its in-memory index. The persistent result
// store (exec::ResultStore, `--store=PATH`) and the persistent
// compressed-trace store (exec::TraceStore, `--trace-store=PATH`) are thin
// wrappers that choose a magic, a name for diagnostics, a schema version
// and an aux word; the format, the recovery rules and the one-writer rule
// below are this engine's and hold for both.
//
// On-disk format, all little-endian:
//  * a 24-byte header: magic (8), schema version (4), an aux word the store
//    interprets (4; the result store's payload size, the trace store's
//    content version), and an FNV-1a checksum of the first 16 bytes (8);
//  * then records [digest u64][len u32][payload, len bytes][checksum u64],
//    the checksum an FNV-1a hash of (digest || len || payload).
//
// Durability — crash-safe, never abort:
//  * every append writes one complete record and flushes it. A write that
//    fails (disk full, file-size limit) is cut back to the last complete
//    record, reported in one `[sttsim]` line on stderr and left out of the
//    index: its key misses and is recomputed;
//  * on open, a torn tail (a writer crashed or was killed mid-append) is
//    truncated back to the last complete record, so later appends stay
//    record-aligned. A record whose stated length overruns the file or
//    kMaxPayloadBytes cannot be framed, so it and everything after it count
//    as torn tail. Where the filesystem cannot truncate, one `[sttsim]` line
//    says so and the next append lands at the same offset; the checksums
//    keep the leftover bytes from being served;
//  * a complete record whose checksum does not match its bytes (bit rot,
//    tampering), or whose length is not the store's fixed record length,
//    is skipped in place: its key misses, and an append under that key
//    lands and is indexed;
//  * a header with the wrong magic, schema, aux word or checksum
//    re-initializes the whole file empty (recompute everything, never
//    refuse to run). Paths that cannot work at all — a directory, a missing
//    or unwritable parent — throw a std::runtime_error naming the path and
//    the reason.
//
// One writer per path:
//  * the constructor takes a non-blocking exclusive flock(2) on the file
//    before it reads or writes a byte, and holds it until the log closes.
//    An open of a path that another AppendLog (in this process or another)
//    or any other flock(2) holder has locked throws StoreInUse and leaves
//    the file untouched;
//  * flock locks belong to the kernel's open file description, so a holder
//    that dies, even by SIGKILL mid-append, leaves no stale lock: the next
//    open takes it at once and truncates the torn tail;
//  * with no other writer, lookup() and append() trust the in-memory index:
//    first write wins across threads.
//
// Simulation-agnostic (payloads are opaque bytes), so the ThreadSanitizer
// exec test target compiles it without the simulation libraries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace sttsim::exec {

/// Thrown by the AppendLog constructor when another open (another log, or
/// any flock(2) holder) has locked the path. The file is left as it was.
class StoreInUse : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class AppendLog {
 public:
  /// magic (8) + version (4) + aux (4) + checksum of the first 16 bytes (8).
  static constexpr std::size_t kHeaderBytes = 24;
  /// Upper bound on one payload (1 GiB). A stated length beyond it is a
  /// corrupted record, not a large payload; append() ignores such payloads.
  static constexpr std::uint32_t kMaxPayloadBytes = 1u << 30;

  /// Opens `path` read-write, creating it if absent, takes the one-writer
  /// lock and indexes the file's records. A file whose header does not
  /// match (`magic`, `version`, `aux`) is re-initialized empty.
  /// `record_len` fixes every payload's length (0: any length). `what`
  /// names the store in diagnostics ("result store", "trace store").
  /// Throws StoreInUse when another open has locked the path, and
  /// std::runtime_error when the path is a directory or cannot be opened
  /// read-write.
  AppendLog(std::string path, std::string what, std::uint64_t magic,
            std::uint32_t version, std::uint32_t aux, std::size_t record_len);
  ~AppendLog();

  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  const std::string& path() const { return path_; }

  /// Number of indexed (valid) records.
  std::size_t entries() const;
  /// Complete records skipped so far because their checksum did not match
  /// or their length was not the fixed record length.
  std::size_t dropped_records() const;
  /// Bytes of torn tail discarded on open.
  std::size_t truncated_bytes() const;

  /// Calls `read(payload, len)` on the record indexed under `digest` and
  /// returns its result; false on a miss. `read` runs under the store's
  /// mutex and `payload` is valid only during the call: an append may move
  /// the arena. Probes the in-memory index only. Thread-safe.
  template <typename Read>
  bool lookup(std::uint64_t digest, Read&& read) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(digest);
    return it != index_.end() &&
           read(arena_.data() + it->second.offset,
                static_cast<std::size_t>(it->second.len));
  }

  /// Appends one record and indexes it. A digest already present is
  /// ignored (first write wins), and so is a payload longer than
  /// kMaxPayloadBytes or not of the fixed record length.
  /// Thread-safe; the record is written and flushed under the mutex.
  void append(std::uint64_t digest, const void* payload, std::size_t len);

 private:
  struct Entry {
    std::size_t offset;  ///< into arena_
    std::uint32_t len;
  };

  // Every *_locked function runs with mu_ held.
  void load_or_init_locked();
  void init_header_locked();
  bool header_matches_locked() const;
  /// Indexes the file's complete records and truncates a torn or
  /// unframeable tail.
  void scan_locked();
  /// Cuts the file back to scan_end_, the end of the last complete record.
  void truncate_tail_locked();
  std::size_t file_size() const;

  const std::string path_;
  const std::string what_;
  const std::uint64_t magic_;
  const std::uint32_t version_;
  const std::uint32_t aux_;
  const std::size_t record_len_;  ///< 0: any length
  std::FILE* file_ = nullptr;

  mutable std::mutex mu_;
  // Payloads live in one flat arena; the index maps a digest to its slice.
  std::unordered_map<std::uint64_t, Entry> index_;
  std::vector<std::uint8_t> arena_;
  /// File offset after the last indexed record.
  std::size_t scan_end_ = kHeaderBytes;
  std::size_t dropped_ = 0;
  std::size_t truncated_ = 0;
};

}  // namespace sttsim::exec
