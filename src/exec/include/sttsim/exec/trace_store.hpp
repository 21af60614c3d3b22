// Persistent, digest-keyed compressed-trace store: the cold-path
// memoization layer behind `--trace-store=PATH`.
//
// A kernel's memory trace is a pure function of (kernel, codegen options,
// trace format version), so a second campaign — or the same campaign
// re-run after an unrelated config edit — regenerates bytes it already
// produced. This store persists each kernel's trace in compressed form
// (cpu::CompressedTrace serialized to an opaque blob, ~2 bytes/op) keyed by
// experiments::trace_digest, so a warm run decodes straight from disk and
// generates zero traces. The compressed form exists only on the way to and
// from this store: the trace cache compresses a generated trace just to
// append it, and keeps only the decompressed trace after a hit.
//
// The file, its record format, crash recovery and the one-writer lock are
// exec::AppendLog's (append_log.hpp). This class fixes the magic
// ("STTTRCS1"), the schema version and the aux word, which holds the
// caller's content version: the harness passes cpu::kTraceFormatVersion,
// so a format bump re-initializes the file. Blobs are opaque, so the
// ThreadSanitizer exec test target compiles the store without the
// simulation libraries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sttsim/exec/append_log.hpp"

namespace sttsim::exec {

class TraceStore : private AppendLog {
 public:
  /// Bumped whenever the record layout or the blob layout changes (v2: the
  /// blob lost its store-payload section). The blob encoding itself is also
  /// versioned by the content version (cpu::kTraceFormatVersion) and by the
  /// digest, which folds both.
  static constexpr std::uint32_t kSchemaVersion = 2;

  /// Upper bound on a single blob (1 GiB). A longer blob is never stored.
  static constexpr std::uint32_t kMaxBlobBytes = AppendLog::kMaxPayloadBytes;

  /// Opens (creating or loading) the store at `path`. `content_version` is
  /// stamped into the header's aux word; a file recorded under another
  /// content version re-initializes empty. Throws StoreInUse when another
  /// open store holds the path, and std::runtime_error when the path cannot
  /// be opened read-write (see AppendLog).
  explicit TraceStore(std::string path, std::uint32_t content_version = 0);

  using AppendLog::append;
  using AppendLog::dropped_records;
  using AppendLog::entries;
  using AppendLog::path;
  using AppendLog::truncated_bytes;

  /// Copies the blob for `digest` into `out` (replacing its contents).
  /// Returns false on miss. Thread-safe.
  bool lookup(std::uint64_t digest, std::vector<std::uint8_t>& out) const;
};

/// Process-wide active trace store, consulted by the experiments trace
/// cache (the CLI's artifact-mode `--trace-store=PATH` flag installs one;
/// nullptr — the default — disables trace persistence). Not owning.
void set_trace_store(TraceStore* store);
TraceStore* trace_store();

}  // namespace sttsim::exec
