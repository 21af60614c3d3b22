// Persistent, digest-keyed result store: the campaign-level memoization
// layer behind `--store=PATH`.
//
// The experiment engine keys records by a stable 64-bit digest of the
// *full* simulation input (experiments::simulation_digest) and stores the
// complete encoded RunStats record, so a warm re-run of a figure probes the
// store instead of simulating and a one-parameter grid edit recomputes only
// the dirty points (experiments::run_grid, the store's only reader and
// writer).
//
// The file, its record format, crash recovery and the one-writer lock are
// exec::AppendLog's (append_log.hpp). This class fixes the magic
// ("STTRSLT1"), the schema version and the aux word, which holds the
// payload size: a file written with another payload size re-initializes
// empty. Payloads are opaque fixed-size byte blobs, so the ThreadSanitizer
// exec test target compiles the store without the simulation libraries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sttsim/exec/append_log.hpp"

namespace sttsim::exec {

class ResultStore : private AppendLog {
 public:
  /// Bumped whenever the record layout OR the meaning of stored payloads
  /// changes (e.g. RunStats gains a counter). Mixed into every simulation
  /// digest as well, so schema changes invalidate keys and files alike.
  static constexpr std::uint32_t kSchemaVersion = 3;

  /// Opens (creating or loading) the store at `path` for payloads of
  /// `payload_bytes` bytes. Throws StoreInUse when another open store holds
  /// the path, and std::runtime_error when the path cannot be opened
  /// read-write (see AppendLog).
  ResultStore(std::string path, std::size_t payload_bytes);

  using AppendLog::dropped_records;
  using AppendLog::entries;
  using AppendLog::path;
  using AppendLog::truncated_bytes;

  std::size_t payload_bytes() const { return payload_bytes_; }

  /// Copies the payload for `digest` into `out` (payload_bytes() long).
  /// The engine indexes only records of that length (the file is input
  /// from outside the program), so any other record misses. Thread-safe;
  /// allocates nothing.
  bool lookup(std::uint64_t digest, void* out) const;

  /// Appends one payload_bytes()-long record; first write wins.
  void append(std::uint64_t digest, const void* payload) {
    AppendLog::append(digest, payload, payload_bytes_);
  }

 private:
  std::size_t payload_bytes_;
};

/// Process-wide active store, consulted by experiments::run_grid (the
/// CLI's artifact-mode `--store=PATH` flag installs one; nullptr — the
/// default — disables memoization entirely). Not owning.
void set_result_store(ResultStore* store);
ResultStore* result_store();

}  // namespace sttsim::exec
