#include "sttsim/exec/result_store.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>

#include "sttsim/util/hash.hpp"

namespace sttsim::exec {
namespace {

// "STTRSLT1" — result-store log, format generation 1. The schema version in
// the header (not the magic) tracks payload-meaning changes.
constexpr std::uint64_t kMagic = 0x31544c5352545453ULL;

constexpr std::size_t kHeaderBytes = AppendLog::kHeaderBytes;

std::atomic<ResultStore*> g_store{nullptr};

}  // namespace

void set_result_store(ResultStore* store) {
  g_store.store(store, std::memory_order_release);
}

ResultStore* result_store() { return g_store.load(std::memory_order_acquire); }

ResultStore::ResultStore(std::string path, std::size_t payload_bytes)
    : payload_bytes_(payload_bytes),
      // digest u64 + payload + checksum u64 over (digest || payload)
      record_bytes_(8 + payload_bytes + 8),
      log_(std::move(path), "result store", kMagic, kSchemaVersion,
           static_cast<std::uint32_t>(payload_bytes)) {
  std::lock_guard<std::mutex> lock(mu_);
  FileLock file_lock(log_.file());
  load_or_init_locked();
}

ResultStore::~ResultStore() = default;

std::size_t ResultStore::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

void ResultStore::init_header_locked() {
  log_.init_header();
  index_.clear();
  arena_.clear();
  scan_end_ = kHeaderBytes;
}

void ResultStore::load_or_init_locked() {
  const std::size_t size = log_.size();
  if (size == 0) {
    // Fresh file (we created it, or we won the creation race).
    init_header_locked();
    return;
  }

  // Header: wrong magic / schema / payload size / checksum invalidates the
  // whole file — recompute everything rather than misread old records.
  if (!log_.check_header()) {
    std::fprintf(stderr,
                 "[sttsim] result store %s: header/schema mismatch, "
                 "re-initializing empty (old records invalidated)\n",
                 log_.path().c_str());
    init_header_locked();
    return;
  }
  scan_end_ = kHeaderBytes;
  scan_new_locked();
}

std::size_t ResultStore::scan_new_locked() {
  const std::size_t size = log_.size();
  if (size < scan_end_) {
    // The file shrank below our high-water mark: a foreign process
    // re-initialized it (schema change). Reload from scratch rather than
    // serving an index the bytes no longer back.
    index_.clear();
    arena_.clear();
    scan_end_ = 0;
    load_or_init_locked();
    return index_.size();
  }

  // Index every complete record whose checksum matches; skip (but keep in
  // place, preserving alignment) complete corrupt ones; truncate a torn
  // tail — under the exclusive lock nobody is mid-append, so a partial
  // record can only be a crashed/killed writer's leftovers.
  std::FILE* file = log_.file();
  std::size_t added = 0;
  std::vector<std::uint8_t> rec(record_bytes_);
  std::fseek(file, static_cast<long>(scan_end_), SEEK_SET);
  std::size_t tail = 0;
  while (true) {
    const std::size_t got = std::fread(rec.data(), 1, record_bytes_, file);
    if (got < record_bytes_) {
      tail = got;
      break;
    }
    scan_end_ += record_bytes_;
    const std::uint64_t check = get_u64(rec.data() + 8 + payload_bytes_);
    if (check != util::hash_bytes(rec.data(), 8 + payload_bytes_)) {
      dropped_ += 1;
      continue;
    }
    const std::uint64_t digest = get_u64(rec.data());
    if (index_.count(digest) != 0) continue;  // first write wins
    index_.emplace(digest, arena_.size());
    arena_.insert(arena_.end(), rec.begin() + 8,
                  rec.begin() + 8 + static_cast<std::ptrdiff_t>(payload_bytes_));
    ++added;
  }
  if (tail != 0) {
    truncated_ += tail;
    if (!log_.truncate_to(scan_end_)) {
      // Cannot truncate (exotic filesystem): rewrite the log from the
      // indexed records — still never abort. freopen drops the flock with
      // the old descriptor; this process is the only one that can see the
      // torn file anyway (it holds the only reference that matters for
      // correctness of its own index).
      log_.rewrite_begin();
      file = log_.file();
      std::vector<std::pair<std::uint64_t, std::size_t>> records(
          index_.begin(), index_.end());
      std::vector<std::uint8_t> out(record_bytes_);
      for (const auto& [digest, offset] : records) {
        put_u64(out.data(), digest);
        std::memcpy(out.data() + 8, arena_.data() + offset, payload_bytes_);
        put_u64(out.data() + 8 + payload_bytes_,
                util::hash_bytes(out.data(), 8 + payload_bytes_));
        std::fwrite(out.data(), 1, out.size(), file);
      }
      std::fflush(file);
      scan_end_ = kHeaderBytes + records.size() * record_bytes_;
    }
  }
  return added;
}

bool ResultStore::lookup(std::uint64_t digest, void* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(digest);
  if (it == index_.end()) return false;
  std::memcpy(out, arena_.data() + it->second, payload_bytes_);
  return true;
}

void ResultStore::append(std::uint64_t digest, const void* payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(digest) != 0) return;  // first write wins (this process)
  FileLock file_lock(log_.file());
  // Pick up records concurrent campaigns appended since our last scan:
  // first-write-wins must hold across processes too, so a digest another
  // writer just landed is never duplicated or overwritten.
  scan_new_locked();
  if (index_.count(digest) != 0) return;  // first write wins (cross-process)
  std::FILE* file = log_.file();
  std::vector<std::uint8_t> rec(record_bytes_);
  put_u64(rec.data(), digest);
  std::memcpy(rec.data() + 8, payload, payload_bytes_);
  put_u64(rec.data() + 8 + payload_bytes_,
          util::hash_bytes(rec.data(), 8 + payload_bytes_));
  std::fseek(file, static_cast<long>(scan_end_), SEEK_SET);
  std::fwrite(rec.data(), 1, rec.size(), file);
  std::fflush(file);
  scan_end_ += record_bytes_;
  index_.emplace(digest, arena_.size());
  const auto* p = static_cast<const std::uint8_t*>(payload);
  arena_.insert(arena_.end(), p, p + payload_bytes_);
}

std::size_t ResultStore::refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  FileLock file_lock(log_.file());
  return scan_new_locked();
}

}  // namespace sttsim::exec
