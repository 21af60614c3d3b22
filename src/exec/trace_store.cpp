#include "sttsim/exec/trace_store.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>

#include "sttsim/util/hash.hpp"

namespace sttsim::exec {
namespace {

// "STTTRCS1" — trace-store log, format generation 1.
constexpr std::uint64_t kMagic = 0x3153435254545453ULL;

constexpr std::size_t kHeaderBytes = AppendLog::kHeaderBytes;

// digest u64 + len u32 precede the payload; checksum u64 follows it.
constexpr std::size_t kRecordHeadBytes = 8 + 4;
constexpr std::size_t kRecordTailBytes = 8;

std::atomic<TraceStore*> g_trace_store{nullptr};

}  // namespace

void set_trace_store(TraceStore* store) {
  g_trace_store.store(store, std::memory_order_release);
}

TraceStore* trace_store() {
  return g_trace_store.load(std::memory_order_acquire);
}

TraceStore::TraceStore(std::string path, std::uint32_t content_version)
    : log_(std::move(path), "trace store", kMagic, kSchemaVersion,
           content_version) {
  std::lock_guard<std::mutex> lock(mu_);
  FileLock file_lock(log_.file());
  load_or_init_locked();
}

TraceStore::~TraceStore() = default;

std::size_t TraceStore::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

void TraceStore::init_header_locked() {
  log_.init_header();
  index_.clear();
  arena_.clear();
  scan_end_ = kHeaderBytes;
}

void TraceStore::load_or_init_locked() {
  const std::size_t size = log_.size();
  if (size == 0) {
    // Fresh file (we created it, or we won the creation race).
    init_header_locked();
    return;
  }
  // Wrong magic / schema / content version / checksum invalidates the whole
  // file — regenerate every trace rather than misread old blobs.
  if (!log_.check_header()) {
    std::fprintf(stderr,
                 "[sttsim] trace store %s: header/schema mismatch, "
                 "re-initializing empty (old traces invalidated)\n",
                 log_.path().c_str());
    init_header_locked();
    return;
  }
  scan_end_ = kHeaderBytes;
  scan_new_locked();
}

std::size_t TraceStore::scan_new_locked() {
  const std::size_t size = log_.size();
  if (size < scan_end_) {
    // The file shrank below our high-water mark: a foreign process
    // re-initialized it. Reload from scratch rather than serving an index
    // the bytes no longer back.
    index_.clear();
    arena_.clear();
    scan_end_ = 0;
    load_or_init_locked();
    return index_.size();
  }

  // Index every complete record whose checksum matches; skip complete
  // corrupt ones in place; truncate a torn tail. Unlike the fixed-record
  // result store, a corrupted *length* here would desync the framing of
  // everything after it — a record whose stated extent does not fit in the
  // file (or exceeds the blob cap) therefore truncates the rest of the
  // file, not just itself.
  std::FILE* file = log_.file();
  std::size_t added = 0;
  std::uint8_t head[kRecordHeadBytes];
  std::vector<std::uint8_t> rec;
  std::fseek(file, static_cast<long>(scan_end_), SEEK_SET);
  bool tail_torn = false;
  while (true) {
    const std::size_t got = std::fread(head, 1, sizeof head, file);
    if (got < sizeof head) {
      tail_torn = got != 0;
      break;
    }
    const std::uint32_t len = get_u32(head + 8);
    const std::size_t body = static_cast<std::size_t>(len) + kRecordTailBytes;
    if (len > kMaxBlobBytes || scan_end_ + sizeof head + body > size) {
      tail_torn = true;
      break;
    }
    rec.resize(sizeof head + body);
    std::memcpy(rec.data(), head, sizeof head);
    if (std::fread(rec.data() + sizeof head, 1, body, file) < body) {
      tail_torn = true;
      break;
    }
    scan_end_ += rec.size();
    const std::uint64_t check = get_u64(rec.data() + kRecordHeadBytes + len);
    if (check != util::hash_bytes(rec.data(), kRecordHeadBytes + len)) {
      dropped_ += 1;
      continue;
    }
    const std::uint64_t digest = get_u64(rec.data());
    if (index_.count(digest) != 0) continue;  // first write wins
    index_.emplace(digest, Entry{arena_.size(), len});
    arena_.insert(arena_.end(), rec.begin() + kRecordHeadBytes,
                  rec.begin() + kRecordHeadBytes +
                      static_cast<std::ptrdiff_t>(len));
    ++added;
  }
  if (tail_torn) {
    truncated_ += size - scan_end_;
    if (!log_.truncate_to(scan_end_)) {
      // Cannot truncate (exotic filesystem): rewrite the log from the
      // indexed records — still never abort.
      log_.rewrite_begin();
      file = log_.file();
      std::size_t end = kHeaderBytes;
      std::vector<std::uint8_t> out;
      for (const auto& [digest, entry] : index_) {
        out.resize(kRecordHeadBytes + entry.len + kRecordTailBytes);
        put_u64(out.data(), digest);
        put_u32(out.data() + 8, entry.len);
        std::memcpy(out.data() + kRecordHeadBytes,
                    arena_.data() + entry.offset, entry.len);
        put_u64(out.data() + kRecordHeadBytes + entry.len,
                util::hash_bytes(out.data(), kRecordHeadBytes + entry.len));
        std::fwrite(out.data(), 1, out.size(), file);
        end += out.size();
      }
      std::fflush(file);
      scan_end_ = end;
    }
  }
  return added;
}

bool TraceStore::lookup(std::uint64_t digest,
                        std::vector<std::uint8_t>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(digest);
  if (it == index_.end()) return false;
  const Entry& e = it->second;
  out.assign(arena_.begin() + static_cast<std::ptrdiff_t>(e.offset),
             arena_.begin() + static_cast<std::ptrdiff_t>(e.offset + e.len));
  return true;
}

void TraceStore::append(std::uint64_t digest, const void* payload,
                        std::size_t len) {
  if (len > kMaxBlobBytes) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(digest) != 0) return;  // first write wins (this process)
  FileLock file_lock(log_.file());
  // Pick up records concurrent campaigns appended since our last scan:
  // first-write-wins must hold across processes too.
  scan_new_locked();
  if (index_.count(digest) != 0) return;  // first write wins (cross-process)
  std::FILE* file = log_.file();
  std::vector<std::uint8_t> rec(kRecordHeadBytes + len + kRecordTailBytes);
  put_u64(rec.data(), digest);
  put_u32(rec.data() + 8, static_cast<std::uint32_t>(len));
  if (len != 0) std::memcpy(rec.data() + kRecordHeadBytes, payload, len);
  put_u64(rec.data() + kRecordHeadBytes + len,
          util::hash_bytes(rec.data(), kRecordHeadBytes + len));
  std::fseek(file, static_cast<long>(scan_end_), SEEK_SET);
  std::fwrite(rec.data(), 1, rec.size(), file);
  std::fflush(file);
  scan_end_ += rec.size();
  index_.emplace(digest, Entry{arena_.size(), static_cast<std::uint32_t>(len)});
  const auto* p = static_cast<const std::uint8_t*>(payload);
  arena_.insert(arena_.end(), p, p + len);
}

std::size_t TraceStore::refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  FileLock file_lock(log_.file());
  return scan_new_locked();
}

}  // namespace sttsim::exec
