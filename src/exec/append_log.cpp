#include "sttsim/exec/append_log.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "sttsim/util/hash.hpp"

namespace sttsim::exec {
namespace {

// digest u64 + len u32 precede the payload; the checksum u64 follows it.
constexpr std::size_t kRecordHead = 8 + 4;
constexpr std::size_t kRecordTail = 8;

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

AppendLog::AppendLog(std::string path, std::string what, std::uint64_t magic,
                     std::uint32_t version, std::uint32_t aux,
                     std::size_t record_len)
    : path_(std::move(path)),
      what_(std::move(what)),
      magic_(magic),
      version_(version),
      aux_(aux),
      record_len_(record_len) {
  // Open read-write, creating if absent. No O_TRUNC: an open that finds
  // the path held must leave the holder's bytes alone.
  const int fd = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    const int err = errno;
    std::string reason = std::strerror(err);
    struct stat st;
    if (err == EISDIR ||
        (stat(path_.c_str(), &st) == 0 && S_ISDIR(st.st_mode))) {
      reason = "path is a directory";
    } else if (err == ENOENT) {
      reason = "parent directory does not exist";
    } else if (err == EACCES) {
      reason = "permission denied (unwritable directory or file)";
    }
    throw std::runtime_error(what_ + ": cannot open " + path_ +
                             " read-write: " + reason);
  }
  // One writer per path, from before the first byte read to close. The
  // kernel drops the lock with the descriptor, so a killed holder leaves
  // none behind.
  if (flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd);
    if (err == EWOULDBLOCK) {
      throw StoreInUse(what_ + " " + path_ +
                       ": in use by another open of this path");
    }
    throw std::runtime_error(what_ + ": cannot lock " + path_ + ": " +
                             std::strerror(err));
  }
  file_ = fdopen(fd, "r+b");
  if (file_ == nullptr) {
    ::close(fd);
    throw std::runtime_error(what_ + ": cannot open " + path_ +
                             " read-write: " + std::strerror(errno));
  }
  std::lock_guard<std::mutex> lock(mu_);
  load_or_init_locked();
}

AppendLog::~AppendLog() { std::fclose(file_); }

std::size_t AppendLog::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

std::size_t AppendLog::dropped_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::size_t AppendLog::truncated_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncated_;
}

std::size_t AppendLog::file_size() const {
  struct stat st;
  if (fstat(fileno(file_), &st) != 0) return 0;
  return static_cast<std::size_t>(st.st_size);
}

void AppendLog::init_header_locked() {
  if (ftruncate(fileno(file_), 0) != 0) {
    throw std::runtime_error(what_ + ": cannot truncate " + path_ + ": " +
                             std::strerror(errno));
  }
  std::uint8_t header[kHeaderBytes];
  put_u64(header, magic_);
  put_u32(header + 8, version_);
  put_u32(header + 12, aux_);
  put_u64(header + 16, util::hash_bytes(header, 16));
  std::fseek(file_, 0, SEEK_SET);
  std::fwrite(header, 1, sizeof header, file_);
  std::fflush(file_);
}

bool AppendLog::header_matches_locked() const {
  std::uint8_t header[kHeaderBytes];
  std::fseek(file_, 0, SEEK_SET);
  return std::fread(header, 1, sizeof header, file_) == sizeof header &&
         get_u64(header) == magic_ && get_u32(header + 8) == version_ &&
         get_u32(header + 12) == aux_ &&
         get_u64(header + 16) == util::hash_bytes(header, 16);
}

void AppendLog::load_or_init_locked() {
  if (file_size() == 0) {
    init_header_locked();
  } else if (!header_matches_locked()) {
    // Wrong magic, schema, aux word or checksum: recompute everything
    // rather than misread old records.
    std::fprintf(stderr,
                 "[sttsim] %s %s: header/schema mismatch, re-initializing "
                 "empty (old records invalidated)\n",
                 what_.c_str(), path_.c_str());
    init_header_locked();
  } else {
    scan_locked();
  }
}

void AppendLog::scan_locked() {
  // Index every complete record whose checksum and length hold and skip
  // the other complete ones in place. Under the one-writer lock nobody is
  // mid-append, so a partial record can only be a crashed writer's
  // leftovers. A corrupted length would desync the framing of everything
  // after it, so a record whose stated extent does not fit ends the scan as
  // torn tail.
  const std::size_t size = file_size();
  std::fseek(file_, static_cast<long>(scan_end_), SEEK_SET);
  while (scan_end_ < size) {
    std::uint8_t head[kRecordHead];
    if (std::fread(head, 1, sizeof head, file_) < sizeof head) break;
    const std::uint32_t len = get_u32(head + 8);
    const std::size_t bytes = kRecordHead + len + kRecordTail;
    if (len > kMaxPayloadBytes || bytes > size - scan_end_) break;
    // Read the payload straight into the arena; give it back if the record
    // is corrupt or its digest is already indexed.
    const std::size_t at = arena_.size();
    arena_.resize(at + len);
    std::uint8_t tail[kRecordTail];
    if ((len != 0 && std::fread(arena_.data() + at, 1, len, file_) < len) ||
        std::fread(tail, 1, sizeof tail, file_) < sizeof tail) {
      arena_.resize(at);
      break;
    }
    scan_end_ += bytes;
    const std::uint64_t digest = get_u64(head);
    const bool intact =
        (record_len_ == 0 || len == record_len_) &&
        get_u64(tail) ==
            util::Hash64().bytes(head, sizeof head)
                .bytes(arena_.data() + at, len)
                .digest();
    if (!intact) ++dropped_;
    if (!intact || !index_.emplace(digest, Entry{at, len}).second) {
      arena_.resize(at);  // corrupt, or a later copy: first write wins
    }
  }
  if (scan_end_ < size) {
    truncated_ += size - scan_end_;
    truncate_tail_locked();
  }
}

void AppendLog::truncate_tail_locked() {
  std::clearerr(file_);
  if (ftruncate(fileno(file_), static_cast<off_t>(scan_end_)) != 0) {
    // The next append lands at scan_end_ all the same, and a leftover byte
    // past it can only end a later scan as torn tail or a checksum miss.
    std::fprintf(stderr,
                 "[sttsim] %s %s: cannot truncate the torn tail (%s); "
                 "later records overwrite it\n",
                 what_.c_str(), path_.c_str(), std::strerror(errno));
  }
}

void AppendLog::append(std::uint64_t digest, const void* payload,
                       std::size_t len) {
  if (len > kMaxPayloadBytes || (record_len_ != 0 && len != record_len_)) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(digest) != 0) return;  // first write wins
  const auto* p = static_cast<const std::uint8_t*>(payload);
  const auto n = static_cast<std::uint32_t>(len);
  std::uint8_t head[kRecordHead];
  std::uint8_t tail[kRecordTail];
  put_u64(head, digest);
  put_u32(head + 8, n);
  put_u64(tail, util::Hash64().bytes(head, sizeof head).bytes(p, n).digest());
  std::fseek(file_, static_cast<long>(scan_end_), SEEK_SET);
  const bool written =
      std::fwrite(head, 1, sizeof head, file_) == sizeof head &&
      (n == 0 || std::fwrite(p, 1, n, file_) == n) &&
      std::fwrite(tail, 1, sizeof tail, file_) == sizeof tail;
  // Flush even after a failed write, so nothing of the record stays
  // buffered for a later flush to land past the cut.
  if (std::fflush(file_) != 0 || !written) {
    std::fprintf(stderr,
                 "[sttsim] %s %s: cannot append a record (%s); it stays out "
                 "of the store\n",
                 what_.c_str(), path_.c_str(), std::strerror(errno));
    truncate_tail_locked();
    return;
  }
  scan_end_ += kRecordHead + len + kRecordTail;
  index_.emplace(digest, Entry{arena_.size(), n});
  arena_.insert(arena_.end(), p, p + len);
}

}  // namespace sttsim::exec
