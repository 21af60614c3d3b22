#include "sttsim/cpu/decoded_trace.hpp"

#include <algorithm>
#include <mutex>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define STTSIM_POISON_CHUNK(p) ASAN_POISON_MEMORY_REGION(p, kChunkBytes)
#define STTSIM_UNPOISON_CHUNK(p) ASAN_UNPOISON_MEMORY_REGION(p, kChunkBytes)
#else
#define STTSIM_POISON_CHUNK(p) static_cast<void>(p)
#define STTSIM_UNPOISON_CHUNK(p) static_cast<void>(p)
#endif

namespace sttsim::cpu {
namespace {

constexpr std::size_t kChunkBytes = kChunkOps * sizeof(DecodedOp);

/// The process-wide LIFO free list of trace chunks. A chunk comes from the
/// heap the first time it is needed and then circulates between traces for
/// the rest of the process. Under AddressSanitizer a chunk on the list is
/// poisoned, so a read through a dropped trace is still reported.
class ChunkPool {
 public:
  DecodedOp* take() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      DecodedOp* chunk = free_.back();
      free_.pop_back();
      STTSIM_UNPOISON_CHUNK(chunk);
      return chunk;
    }
    // Keep room for every chunk ever allocated, so give() never allocates.
    if (free_.capacity() == allocated_) free_.reserve(2 * allocated_ + 16);
    auto* chunk = static_cast<DecodedOp*>(::operator new(kChunkBytes));
    ++allocated_;
    return chunk;
  }

  void give(const std::vector<DecodedOp*>& chunks) noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    for (DecodedOp* chunk : chunks) {
      STTSIM_POISON_CHUNK(chunk);
      free_.push_back(chunk);
    }
  }

 private:
  std::mutex mutex_;
  std::vector<DecodedOp*> free_;
  std::size_t allocated_ = 0;
};

/// Never destroyed: a trace with static storage duration gives its chunks
/// back after every other static object may be gone.
ChunkPool& pool() {
  static ChunkPool* const instance = new ChunkPool;
  return *instance;
}

}  // namespace

DecodedTrace::DecodedTrace(const DecodedTrace& other)
    : DecodedTrace() {  // fully constructed: a throw below releases chunks
  chunks_.reserve(other.chunks_.size());
  for (std::size_t c = 0; c < other.chunk_count(); ++c) {
    const std::span<const DecodedOp> ops = other.chunk(c);
    add_chunk();
    std::copy(ops.begin(), ops.end(), chunks_.back());
  }
  size_ = other.size_;
}

DecodedTrace& DecodedTrace::operator=(const DecodedTrace& other) {
  if (this != &other) *this = DecodedTrace(other);
  return *this;
}

DecodedTrace::DecodedTrace(DecodedTrace&& other) noexcept
    : chunks_(std::exchange(other.chunks_, {})),
      size_(std::exchange(other.size_, 0)) {}

DecodedTrace& DecodedTrace::operator=(DecodedTrace&& other) noexcept {
  if (this != &other) {
    release();
    chunks_ = std::exchange(other.chunks_, {});
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

DecodedTrace::~DecodedTrace() { release(); }

void DecodedTrace::add_chunk() {
  // Reserve first: a push_back that threw would lose the chunk it was given.
  if (chunks_.size() == chunks_.capacity()) {
    chunks_.reserve(2 * chunks_.size() + 4);
  }
  chunks_.push_back(pool().take());
}

void DecodedTrace::release() noexcept {
  if (!chunks_.empty()) pool().give(chunks_);
}

DecodedTrace decode(const Trace& trace) {
  DecodedTrace out;
  for (const TraceOp& op : trace) {
    DecodedOp d;
    d.addr = op.addr;
    d.count = op.count;
    d.kind = op.kind;
    d.size = op.size;
    if (op.is_memory()) {
      d.span32 = span_of(op.addr, op.size, 5);
      d.span64 = span_of(op.addr, op.size, 6);
    }
    out.push_back(d);
  }
  return out;
}

Trace reassemble(const DecodedTrace& decoded) {
  Trace out;
  out.reserve(decoded.size());
  for (std::size_t c = 0; c < decoded.chunk_count(); ++c) {
    for (const DecodedOp& d : decoded.chunk(c)) {
      TraceOp op;
      op.kind = d.kind;
      op.size = d.size;
      op.count = d.count;
      op.addr = d.addr;
      out.push_back(op);
    }
  }
  return out;
}

namespace {

/// Whether the compact (non-escape) encoding reproduces `op` exactly under
/// the cursor's expansion rules. Anything else — zero-count exec bundles,
/// memory ops with instruction counts, spans that disagree with the
/// recomputation — takes the 17-byte escape so the round trip stays exact.
bool compact_representable(const DecodedOp& op) {
  if (op.kind == OpKind::kExec) {
    return op.addr == 0 && op.size == 0 && op.span32 == 1 && op.span64 == 1 &&
           op.count >= 1;
  }
  if (op.count != 1) return false;
  if (op.kind == OpKind::kPrefetch) return op.span32 == 1 && op.span64 == 1;
  return op.span32 == span_of(op.addr, op.size, 5) &&
         op.span64 == span_of(op.addr, op.size, 6);
}

}  // namespace

CompressedTrace compress(const DecodedTrace& decoded) {
  CompressedTrace out;
  out.op_count = decoded.size();
  // ~2 bytes/op is typical for kernel traces; over-reserving slightly beats
  // regrowing the stream.
  out.bytes.reserve(decoded.size() * 3);
  Addr prev_addr = 0;
  std::uint8_t prev_size = 0;
  for (std::size_t c = 0; c < decoded.chunk_count(); ++c) {
    for (const DecodedOp& op : decoded.chunk(c)) {
      if (!compact_representable(op)) {
        out.bytes.push_back(detail::kCompressedEscape);
        const std::size_t at = out.bytes.size();
        out.bytes.resize(at + sizeof(DecodedOp));
        std::memcpy(out.bytes.data() + at, &op, sizeof(DecodedOp));
        if (op.kind != OpKind::kExec) {
          prev_addr = op.addr;
          prev_size = op.size;
        }
        continue;
      }
      if (op.kind == OpKind::kExec) {
        if (op.count <= 63) {
          out.bytes.push_back(static_cast<std::uint8_t>((op.count - 1u) << 2));
        } else {
          out.bytes.push_back(static_cast<std::uint8_t>(63u << 2));
          detail::write_varint(out.bytes, op.count);
        }
        continue;
      }
      const std::uint64_t zz = detail::zigzag(
          static_cast<std::int64_t>(op.addr - prev_addr));
      const bool size_byte = op.size != prev_size;
      std::uint8_t tag = static_cast<std::uint8_t>(op.kind) |
                         (size_byte ? 4u : 0u);
      tag |= static_cast<std::uint8_t>((zz < 31 ? zz : 31) << 3);
      if (tag == detail::kCompressedEscape) {
        // kPrefetch + size byte + varint marker collides with the escape tag
        // (all bits set); emit the op verbatim instead. The cursor's escape
        // path updates prev_addr/prev_size the same way this branch does.
        out.bytes.push_back(detail::kCompressedEscape);
        const std::size_t at = out.bytes.size();
        out.bytes.resize(at + sizeof(DecodedOp));
        std::memcpy(out.bytes.data() + at, &op, sizeof(DecodedOp));
        prev_addr = op.addr;
        prev_size = op.size;
        continue;
      }
      out.bytes.push_back(tag);
      if (size_byte) out.bytes.push_back(op.size);
      if (zz >= 31) detail::write_varint(out.bytes, zz);
      prev_addr = op.addr;
      prev_size = op.size;
    }
  }
  return out;
}

DecodedTrace decompress(const CompressedTrace& trace) {
  DecodedTrace out;
  CompressedCursor cursor(trace);
  DecodedOp op;
  while (cursor.next(op)) out.push_back(op);
  return out;
}

namespace {

void put_u64le(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint64_t get_u64le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::vector<std::uint8_t> serialize_compressed(const CompressedTrace& trace) {
  std::vector<std::uint8_t> out(16 + trace.bytes.size());
  put_u64le(out.data(), trace.op_count);
  put_u64le(out.data() + 8, trace.bytes.size());
  if (!trace.bytes.empty()) {
    std::memcpy(out.data() + 16, trace.bytes.data(), trace.bytes.size());
  }
  return out;
}

bool deserialize_compressed(const std::uint8_t* data, std::size_t len,
                            CompressedTrace& out) {
  // Reject a blob whose recorded stream length disagrees with its byte count
  // before touching the payload (a corrupt length must not drive an
  // allocation).
  if (len < 16 || get_u64le(data + 8) != len - 16) return false;
  out.op_count = get_u64le(data);
  out.bytes.assign(data + 16, data + len);
  return true;
}

}  // namespace sttsim::cpu
