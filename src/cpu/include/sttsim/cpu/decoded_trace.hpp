// Decoded (replay-optimized) trace representation.
//
// A raw TraceOp is 32 bytes and leaves per-access geometry work — "how many
// cache granules does this access cover?" — to be redone inside every DL1
// organization on every replay. A grid run replays the same trace against
// dozens of configurations, so that work is hoisted into a one-time decode:
//
//  * ops are packed to 16 bytes (half the footprint, twice the ops per cache
//    line of the *host* machine while streaming the trace);
//  * the number of 32-byte and 64-byte granules each access spans — the only
//    two granularities the paper's organizations use (256-bit SRAM line,
//    512-bit STT-MRAM line / VWB sector) — is precomputed, so the replay loop
//    can take a single-granule fast path without address arithmetic;
//  * store payloads (ignored by the timing model, used only by the check::
//    data-content shadow) move to a sidecar array indexed by store ordinal.
//
// decode()/reassemble() are exact inverses for any trace whose non-store ops
// carry no payload (all generator- and fuzzer-produced traces do this), which
// tests/test_fastpath verifies.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "sttsim/cpu/trace.hpp"
#include "sttsim/util/bits.hpp"

namespace sttsim::cpu {

/// One replay-ready op. 16 bytes, trivially copyable.
struct DecodedOp {
  Addr addr = 0;
  std::uint32_t count = 1;  ///< instruction count (exec bundles)
  OpKind kind = OpKind::kExec;
  std::uint8_t size = 0;    ///< access width in bytes (loads/stores)
  std::uint8_t span32 = 1;  ///< 32-byte granules covered (memory ops)
  std::uint8_t span64 = 1;  ///< 64-byte granules covered (memory ops)
};
static_assert(sizeof(DecodedOp) == 16, "DecodedOp must stay 16 bytes packed");

/// Granules of (1 << shift) bytes covered by `op` — from the precomputed
/// spans when the granularity is one the decode anticipated, otherwise
/// computed on the fly (degenerate geometries, e.g. sub-line VWB sweeps).
inline unsigned decoded_span(const DecodedOp& op, unsigned shift) {
  if (shift == 5) return op.span32;
  if (shift == 6) return op.span64;
  const Addr mask = (Addr{1} << shift) - 1;
  return static_cast<unsigned>(((op.addr & mask) + op.size - 1) >> shift) + 1;
}

/// Granules of (1 << shift) bytes covered by a `size`-byte access at `addr`
/// (the decode-time form of decoded_span; also used when expanding
/// compressed ops, so both paths produce bit-identical spans).
inline std::uint8_t span_of(Addr addr, unsigned size, unsigned shift) {
  if (size == 0) return 1;
  const Addr mask = (Addr{1} << shift) - 1;
  return static_cast<std::uint8_t>((((addr & mask) + size - 1) >> shift) + 1);
}

struct DecodedTrace {
  std::vector<DecodedOp> ops;
  /// Store payloads in store-ordinal order (`ops` position of the i-th
  /// kStore op maps to store_values[i]).
  std::vector<std::uint64_t> store_values;

  std::size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }
};

/// Precomputes the replay-ready form of `trace`.
DecodedTrace decode(const Trace& trace);

/// Reconstructs the raw trace (inverse of decode for generator traces; the
/// fast-path tests round-trip through this).
Trace reassemble(const DecodedTrace& decoded);

/// Direct-to-decoded synthesis sink, used in two passes over one emission
/// sequence. A counting builder stores nothing and only tallies the ops and
/// store payloads it is handed; a filling builder, constructed from that
/// tally, writes every op once into arrays reserved to their exact final
/// size, so no op vector ever reallocates. Ops are packed 16-byte
/// DecodedOps — granule spans precomputed with the same span_of the decode
/// pass uses — byte-identical to decode(reassemble(·)) on the same emission
/// sequence (tests/test_simd pins this for every suite kernel × codegen).
class DecodedTraceBuilder {
 public:
  /// Exact sizes of one emission sequence: what a counting builder
  /// measures and a filling builder reserves.
  struct Counts {
    std::size_t ops = 0;
    std::size_t stores = 0;
  };

  /// A counting builder.
  DecodedTraceBuilder() = default;
  /// A filling builder for exactly `counts`.
  explicit DecodedTraceBuilder(const Counts& counts)
      : filling_(true), counts_(counts) {
    out_.ops.reserve(counts.ops);
    out_.store_values.reserve(counts.stores);
  }

  /// One bundle of `count` back-to-back non-memory instructions (count > 0).
  void exec(std::uint32_t count) {
    emit(DecodedOp{0, count, OpKind::kExec, 0, 1, 1});
  }
  void load(Addr addr, std::uint8_t size) {
    emit(DecodedOp{addr, 1, OpKind::kLoad, size, span_of(addr, size, 5),
                   span_of(addr, size, 6)});
  }
  void store(Addr addr, std::uint8_t size, std::uint64_t value = 0) {
    emit(DecodedOp{addr, 1, OpKind::kStore, size, span_of(addr, size, 5),
                   span_of(addr, size, 6)});
    if (filling_) {
      out_.store_values.push_back(value);
    } else {
      ++counts_.stores;
    }
  }
  /// Prefetch hints carry no size; spans stay 1/1 exactly as decode() leaves
  /// non-memory ops.
  void prefetch(Addr addr) {
    emit(DecodedOp{addr, 1, OpKind::kPrefetch, 0, 1, 1});
  }

  bool filling() const { return filling_; }
  /// A counting builder's tally so far; a filling builder's reservation.
  const Counts& counts() const { return counts_; }

  /// Yields the filled trace. Checks that this is a filling builder and
  /// that the fill ended exactly at the reserved sizes — an emission
  /// sequence that differed between its two passes is a generator bug.
  DecodedTrace take();

 private:
  void emit(const DecodedOp& op) {
    if (filling_) {
      out_.ops.push_back(op);
    } else {
      ++counts_.ops;
    }
  }

  bool filling_ = false;
  Counts counts_;
  DecodedTrace out_;
};

// ---- Compressed decoded traces ---------------------------------------
//
// A decoded op is 16 bytes; a figure-sweep kernel trace is a few hundred
// thousand ops. Accesses in the generated kernels are local — the next
// address is usually the previous one plus the access width (the Alif MRAM
// macro's 16 B sector granularity shows up as short strides) — so a
// delta/RLE byte stream shrinks a trace to ~2 bytes per op. That is the
// persistent trace store's on-disk form (exec::TraceStore); in memory the
// experiment engine keeps only the decoded trace. The batched replay engine
// can also stream this form directly (System::run_batch's CompressedTrace
// overload).
//
// Format (one op at a time; `prev_addr`/`prev_size` carried across ops):
//   tag & 3 == kind:
//     kExec      tag[2:7] = count-1 (0..62), or 63 + LEB128 count
//     kLoad/kStore/kPrefetch
//                tag[2]   = explicit size byte follows (size != prev_size)
//                tag[3:7] = zigzag(addr - prev_addr) if < 31,
//                           else 31 + LEB128 zigzag delta
//   tag == 0xFF: escape — the raw 16-byte DecodedOp follows verbatim
//                (degenerate ops whose fields the compact form cannot carry;
//                 never produced by decode() on generator traces).
// Spans are recomputed on expansion (bit-identical to decode(): memory ops
// get span_of, exec/prefetch keep 1/1); ops that would not round-trip take
// the escape, so compress()/decompress() are exact inverses for ANY input.
struct CompressedTrace {
  std::vector<std::uint8_t> bytes;          ///< delta/RLE op stream
  std::vector<std::uint64_t> store_values;  ///< sidecar, store-ordinal order
  std::uint64_t op_count = 0;

  std::size_t size() const { return static_cast<std::size_t>(op_count); }
  bool empty() const { return op_count == 0; }
  /// Footprint of the equivalent DecodedTrace op array (ratio reporting).
  std::size_t decoded_bytes() const {
    return static_cast<std::size_t>(op_count) * sizeof(DecodedOp);
  }
};

namespace detail {

/// Tag byte announcing a verbatim 16-byte DecodedOp.
inline constexpr std::uint8_t kCompressedEscape = 0xFF;

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// LEB128. The writer appends to a byte vector; the reader advances `p`
/// (streams are produced by compress(), so a well-formed varint is a
/// structural invariant, not an input to validate per op).
inline void write_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}
inline std::uint64_t read_varint(const std::uint8_t*& p) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) return v;
    shift += 7;
  }
}

}  // namespace detail

/// Streaming expansion of one CompressedTrace: `next()` produces ops in
/// order without materializing the 16-byte-per-op array (decompress() and
/// the batched replay engine's compressed-trace overload iterate it).
class CompressedCursor {
 public:
  explicit CompressedCursor(const CompressedTrace& trace)
      : p_(trace.bytes.data()), end_(p_ + trace.bytes.size()) {}

  /// Expands the next op into `op`; returns false at end of stream.
  bool next(DecodedOp& op) {
    if (p_ == end_) return false;
    const std::uint8_t tag = *p_++;
    if (tag == detail::kCompressedEscape) {
      std::memcpy(&op, p_, sizeof(DecodedOp));
      p_ += sizeof(DecodedOp);
      if (op.kind != OpKind::kExec) {
        prev_addr_ = op.addr;
        prev_size_ = op.size;
      }
      return true;
    }
    const OpKind kind = static_cast<OpKind>(tag & 3u);
    if (kind == OpKind::kExec) {
      const std::uint32_t inline_count = tag >> 2;
      op.addr = 0;
      op.count =
          inline_count < 63u
              ? inline_count + 1u
              : static_cast<std::uint32_t>(detail::read_varint(p_));
      op.kind = OpKind::kExec;
      op.size = 0;
      op.span32 = 1;
      op.span64 = 1;
      return true;
    }
    if (tag & 4u) prev_size_ = *p_++;
    std::uint64_t zz = tag >> 3;
    if (zz == 31u) zz = detail::read_varint(p_);
    prev_addr_ += detail::unzigzag(zz);
    op.addr = prev_addr_;
    op.count = 1;
    op.kind = kind;
    op.size = prev_size_;
    const bool mem = kind != OpKind::kPrefetch;
    op.span32 = mem ? span_of(prev_addr_, prev_size_, 5) : std::uint8_t{1};
    op.span64 = mem ? span_of(prev_addr_, prev_size_, 6) : std::uint8_t{1};
    return true;
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  Addr prev_addr_ = 0;
  std::uint8_t prev_size_ = 0;
};

/// Delta/RLE-compresses a decoded trace. Exact inverse under decompress()
/// for any input (ops the compact form cannot represent are escaped).
CompressedTrace compress(const DecodedTrace& decoded);

/// Rebuilds the full decoded form (exact inverse of compress()).
DecodedTrace decompress(const CompressedTrace& trace);

// ---- Compressed-trace blob (de)serialization -------------------------
//
// The persistent trace store (exec::TraceStore) holds CompressedTrace
// payloads as opaque byte blobs; these two functions define the blob layout
// (all fields little-endian):
//   [op_count u64][stream_bytes u64][store_values u64][stream...][values...]
// The layout changes whenever the compressed-stream format does, which is
// exactly what kTraceFormatVersion tracks — the store key folds it in, so a
// format bump makes every old blob unreachable rather than misread.

/// Serializes `trace` into a self-contained byte blob.
std::vector<std::uint8_t> serialize_compressed(const CompressedTrace& trace);

/// Parses a blob produced by serialize_compressed. Returns false (leaving
/// `out` unspecified) when the blob is malformed — truncated, inconsistent
/// lengths — so a corrupt store record degrades to a cache miss.
bool deserialize_compressed(const std::uint8_t* data, std::size_t len,
                            CompressedTrace& out);

}  // namespace sttsim::cpu
