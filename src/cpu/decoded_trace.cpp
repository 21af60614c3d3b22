#include "sttsim/cpu/decoded_trace.hpp"

#include "sttsim/util/check.hpp"

namespace sttsim::cpu {

DecodedTrace decode(const Trace& trace) {
  DecodedTrace out;
  out.ops.reserve(trace.size());
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
    out.ops.push_back(d);
    if (op.kind == OpKind::kStore) out.store_values.push_back(op.value);
  }
  return out;
}

Trace reassemble(const DecodedTrace& decoded) {
  Trace out;
  out.reserve(decoded.ops.size());
  std::size_t store = 0;
  for (const DecodedOp& d : decoded.ops) {
    TraceOp op;
    op.kind = d.kind;
    op.size = d.size;
    op.count = d.count;
    op.addr = d.addr;
    if (d.kind == OpKind::kStore) op.value = decoded.store_values[store++];
    out.push_back(op);
  }
  return out;
}

DecodedTrace DecodedTraceBuilder::take() {
  STTSIM_CHECK(filling_);
  STTSIM_CHECK(out_.ops.size() == counts_.ops);
  STTSIM_CHECK(out_.store_values.size() == counts_.stores);
  return std::move(out_);
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
  out.op_count = decoded.ops.size();
  out.store_values = decoded.store_values;
  // ~2 bytes/op is typical for kernel traces; over-reserving slightly beats
  // regrowing the stream.
  out.bytes.reserve(decoded.ops.size() * 3);
  Addr prev_addr = 0;
  std::uint8_t prev_size = 0;
  for (const DecodedOp& op : decoded.ops) {
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
  return out;
}

DecodedTrace decompress(const CompressedTrace& trace) {
  DecodedTrace out;
  out.ops.reserve(trace.size());
  out.store_values = trace.store_values;
  CompressedCursor cursor(trace);
  DecodedOp op;
  while (cursor.next(op)) out.ops.push_back(op);
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
  std::vector<std::uint8_t> out(24 + trace.bytes.size() +
                                8 * trace.store_values.size());
  put_u64le(out.data(), trace.op_count);
  put_u64le(out.data() + 8, trace.bytes.size());
  put_u64le(out.data() + 16, trace.store_values.size());
  if (!trace.bytes.empty()) {
    std::memcpy(out.data() + 24, trace.bytes.data(), trace.bytes.size());
  }
  std::uint8_t* p = out.data() + 24 + trace.bytes.size();
  for (const std::uint64_t v : trace.store_values) {
    put_u64le(p, v);
    p += 8;
  }
  return out;
}

bool deserialize_compressed(const std::uint8_t* data, std::size_t len,
                            CompressedTrace& out) {
  if (len < 24) return false;
  const std::uint64_t op_count = get_u64le(data);
  const std::uint64_t stream_bytes = get_u64le(data + 8);
  const std::uint64_t n_values = get_u64le(data + 16);
  // Reject blobs whose recorded lengths disagree with the byte count before
  // touching the payload (a corrupt length must not drive an allocation).
  if (stream_bytes > len || n_values > len / 8 ||
      24 + stream_bytes + 8 * n_values != len) {
    return false;
  }
  out.op_count = op_count;
  out.bytes.assign(data + 24, data + 24 + stream_bytes);
  out.store_values.resize(static_cast<std::size_t>(n_values));
  const std::uint8_t* p = data + 24 + stream_bytes;
  for (std::uint64_t i = 0; i < n_values; ++i, p += 8) {
    out.store_values[static_cast<std::size_t>(i)] = get_u64le(p);
  }
  return true;
}

}  // namespace sttsim::cpu
