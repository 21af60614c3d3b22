#include "sttsim/cpu/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "sttsim/util/text.hpp"

namespace sttsim::cpu {
namespace {

constexpr std::uint64_t kMagic = 0x4543415254545453ULL;  // "STTTRACE"
constexpr std::uint32_t kVersionNoValue = 1;  ///< ops without store payloads
constexpr std::uint32_t kVersion = kTraceFormatVersion;

struct PackedOp {
  std::uint8_t kind;
  std::uint8_t size;
  std::uint16_t pad;
  std::uint32_t count;
  std::uint64_t addr;
};
static_assert(sizeof(PackedOp) == 16);

struct PackedOpV2 {
  PackedOp base;
  std::uint64_t value;
};
static_assert(sizeof(PackedOpV2) == 24);

template <typename T>
void put(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw TraceIoError("truncated trace stream");
  return v;
}

}  // namespace

void write_trace(std::ostream& out, const Trace& trace) {
  put(out, kMagic);
  put(out, kVersion);
  put(out, static_cast<std::uint64_t>(trace.size()));
  for (const TraceOp& op : trace) {
    PackedOpV2 p{};
    p.base.kind = static_cast<std::uint8_t>(op.kind);
    p.base.size = op.size;
    p.base.count = op.count;
    p.base.addr = op.addr;
    p.value = op.value;
    put(out, p);
  }
  if (!out) throw TraceIoError("trace write failed");
}

void write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw TraceIoError("cannot open '" + path + "' for writing");
  write_trace(out, trace);
}

Trace read_trace(std::istream& in) {
  if (get<std::uint64_t>(in) != kMagic) {
    throw TraceIoError("bad magic: not an sttsim trace");
  }
  const auto version = get<std::uint32_t>(in);
  if (version != kVersionNoValue && version != kVersion) {
    throw TraceIoError(strprintf("unsupported trace version %u", version));
  }
  // The header's op count is untrusted until the ops behind it have been
  // read: reserving it up front would let a corrupt or hostile count
  // exhaust memory instead of failing as a truncated stream.
  const auto count = get<std::uint64_t>(in);
  Trace trace;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto p = get<PackedOp>(in);
    // Version 1 traces predate store payloads; their value field reads as 0.
    const std::uint64_t value =
        version >= kVersion ? get<std::uint64_t>(in) : 0;
    if (p.kind > static_cast<std::uint8_t>(OpKind::kPrefetch)) {
      throw TraceIoError(strprintf("bad op kind %u at index %llu", p.kind,
                                   static_cast<unsigned long long>(i)));
    }
    TraceOp op;
    op.kind = static_cast<OpKind>(p.kind);
    op.size = p.size;
    op.count = p.count;
    op.addr = p.addr;
    op.value = value;
    if (op.is_memory() && op.size == 0) {
      throw TraceIoError("memory op with zero size");
    }
    if (op.kind == OpKind::kExec && op.count == 0) {
      throw TraceIoError("exec op with zero count");
    }
    trace.push_back(op);
  }
  return trace;
}

Trace read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceIoError("cannot open '" + path + "' for reading");
  return read_trace(in);
}

}  // namespace sttsim::cpu
