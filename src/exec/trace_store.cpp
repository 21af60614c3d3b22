#include "sttsim/exec/trace_store.hpp"

#include <atomic>

namespace sttsim::exec {
namespace {

// "STTTRCS1" — trace-store log, format generation 1.
constexpr std::uint64_t kMagic = 0x3153435254545453ULL;

std::atomic<TraceStore*> g_trace_store{nullptr};

}  // namespace

void set_trace_store(TraceStore* store) {
  g_trace_store.store(store, std::memory_order_release);
}

TraceStore* trace_store() {
  return g_trace_store.load(std::memory_order_acquire);
}

TraceStore::TraceStore(std::string path, std::uint32_t content_version)
    : AppendLog(std::move(path), "trace store", kMagic, kSchemaVersion,
                content_version, 0) {}

bool TraceStore::lookup(std::uint64_t digest,
                        std::vector<std::uint8_t>& out) const {
  return AppendLog::lookup(
      digest, [&](const std::uint8_t* payload, std::size_t len) {
        out.assign(payload, payload + len);
        return true;
      });
}

}  // namespace sttsim::exec
