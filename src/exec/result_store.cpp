#include "sttsim/exec/result_store.hpp"

#include <atomic>
#include <cstring>

namespace sttsim::exec {
namespace {

// "STTRSLT1" — result-store log, format generation 1. The schema version in
// the header (not the magic) tracks payload-meaning changes.
constexpr std::uint64_t kMagic = 0x31544c5352545453ULL;

std::atomic<ResultStore*> g_store{nullptr};

}  // namespace

void set_result_store(ResultStore* store) {
  g_store.store(store, std::memory_order_release);
}

ResultStore* result_store() { return g_store.load(std::memory_order_acquire); }

ResultStore::ResultStore(std::string path, std::size_t payload_bytes)
    : AppendLog(std::move(path), "result store", kMagic, kSchemaVersion,
                static_cast<std::uint32_t>(payload_bytes), payload_bytes),
      payload_bytes_(payload_bytes) {}

bool ResultStore::lookup(std::uint64_t digest, void* out) const {
  return AppendLog::lookup(
      digest, [&](const std::uint8_t* payload, std::size_t len) {
        std::memcpy(out, payload, len);
        return true;
      });
}

}  // namespace sttsim::exec
