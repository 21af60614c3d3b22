#include "sttsim/mem/fill_buffer.hpp"

#include <algorithm>

#include "sttsim/util/check.hpp"

namespace sttsim::mem {

FillBuffer::FillBuffer(unsigned entries) {
  if (entries == 0) throw ConfigError("fill buffer must have entries");
  lines_.assign(entries, kFree);
  ready_.assign(entries, 0);
  lru_.assign(entries, 0);
}

void FillBuffer::insert(Addr line, sim::Cycle ready) {
  STTSIM_CHECK(ready != 0);
  STTSIM_CHECK(line != kFree);
  std::ptrdiff_t found = find(line);
  if (found < 0) {
    // The first free slot, else the least recently inserted entry.
    std::size_t slot = 0;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (lines_[i] == kFree) {
        slot = i;
        break;
      }
      if (lru_[i] < lru_[slot]) slot = i;
    }
    if (lines_[slot] == kFree) live_ += 1;  // LRU reuse keeps live_
    lines_[slot] = line;
    found = static_cast<std::ptrdiff_t>(slot);
  }
  ready_[static_cast<std::size_t>(found)] = ready;
  lru_[static_cast<std::size_t>(found)] = ++clock_;
}

void FillBuffer::reset() {
  std::fill(lines_.begin(), lines_.end(), kFree);
  std::fill(ready_.begin(), ready_.end(), 0);
  std::fill(lru_.begin(), lru_.end(), 0);
  clock_ = 0;
  live_ = 0;
}

}  // namespace sttsim::mem
