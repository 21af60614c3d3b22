#include "sttsim/core/vwb.hpp"

#include <algorithm>

#include "sttsim/util/check.hpp"

namespace sttsim::core {

void VwbGeometry::validate() const {
  if (num_lines == 0) throw ConfigError("VWB must have at least one line");
  if (!is_pow2(line_bytes) || !is_pow2(sector_bytes)) {
    throw ConfigError("VWB line/sector sizes must be powers of two");
  }
  if (line_bytes < sector_bytes) {
    throw ConfigError("VWB line must be at least one sector wide");
  }
}

VeryWideBuffer::VeryWideBuffer(const VwbGeometry& geometry) : geom_(geometry) {
  geom_.validate();
  sector_shift_ = log2_exact(geom_.sector_bytes);
  spl_ = geom_.sectors_per_line();
  bases_.assign(geom_.num_lines, kNoBase);
  lru_.assign(geom_.num_lines, 0);
  sectors_.resize(static_cast<std::size_t>(geom_.num_lines) * spl_);
}

void VeryWideBuffer::mark_dirty(Addr addr) {
  const std::ptrdiff_t li = find_line_index(addr);
  STTSIM_CHECK(li >= 0);
  Sector& s = sector_at(li, addr);
  STTSIM_CHECK(s.valid);
  s.dirty = true;
  lru_[static_cast<std::size_t>(li)] = ++lru_clock_;
}

bool VeryWideBuffer::invalidate_sector(Addr addr) {
  const std::ptrdiff_t li = find_line_index(addr);
  if (li < 0) return false;
  Sector& s = sector_at(li, addr);
  if (!s.valid) return false;
  const bool was_dirty = s.dirty;
  s = Sector{};
  return was_dirty;
}

bool VeryWideBuffer::slot_maps(unsigned slot, Addr addr) const {
  STTSIM_CHECK(slot < bases_.size());
  return bases_[slot] == vline_addr(addr);
}

unsigned VeryWideBuffer::resident_sectors() const {
  unsigned n = 0;
  for (std::size_t li = 0; li < bases_.size(); ++li) {
    if (bases_[li] == kNoBase) continue;
    const Sector* sectors = sectors_.data() + li * spl_;
    for (unsigned i = 0; i < spl_; ++i) n += sectors[i].valid ? 1 : 0;
  }
  return n;
}

void VeryWideBuffer::reset() {
  std::fill(bases_.begin(), bases_.end(), kNoBase);
  std::fill(lru_.begin(), lru_.end(), 0);
  for (Sector& s : sectors_) s = Sector{};
  lru_clock_ = 0;
}

}  // namespace sttsim::core
