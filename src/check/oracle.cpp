#include "sttsim/check/oracle.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sttsim/util/check.hpp"

namespace sttsim::check {
namespace {

using sim::Cycle;
using sim::Cycles;
using Bytes = std::vector<std::uint8_t>;

/// Byte `offset` of a store payload: the 64-bit value repeats every 8 bytes
/// (wide vector stores replicate the payload; see cpu::TraceOp::value).
std::uint8_t payload_byte(std::uint64_t value, std::uint64_t offset) {
  return static_cast<std::uint8_t>(value >> (8 * (offset % 8)));
}

// ---------------------------------------------------------------------------
// Content ledger: the last bytes written at one level of the hierarchy, in
// 4 KiB pages keyed by page number. Whether a line is *resident* at a level
// is tracked by the functional structures below; the ledger bytes of a
// resident line are always fresh because every fill overwrites its span. A
// page is created zero-filled on its first write, and an absent page reads
// as zero, so unwritten addresses read as zero, the architectural initial
// value. Every ledger operation works on a span, one page run at a time.
class ByteMap {
 public:
  static constexpr std::uint64_t kPageBytes = 4096;
  using Page = std::array<std::uint8_t, kPageBytes>;

  /// Page `number`, or nullptr when none of its bytes was ever written.
  Page* find(Addr number) {
    auto it = pages_.find(number);
    return it == pages_.end() ? nullptr : &it->second;
  }
  const Page* find(Addr number) const {
    return const_cast<ByteMap*>(this)->find(number);
  }
  /// Page `number`, created zero-filled on first use.
  Page& page(Addr number) { return pages_[number]; }

 private:
  std::unordered_map<Addr, Page> pages_;
};

/// Splits [base, base + n) at page boundaries and calls
/// f(page number, offset in the page, run length, offset in the span).
template <typename F>
void for_each_run(Addr base, std::uint64_t n, F f) {
  for (std::uint64_t done = 0; done < n;) {
    const std::uint64_t off = (base + done) % ByteMap::kPageBytes;
    const std::uint64_t len = std::min(n - done, ByteMap::kPageBytes - off);
    f((base + done) / ByteMap::kPageBytes, off, len, done);
    done += len;
  }
}

void read_span(const ByteMap& src, Addr base, std::uint64_t n,
               std::uint8_t* out) {
  for_each_run(base, n, [&](Addr page, std::uint64_t off, std::uint64_t len,
                            std::uint64_t done) {
    const ByteMap::Page* p = src.find(page);
    if (p == nullptr) {
      std::fill_n(out + done, len, 0);
    } else {
      std::copy_n(p->data() + off, len, out + done);
    }
  });
}

void write_span(ByteMap& dst, Addr base, std::uint64_t n,
                const std::uint8_t* in) {
  for_each_run(base, n, [&](Addr page, std::uint64_t off, std::uint64_t len,
                            std::uint64_t done) {
    std::copy_n(in + done, len, dst.page(page).data() + off);
  });
}

void copy_span(ByteMap& dst, const ByteMap& src, Addr base, std::uint64_t n) {
  for_each_run(base, n, [&](Addr page, std::uint64_t off, std::uint64_t len,
                            std::uint64_t) {
    if (const ByteMap::Page* p = src.find(page)) {
      std::copy_n(p->data() + off, len, dst.page(page).data() + off);
    } else if (ByteMap::Page* d = dst.find(page)) {
      std::fill_n(d->data() + off, len, 0);
    }  // else zeros over an absent page: it reads zero already
  });
}

/// Writes the store payload bytes `phase`, `phase + 1`, ... over
/// [base, base + n).
void payload_span(ByteMap& dst, Addr base, std::uint64_t n,
                  std::uint64_t value, std::uint64_t phase) {
  for_each_run(base, n, [&](Addr page, std::uint64_t off, std::uint64_t len,
                            std::uint64_t done) {
    std::uint8_t* d = dst.page(page).data() + off;
    for (std::uint64_t i = 0; i < len; ++i) {
      d[i] = payload_byte(value, phase + done + i);
    }
  });
}

// ---------------------------------------------------------------------------
// Busy-until timelines, re-derived from DESIGN.md (not sim::ResourceTimeline).
struct RefGrant {
  Cycle start = 0;
  Cycle done = 0;
};

class RefTimeline {
 public:
  RefGrant acquire(Cycle earliest, Cycles duration) {
    RefGrant g;
    g.start = std::max(earliest, busy_until_);
    g.done = g.start + duration;
    busy_until_ = g.done;
    return g;
  }
  Cycle free_at() const { return busy_until_; }

 private:
  Cycle busy_until_ = 0;
};

class RefBanks {
 public:
  RefBanks(unsigned num_banks, std::uint64_t line_bytes)
      : line_bytes_(line_bytes), banks_(num_banks) {}
  RefGrant acquire(Addr addr, Cycle earliest, Cycles duration) {
    return banks_[bank_of(addr)].acquire(earliest, duration);
  }
  Cycle free_at(Addr addr) const { return banks_[bank_of(addr)].free_at(); }

 private:
  unsigned bank_of(Addr addr) const {
    return static_cast<unsigned>((addr / line_bytes_) % banks_.size());
  }
  std::uint64_t line_bytes_;
  std::vector<RefTimeline> banks_;
};

// Bounded in-flight buffer (store buffer / writeback buffer): entries retire
// at their completion cycle; a full buffer delays acceptance until the
// earliest in-flight entry retires.
class RefFifo {
 public:
  explicit RefFifo(unsigned depth) : depth_(depth) {}
  Cycle accept(Cycle now) {
    drain(now);
    if (in_flight_.size() < depth_) return now;
    const Cycle available = *in_flight_.begin();
    drain(available);
    return available;
  }
  void commit(Cycle done) { in_flight_.insert(done); }

 private:
  void drain(Cycle now) {
    while (!in_flight_.empty() && *in_flight_.begin() <= now) {
      in_flight_.erase(in_flight_.begin());
    }
  }
  unsigned depth_;
  std::multiset<Cycle> in_flight_;
};

// Miss Status Holding Registers: lines with an outstanding fill. An entry
// expires when its fill completes; releasing an evicted line's entry keeps
// the "entry valid => line resident" invariant.
class RefMshr {
 public:
  explicit RefMshr(unsigned entries) : slots_(entries) {}
  Cycle lookup(Addr line, Cycle now) const {
    for (const Slot& s : slots_) {
      if (s.done > now && s.line == line) return s.done;
    }
    return 0;
  }
  Cycle allocate(Addr line, Cycle now, Cycle done) {
    for (Slot& s : slots_) {
      if (s.done <= now) {
        s.line = line;
        s.done = done;
        return done;
      }
    }
    // Full: the fill slips by the wait for the earliest completion.
    Slot* earliest = &slots_[0];
    for (Slot& s : slots_) {
      if (s.done < earliest->done) earliest = &s;
    }
    const Cycles extra = earliest->done - now;
    earliest->line = line;
    earliest->done = done + extra;
    return earliest->done;
  }
  void release(Addr line) {
    for (Slot& s : slots_) {
      if (s.line == line) s.done = 0;
    }
  }
  unsigned occupancy(Cycle now) const {
    unsigned n = 0;
    for (const Slot& s : slots_) n += s.done > now ? 1 : 0;
    return n;
  }
  unsigned capacity() const { return static_cast<unsigned>(slots_.size()); }

 private:
  struct Slot {
    Addr line = 0;
    Cycle done = 0;  // 0 = free
  };
  std::vector<Slot> slots_;
};

// MSHR fill registers: prefetched lines parked, with their data, until a
// demand access consumes them. True-LRU displacement when full.
class RefFillRegs {
 public:
  explicit RefFillRegs(unsigned entries) : capacity_(entries) {}

  void insert(Addr line, Cycle ready, Bytes data) {
    auto it = slots_.find(line);
    if (it == slots_.end()) {
      if (slots_.size() >= capacity_) {
        auto victim = slots_.begin();
        for (auto i = slots_.begin(); i != slots_.end(); ++i) {
          if (i->second.stamp < victim->second.stamp) victim = i;
        }
        slots_.erase(victim);
      }
      it = slots_.emplace(line, Slot{}).first;
    }
    it->second.ready = ready;
    it->second.stamp = ++clock_;
    it->second.data = std::move(data);
  }
  std::optional<Cycle> lookup(Addr line) const {
    auto it = slots_.find(line);
    if (it == slots_.end()) return std::nullopt;
    return it->second.ready;
  }
  struct Taken {
    Cycle ready = 0;
    Bytes data;
  };
  std::optional<Taken> consume(Addr line) {
    auto it = slots_.find(line);
    if (it == slots_.end()) return std::nullopt;
    Taken t{it->second.ready, std::move(it->second.data)};
    slots_.erase(it);
    return t;
  }
  void invalidate(Addr line) { slots_.erase(line); }

 private:
  struct Slot {
    Cycle ready = 0;
    std::uint64_t stamp = 0;
    Bytes data;
  };
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::map<Addr, Slot> slots_;
};

// Fully-associative sectored buffer (the VWB, and the narrow front with one
// sector per line): lines identified by their base address, per-sector
// valid/dirty/ready state, true-LRU line replacement.
class RefSectorBuffer {
 public:
  RefSectorBuffer(unsigned num_lines, std::uint64_t line_bytes,
                  std::uint64_t sector_bytes)
      : num_lines_(num_lines),
        line_bytes_(line_bytes),
        sector_bytes_(sector_bytes),
        sectors_per_line_(static_cast<unsigned>(line_bytes / sector_bytes)) {}

  struct Hit {
    bool hit = false;
    Cycle ready = 0;
  };

  /// Bumps LRU on a full (sector-valid) hit — a real access, not a probe.
  Hit lookup(Addr addr) {
    Line* l = find(addr);
    if (l == nullptr) return {};
    Sector& s = l->sectors[index(addr)];
    if (!s.valid) return {};
    l->stamp = ++clock_;
    return {true, s.ready};
  }
  Hit probe(Addr addr) const {
    const Line* l = find(addr);
    if (l == nullptr) return {};
    const Sector& s = l->sectors[index(addr)];
    if (!s.valid) return {};
    return {true, s.ready};
  }
  void mark_dirty(Addr addr) {
    Line* l = find(addr);
    if (l == nullptr) return;
    l->sectors[index(addr)].dirty = true;
    l->stamp = ++clock_;
  }

  /// Allocates (or reuses) the line for `addr`; returns the addresses of
  /// dirty sectors evicted to make room (the caller retires their data).
  std::vector<Addr> allocate_line(Addr addr) {
    std::vector<Addr> dirty;
    const Addr base = align_down(addr, line_bytes_);
    auto it = lines_.find(base);
    if (it == lines_.end()) {
      if (lines_.size() >= num_lines_) {
        auto victim = lines_.begin();
        for (auto i = lines_.begin(); i != lines_.end(); ++i) {
          if (i->second.stamp < victim->second.stamp) victim = i;
        }
        for (unsigned i = 0; i < sectors_per_line_; ++i) {
          const Sector& s = victim->second.sectors[i];
          if (s.valid && s.dirty) {
            dirty.push_back(victim->first + i * sector_bytes_);
          }
        }
        lines_.erase(victim);
      }
      it = lines_.emplace(base, Line{}).first;
      it->second.sectors.resize(sectors_per_line_);
    }
    it->second.stamp = ++clock_;
    return dirty;
  }

  /// Installs the sector containing `addr` (line must be allocated).
  void fill_sector(Addr addr, Cycle ready) {
    Line* l = find(addr);
    if (l == nullptr) return;
    l->sectors[index(addr)] = Sector{true, false, ready};
  }

  /// Returns true iff the sector was resident and dirty.
  bool invalidate_sector(Addr addr) {
    Line* l = find(addr);
    if (l == nullptr) return false;
    Sector& s = l->sectors[index(addr)];
    if (!s.valid) return false;
    const bool was_dirty = s.dirty;
    s = Sector{};
    return was_dirty;
  }

 private:
  struct Sector {
    bool valid = false;
    bool dirty = false;
    Cycle ready = 0;
  };
  struct Line {
    std::uint64_t stamp = 0;
    std::vector<Sector> sectors;
  };
  Line* find(Addr addr) {
    auto it = lines_.find(align_down(addr, line_bytes_));
    return it == lines_.end() ? nullptr : &it->second;
  }
  const Line* find(Addr addr) const {
    return const_cast<RefSectorBuffer*>(this)->find(addr);
  }
  unsigned index(Addr addr) const {
    return static_cast<unsigned>((addr % line_bytes_) / sector_bytes_);
  }
  std::size_t num_lines_;
  std::uint64_t line_bytes_;
  std::uint64_t sector_bytes_;
  unsigned sectors_per_line_;
  std::uint64_t clock_ = 0;
  std::map<Addr, Line> lines_;
};

// Set-associative array with true-LRU replacement (global stamp clock, as in
// the production model): a set holds at most `assoc` lines; filling a full
// set evicts the least-recently-stamped line.
class RefArray {
 public:
  RefArray(std::uint64_t num_sets, unsigned assoc, std::uint64_t line_bytes)
      : num_sets_(num_sets),
        assoc_(assoc),
        line_bytes_(line_bytes),
        sets_(num_sets) {}

  bool present(Addr addr) const {
    const Set& set = set_for(addr);
    return set.count(align_down(addr, line_bytes_)) != 0;
  }
  bool touch(Addr addr, bool is_write) {
    Set& set = set_for(addr);
    auto it = set.find(align_down(addr, line_bytes_));
    if (it == set.end()) return false;
    it->second.stamp = ++clock_;
    if (is_write) it->second.dirty = true;
    return true;
  }
  void mark_dirty(Addr addr) {
    Set& set = set_for(addr);
    auto it = set.find(align_down(addr, line_bytes_));
    if (it != set.end()) it->second.dirty = true;  // no LRU bump
  }
  struct Victim {
    bool valid = false;
    bool dirty = false;
    Addr addr = 0;
  };
  Victim fill(Addr addr, bool dirty) {
    Set& set = set_for(addr);
    const Addr line = align_down(addr, line_bytes_);
    Victim v;
    if (set.size() >= assoc_) {
      auto victim = set.begin();
      for (auto it = set.begin(); it != set.end(); ++it) {
        if (it->second.stamp < victim->second.stamp) victim = it;
      }
      v.valid = true;
      v.dirty = victim->second.dirty;
      v.addr = victim->first;
      set.erase(victim);
    }
    set[line] = Way{dirty, ++clock_};
    return v;
  }

 private:
  struct Way {
    bool dirty = false;
    std::uint64_t stamp = 0;
  };
  using Set = std::map<Addr, Way>;
  Set& set_for(Addr addr) {
    return sets_[(addr / line_bytes_) % num_sets_];
  }
  const Set& set_for(Addr addr) const {
    return sets_[(addr / line_bytes_) % num_sets_];
  }
  std::uint64_t num_sets_;
  std::size_t assoc_;
  std::uint64_t line_bytes_;
  std::vector<Set> sets_;
  std::uint64_t clock_ = 0;
};

// Unified L2 + fixed-latency main memory, with contents. Dirty L2 victims
// spill to memory in the background; L1 writebacks merge (write-allocate).
class RefL2 {
 public:
  explicit RefL2(const mem::L2Config& cfg)
      : line_bytes_(cfg.line_bytes),
        hit_latency_(cfg.hit_latency),
        port_occupancy_(cfg.port_occupancy),
        memory_latency_(cfg.memory_latency),
        array_(cfg.capacity_bytes / cfg.line_bytes / cfg.associativity,
               cfg.associativity, cfg.line_bytes) {}

  std::uint64_t line_bytes() const { return line_bytes_; }
  const ByteMap& bytes() const { return bytes_; }

  Cycle fetch_line(Addr addr, Cycle earliest, sim::MemStats& stats) {
    const Addr line = align_down(addr, line_bytes_);
    const RefGrant port = port_.acquire(earliest, port_occupancy_);
    stats.l2_array_reads += 1;
    if (array_.touch(line, /*is_write=*/false)) {
      stats.l2_hits += 1;
      return port.start + hit_latency_;
    }
    stats.l2_misses += 1;
    const RefGrant mem =
        memory_channel_.acquire(port.start + hit_latency_, memory_latency_);
    const RefArray::Victim v = array_.fill(line, /*dirty=*/false);
    if (v.valid && v.dirty) {
      copy_span(memory_, bytes_, v.addr, line_bytes_);
      memory_channel_.acquire(mem.done, memory_latency_);
    }
    copy_span(bytes_, memory_, line, line_bytes_);
    stats.l2_array_writes += 1;
    return mem.done;
  }

  /// Accepts `nbytes` starting at `addr` (an L1 line, possibly narrower than
  /// the L2 line) read out of `src`.
  Cycle accept_writeback(Addr addr, std::uint64_t nbytes, const ByteMap& src,
                         Cycle earliest, sim::MemStats& stats) {
    const Addr line = align_down(addr, line_bytes_);
    const RefGrant port = port_.acquire(earliest, port_occupancy_);
    stats.l2_array_writes += 1;
    if (array_.touch(line, /*is_write=*/true)) {
      stats.l2_hits += 1;
      copy_span(bytes_, src, addr, nbytes);
      return port.start + hit_latency_;
    }
    stats.l2_misses += 1;
    const RefGrant mem =
        memory_channel_.acquire(port.start + hit_latency_, memory_latency_);
    const RefArray::Victim v = array_.fill(line, /*dirty=*/true);
    if (v.valid && v.dirty) {
      copy_span(memory_, bytes_, v.addr, line_bytes_);
      memory_channel_.acquire(mem.done, memory_latency_);
    }
    copy_span(bytes_, memory_, line, line_bytes_);  // write-allocate pull
    copy_span(bytes_, src, addr, nbytes);           // merge the writeback
    return mem.done;
  }

 private:
  std::uint64_t line_bytes_;
  Cycles hit_latency_;
  Cycles port_occupancy_;
  Cycles memory_latency_;
  RefArray array_;
  RefTimeline port_;
  RefTimeline memory_channel_;
  ByteMap bytes_;
  ByteMap memory_;
};

constexpr std::size_t kMaxShadowViolations = 8;

// Shared plumbing: the architectural byte image (ground truth written by
// every store) and the shadow comparison against whatever level served.
class OracleBase : public ReferenceDl1 {
 protected:
  void record(Addr a, std::uint8_t expected, std::uint8_t observed,
              const char* level) {
    if (shadow_violations_.size() >= kMaxShadowViolations) return;
    shadow_violations_.push_back(ShadowViolation{a, expected, observed, level});
  }
  /// Compares the load span [addr, addr + size) of `level_bytes` with the
  /// architectural image, recording mismatches in address order.
  void check_bytes(Addr addr, unsigned size, const ByteMap& level_bytes,
                   const char* level) {
    for_each_run(addr, size, [&](Addr page, std::uint64_t off,
                                 std::uint64_t len, std::uint64_t done) {
      const ByteMap::Page* want = arch_.find(page);
      const ByteMap::Page* got = level_bytes.find(page);
      for (std::uint64_t i = 0; i < len; ++i) {
        const std::uint8_t expected = want == nullptr ? 0 : (*want)[off + i];
        const std::uint8_t observed = got == nullptr ? 0 : (*got)[off + i];
        if (expected != observed) {
          record(addr + done + i, expected, observed, level);
        }
      }
    });
  }
  void arch_store(Addr addr, unsigned size, std::uint64_t value) {
    payload_span(arch_, addr, size, value, 0);
  }
  /// Writes the overlap of the store [addr, addr+size) with the level
  /// segment [seg_lo, seg_hi) into `dst`.
  static void store_overlap(ByteMap& dst, Addr seg_lo, Addr seg_hi, Addr addr,
                            unsigned size, std::uint64_t value) {
    const Addr lo = std::max(seg_lo, addr);
    const Addr hi = std::min<Addr>(seg_hi, addr + size);
    if (lo < hi) payload_span(dst, lo, hi - lo, value, lo - addr);
  }

  ByteMap arch_;
};

std::uint64_t num_sets_of(const core::Dl1Config& dl1) {
  return dl1.geometry.capacity_bytes / dl1.geometry.line_bytes /
         dl1.geometry.associativity;
}

// ---------------------------------------------------------------------------
// The SRAM baseline / NVM drop-in organization: a plain set-associative DL1
// behind a store buffer, with prefetch fill registers.
class PlainOracle final : public OracleBase {
 public:
  PlainOracle(const core::Dl1Config& dl1, const mem::L2Config& l2)
      : lb_(dl1.geometry.line_bytes),
        tag_(dl1.timing.tag_cycles),
        read_(dl1.timing.read_cycles),
        write_(dl1.timing.write_cycles),
        array_(num_sets_of(dl1), dl1.geometry.associativity, lb_),
        banks_(dl1.timing.banks, lb_),
        fills_(8),  // the production system's fixed prefetch-register count
        store_buffer_(dl1.store_buffer_depth),
        writeback_buffer_(dl1.writeback_buffer_depth),
        l2_(l2) {}

  Cycle load(Addr addr, unsigned size, Cycle now) override {
    stats_.loads += 1;
    const Addr first = align_down(addr, lb_);
    const Addr last = align_down(addr + size - 1, lb_);
    Cycle ready = load_line(addr, now);
    for (Addr line = first + lb_; line <= last; line += lb_) {
      ready = std::max(ready, load_line(line, now + 1));
    }
    check_bytes(addr, size, dl1_bytes_, "dl1");
    return ready;
  }

  Cycle store(Addr addr, unsigned size, std::uint64_t value,
              Cycle now) override {
    stats_.stores += 1;
    arch_store(addr, size, value);
    const Addr first = align_down(addr, lb_);
    const Addr last = align_down(addr + size - 1, lb_);
    Cycle accepted = now;
    for (Addr line = first; line <= last; line += lb_) {
      const Cycle slot = store_buffer_.accept(accepted);
      const Cycle done = drain_store(line, slot);
      store_buffer_.commit(done);
      store_overlap(dl1_bytes_, line, line + lb_, addr, size, value);
      accepted = std::max(accepted, slot);
    }
    return std::max(accepted, now + 1);
  }

  void prefetch(Addr addr, Cycle now) override {
    stats_.prefetches += 1;
    const Addr line = align_down(addr, lb_);
    if (array_.present(line)) return;
    if (fills_.lookup(line)) return;
    const Cycle data = l2_.fetch_line(line, now + 1 + tag_, stats_);
    fill_l2_span(line, data);
    const Addr span = align_down(line, l2_.line_bytes());
    for (Addr l = span; l < span + l2_.line_bytes(); l += lb_) {
      fills_.insert(l, data, {});
    }
  }

 private:
  Cycle load_line(Addr addr, Cycle now) {
    const Addr line = align_down(addr, lb_);
    const Cycle tag_done = now + tag_;
    if (array_.touch(line, /*is_write=*/false)) {
      stats_.l1_read_hits += 1;
      Cycle pending = 0;
      if (auto taken = fills_.consume(line)) pending = taken->ready;
      const RefGrant g = banks_.acquire(line, now, read_);
      stats_.l1_array_reads += 1;
      stats_.bank_conflict_cycles += g.start - now;
      return std::max({g.done, tag_done, pending});
    }
    stats_.l1_misses += 1;
    const Cycle data = l2_.fetch_line(line, tag_done, stats_);
    fill_l2_span(line, data);
    return data;
  }

  void fill_l2_span(Addr line, Cycle data) {
    const std::uint64_t span = l2_.line_bytes();
    const Addr base = align_down(line, span);
    for (Addr l = base; l < base + span; l += lb_) {
      if (array_.present(l)) continue;
      const RefArray::Victim v = array_.fill(l, /*dirty=*/false);
      retire_victim(v, data);
      copy_span(dl1_bytes_, l2_.bytes(), l, lb_);
      stats_.l1_array_writes += 1;
    }
  }

  void retire_victim(const RefArray::Victim& v, Cycle now) {
    if (!v.valid || !v.dirty) return;
    const Cycle slot = writeback_buffer_.accept(now);
    stats_.l1_array_reads += 1;
    const Cycle done =
        l2_.accept_writeback(v.addr, lb_, dl1_bytes_, slot + read_, stats_);
    writeback_buffer_.commit(done);
    stats_.l1_writebacks += 1;
  }

  Cycle drain_store(Addr addr, Cycle start) {
    const Addr line = align_down(addr, lb_);
    const Cycle tag_done = start + tag_;
    if (array_.touch(line, /*is_write=*/true)) {
      stats_.l1_write_hits += 1;
      Cycle pending = 0;
      if (auto taken = fills_.consume(line)) pending = taken->ready;
      const Cycle earliest = std::max(tag_done, pending);
      const RefGrant g = banks_.acquire(line, earliest, write_);
      stats_.l1_array_writes += 1;
      stats_.bank_conflict_cycles += g.start - earliest;
      return g.done;
    }
    stats_.l1_misses += 1;
    const Cycle data = l2_.fetch_line(line, tag_done, stats_);
    fill_l2_span(line, data);
    array_.mark_dirty(line);
    return data + write_;
  }

  std::uint64_t lb_;
  Cycles tag_, read_, write_;
  RefArray array_;
  RefBanks banks_;
  RefFillRegs fills_;
  RefFifo store_buffer_;
  RefFifo writeback_buffer_;
  RefL2 l2_;
  ByteMap dl1_bytes_;
};

// ---------------------------------------------------------------------------
// The VWB organization: NVM array fronted by a sectored very-wide buffer.
class VwbOracle final : public OracleBase {
 public:
  VwbOracle(const core::Dl1Config& dl1, const core::VwbGeometry& vwb,
            unsigned mshr_entries, const mem::L2Config& l2,
            const OracleFaults& faults)
      : lb_(dl1.geometry.line_bytes),
        sector_(vwb.sector_bytes),
        vline_(vwb.line_bytes),
        tag_(dl1.timing.tag_cycles),
        read_(dl1.timing.read_cycles),
        write_(dl1.timing.write_cycles),
        faults_(faults),
        array_(num_sets_of(dl1), dl1.geometry.associativity, lb_),
        vwb_(vwb.num_lines, vwb.line_bytes, vwb.sector_bytes),
        banks_(dl1.timing.banks, lb_),
        fills_(mshr_entries),
        store_buffer_(dl1.store_buffer_depth),
        writeback_buffer_(dl1.writeback_buffer_depth),
        l2_(l2) {}

  Cycle load(Addr addr, unsigned size, Cycle now) override {
    stats_.loads += 1;
    const Addr first = align_down(addr, sector_);
    const Addr last = align_down(addr + size - 1, sector_);
    Cycle ready = load_sector(addr, now);
    for (Addr s = first + sector_; s <= last; s += sector_) {
      ready = std::max(ready, load_sector(s, now + 1));
    }
    check_bytes(addr, size, front_bytes_, "vwb");
    return ready;
  }

  Cycle store(Addr addr, unsigned size, std::uint64_t value,
              Cycle now) override {
    stats_.stores += 1;
    arch_store(addr, size, value);
    const Addr first = align_down(addr, sector_);
    const Addr last = align_down(addr + size - 1, sector_);
    Cycle accepted = now + 1;
    for (Addr s = first; s <= last; s += sector_) {
      if (vwb_.probe(s).hit) {
        // Absorbed by the VWB; any fill-register copy becomes stale. The
        // simulator has no such invalidate: a VWB-held sector has no
        // fill-register copy (a prefetch of it returns early, a promotion
        // consumes the register, the ride-along skips staged sectors). If
        // a change ever breaks that, the simulator keeps a stale copy
        // this model drops, and the campaigns diverge.
        if (!faults_.skip_fill_register_invalidate_on_store) {
          fills_.invalidate(s);
        }
        vwb_.mark_dirty(s);
        stats_.front_store_hits += 1;
        store_overlap(front_bytes_, s, s + sector_, addr, size, value);
        continue;
      }
      // Direct NVM-array update through the store buffer.
      Cycle pending = 0;
      if (faults_.skip_fill_register_invalidate_on_store) {
        if (auto r = fills_.lookup(s)) pending = *r;
      } else if (auto taken = fills_.consume(s)) {
        pending = taken->ready;
      }
      const Cycle slot = store_buffer_.accept(now);
      const Cycle tag_done = slot + tag_;
      Cycle done;
      if (array_.touch(s, /*is_write=*/true)) {
        stats_.l1_write_hits += 1;
        const Cycle earliest = std::max(tag_done, pending);
        const RefGrant g = banks_.acquire(s, earliest, write_);
        stats_.l1_array_writes += 1;
        stats_.bank_conflict_cycles += g.start - earliest;
        done = g.done;
      } else {
        // Write miss: write-allocate in the DL1, no-allocate in the VWB.
        const Cycle data = l2_.fetch_line(s, tag_done, stats_);
        stats_.l1_misses += 1;
        const RefArray::Victim v = array_.fill(s, /*dirty=*/true);
        retire_l1_victim(v, data);
        copy_span(dl1_bytes_, l2_.bytes(), s, lb_);
        const RefGrant g = banks_.acquire(s, data, write_);
        stats_.l1_array_writes += 1;
        done = g.done;
      }
      store_overlap(dl1_bytes_, s, s + sector_, addr, size, value);
      store_buffer_.commit(done);
      accepted = std::max(accepted, std::max(slot, now + 1));
    }
    return accepted;
  }

  void prefetch(Addr addr, Cycle now) override {
    stats_.prefetches += 1;
    const Addr line = align_down(addr, sector_);
    if (vwb_.probe(line).hit) return;
    if (fills_.lookup(line)) return;
    const Cycle start = now + 1;
    if (array_.touch(line, /*is_write=*/false)) {
      const RefGrant g = banks_.acquire(line, start, read_);
      stats_.l1_array_reads += 1;
      fills_.insert(line, g.done, snapshot(line));
    } else {
      const Cycle data = fill_from_l2(line, start + tag_);
      fills_.insert(line, data, snapshot(line));
    }
  }

 private:
  Bytes snapshot(Addr line) const {
    Bytes b(sector_);
    read_span(dl1_bytes_, line, sector_, b.data());
    return b;
  }

  Cycle load_sector(Addr addr, Cycle now) {
    const Cycle lookup_done = now + 1;  // parallel VWB/DL1 tag probe
    const RefSectorBuffer::Hit hit = vwb_.lookup(addr);
    if (hit.hit) {
      stats_.front_hits += 1;
      return std::max(lookup_done, hit.ready);
    }
    stats_.front_misses += 1;
    const Cycle ready = promote(addr, now);
    return std::max(ready, lookup_done);
  }

  Cycle promote(Addr demand_addr, Cycle now) {
    const Addr demand_line = align_down(demand_addr, sector_);
    for (Addr d : vwb_.allocate_line(demand_addr)) {
      // Dirty VWB-victim sectors retire into the NVM array (inclusion
      // guarantees the line is resident in correct operation).
      copy_span(dl1_bytes_, front_bytes_, d, sector_);
      array_.touch(d, /*is_write=*/true);
      stats_.l1_array_writes += 1;
      stats_.front_writebacks += 1;
    }

    // Demand sector first (critical word first).
    Cycle demand_ready;
    if (auto taken = fills_.consume(demand_line)) {
      demand_ready = std::max(taken->ready, now);
      stats_.prefetch_hits += 1;
      write_span(front_bytes_, demand_line,
                 std::min<std::uint64_t>(sector_, taken->data.size()),
                 taken->data.data());
    } else if (array_.touch(demand_line, /*is_write=*/false)) {
      stats_.l1_read_hits += 1;
      const RefGrant g = banks_.acquire(demand_line, now, read_);
      stats_.l1_array_reads += 1;
      stats_.bank_conflict_cycles += g.start - now;
      demand_ready = g.done;
      copy_span(front_bytes_, dl1_bytes_, demand_line, sector_);
    } else {
      demand_ready = fill_from_l2(demand_line, now + tag_);
      copy_span(front_bytes_, dl1_bytes_, demand_line, sector_);
    }
    vwb_.fill_sector(demand_line, demand_ready);

    // Sibling sectors ride along unless already valid, staged in a fill
    // register, absent from the DL1, or on a busy bank.
    const Addr vbase = align_down(demand_addr, vline_);
    for (Addr s = vbase; s < vbase + vline_; s += sector_) {
      if (s == demand_line) continue;
      if (vwb_.probe(s).hit) continue;
      if (fills_.lookup(s)) continue;
      if (!array_.present(s)) continue;
      if (banks_.free_at(s) > now) continue;
      array_.touch(s, /*is_write=*/false);
      const RefGrant g = banks_.acquire(s, now, read_);
      stats_.l1_array_reads += 1;
      vwb_.fill_sector(s, g.done);
      copy_span(front_bytes_, dl1_bytes_, s, sector_);
    }
    stats_.promotions += 1;
    return demand_ready;
  }

  Cycle fill_from_l2(Addr line, Cycle now) {
    stats_.l1_misses += 1;
    const Cycle data = l2_.fetch_line(line, now, stats_);
    const RefArray::Victim v = array_.fill(line, /*dirty=*/false);
    retire_l1_victim(v, data);
    copy_span(dl1_bytes_, l2_.bytes(), line, lb_);
    stats_.l1_array_writes += 1;
    return data;
  }

  void retire_l1_victim(const RefArray::Victim& v, Cycle now) {
    if (!v.valid) return;
    fills_.invalidate(v.addr);
    bool vwb_dirty = false;
    if (!faults_.drop_front_invalidate_on_l1_evict) {
      vwb_dirty = vwb_.invalidate_sector(v.addr);
      if (vwb_dirty) copy_span(dl1_bytes_, front_bytes_, v.addr, sector_);
    }
    if (!v.dirty && !vwb_dirty) return;
    const Cycle slot = writeback_buffer_.accept(now);
    stats_.l1_array_reads += 1;
    const Cycle done =
        l2_.accept_writeback(v.addr, lb_, dl1_bytes_, slot + read_, stats_);
    writeback_buffer_.commit(done);
    stats_.l1_writebacks += 1;
  }

  std::uint64_t lb_, sector_, vline_;
  Cycles tag_, read_, write_;
  OracleFaults faults_;
  RefArray array_;
  RefSectorBuffer vwb_;
  RefBanks banks_;
  RefFillRegs fills_;
  RefFifo store_buffer_;
  RefFifo writeback_buffer_;
  RefL2 l2_;
  ByteMap dl1_bytes_;
  ByteMap front_bytes_;
};

// ---------------------------------------------------------------------------
// The narrow-front family: L0 cache / EMSHR / SRAM write buffer, expressed
// as one parametric organization (allocation-policy variants).
enum class RefPolicy { kOnLoadMiss, kOnL1Miss, kOnStore };

class NarrowOracle final : public OracleBase {
 public:
  NarrowOracle(const core::Dl1Config& dl1, unsigned front_entries,
               std::uint64_t entry_bytes, RefPolicy policy,
               unsigned mshr_entries, const mem::L2Config& l2,
               const OracleFaults& faults)
      : lb_(dl1.geometry.line_bytes),
        entry_(entry_bytes),
        tag_(dl1.timing.tag_cycles),
        read_(dl1.timing.read_cycles),
        write_(dl1.timing.write_cycles),
        policy_(policy),
        faults_(faults),
        array_(num_sets_of(dl1), dl1.geometry.associativity, lb_),
        front_(front_entries, entry_bytes, entry_bytes),
        banks_(dl1.timing.banks, lb_),
        mshr_(mshr_entries),
        store_buffer_(dl1.store_buffer_depth),
        writeback_buffer_(dl1.writeback_buffer_depth),
        l2_(l2) {}

  Cycle load(Addr addr, unsigned size, Cycle now) override {
    stats_.loads += 1;
    const Addr first = align_down(addr, entry_);
    const Addr last = align_down(addr + size - 1, entry_);
    Cycle ready = load_entry(addr, now);
    for (Addr s = first + entry_; s <= last; s += entry_) {
      ready = std::max(ready, load_entry(s, now + 1));
    }
    // Each entry's bytes are served by the front when resident, else the
    // array.
    for (Addr s = first; s <= last; s += entry_) {
      const Addr lo = std::max(s, addr);
      const Addr hi = std::min<Addr>(s + entry_, addr + size);
      if (front_.probe(s).hit) {
        check_bytes(lo, static_cast<unsigned>(hi - lo), front_bytes_, "front");
      } else {
        check_bytes(lo, static_cast<unsigned>(hi - lo), dl1_bytes_, "dl1");
      }
    }
    return ready;
  }

  Cycle store(Addr addr, unsigned size, std::uint64_t value,
              Cycle now) override {
    stats_.stores += 1;
    arch_store(addr, size, value);
    const Addr first = align_down(addr, entry_);
    const Addr last = align_down(addr + size - 1, entry_);
    Cycle accepted = now + 1;
    for (Addr s = first; s <= last; s += entry_) {
      if (front_.probe(s).hit) {
        front_.mark_dirty(s);
        stats_.front_store_hits += 1;
        store_overlap(front_bytes_, s, s + entry_, addr, size, value);
        continue;
      }
      const Addr line = align_down(s, lb_);
      if (policy_ == RefPolicy::kOnStore) {
        // Write-mitigation hybrid: allocate a front entry and absorb the
        // store there; the underlying line is pulled alongside.
        Cycle ready;
        const Cycle start = now + 1;
        const Cycle fly = mshr_.lookup(line, start);
        if (fly != 0) {
          ready = fly;
        } else if (array_.touch(line, /*is_write=*/false)) {
          const RefGrant g = banks_.acquire(s, start, read_);
          stats_.l1_array_reads += 1;
          ready = g.done;
        } else {
          const Cycle data = fill_from_l2(line, start + tag_);
          ready = mshr_.allocate(line, start, data);
        }
        allocate_front(s, ready);
        front_.mark_dirty(s);
        stats_.front_store_hits += 1;
        store_overlap(front_bytes_, s, s + entry_, addr, size, value);
        continue;
      }
      const Cycle slot = store_buffer_.accept(now);
      const Cycle tag_done = slot + tag_;
      Cycle done;
      const Cycle fly = mshr_.lookup(line, slot);
      if (fly != 0) {
        const RefGrant g =
            banks_.acquire(line, std::max(fly, tag_done), write_);
        array_.touch(line, /*is_write=*/true);
        stats_.l1_write_hits += 1;
        stats_.l1_array_writes += 1;
        done = g.done;
      } else if (array_.touch(line, /*is_write=*/true)) {
        stats_.l1_write_hits += 1;
        const RefGrant g = banks_.acquire(line, tag_done, write_);
        stats_.l1_array_writes += 1;
        stats_.bank_conflict_cycles += g.start - tag_done;
        done = g.done;
      } else {
        const Cycle data = l2_.fetch_line(line, tag_done, stats_);
        stats_.l1_misses += 1;
        const RefArray::Victim v = array_.fill(line, /*dirty=*/true);
        retire_l1_victim(v, data);
        copy_span(dl1_bytes_, l2_.bytes(), line, lb_);
        const RefGrant g = banks_.acquire(line, data, write_);
        stats_.l1_array_writes += 1;
        done = g.done;
      }
      store_overlap(dl1_bytes_, s, s + entry_, addr, size, value);
      store_buffer_.commit(done);
      accepted = std::max(accepted, std::max(slot, now + 1));
    }
    return accepted;
  }

  void prefetch(Addr addr, Cycle now) override {
    stats_.prefetches += 1;
    if (front_.probe(addr).hit) return;
    const Addr line = align_down(addr, lb_);
    const Cycle start = now + 1;
    Cycle ready;
    const Cycle fly = mshr_.lookup(line, start);
    if (fly != 0) {
      ready = fly;
    } else if (!array_.present(line) &&
               mshr_.occupancy(start) >= mshr_.capacity()) {
      return;  // hint dropped: would need an MSHR and none is free
    } else if (array_.touch(line, /*is_write=*/false)) {
      const RefGrant g = banks_.acquire(line, start, read_);
      stats_.l1_array_reads += 1;
      ready = g.done;
    } else {
      const Cycle data = fill_from_l2(line, start + tag_);
      ready = mshr_.allocate(line, start, data);
    }
    allocate_front(addr, ready);
  }

 private:
  Cycle load_entry(Addr addr, Cycle now) {
    const Cycle lookup_done = now + 1;  // parallel front/DL1 tag probe
    const RefSectorBuffer::Hit hit = front_.lookup(addr);
    if (hit.hit) {
      stats_.front_hits += 1;
      return std::max(lookup_done, hit.ready);
    }
    stats_.front_misses += 1;

    const Addr line = align_down(addr, lb_);
    Cycle ready;
    bool was_l1_miss = false;
    const Cycle fly = mshr_.lookup(line, now);
    if (fly != 0) {
      ready = std::max(fly, now);
      was_l1_miss = true;
    } else if (array_.touch(line, /*is_write=*/false)) {
      stats_.l1_read_hits += 1;
      const RefGrant g = banks_.acquire(line, now, read_);
      stats_.l1_array_reads += 1;
      stats_.bank_conflict_cycles += g.start - now;
      ready = g.done;
    } else {
      const Cycle data = fill_from_l2(line, now + tag_);
      ready = mshr_.allocate(line, now, data);
      was_l1_miss = true;
    }

    const bool allocate = policy_ == RefPolicy::kOnLoadMiss ||
                          (policy_ == RefPolicy::kOnL1Miss && was_l1_miss);
    if (allocate) allocate_front(addr, ready);
    return std::max(ready, lookup_done);
  }

  void allocate_front(Addr addr, Cycle ready) {
    for (Addr d : front_.allocate_line(addr)) {
      copy_span(dl1_bytes_, front_bytes_, d, entry_);
      array_.touch(d, /*is_write=*/true);
      stats_.l1_array_writes += 1;
      stats_.front_writebacks += 1;
    }
    front_.fill_sector(addr, ready);
    copy_span(front_bytes_, dl1_bytes_, align_down(addr, entry_), entry_);
    stats_.promotions += 1;
  }

  Cycle fill_from_l2(Addr line, Cycle now) {
    stats_.l1_misses += 1;
    const Cycle data = l2_.fetch_line(line, now, stats_);
    const RefArray::Victim v = array_.fill(line, /*dirty=*/false);
    retire_l1_victim(v, data);
    copy_span(dl1_bytes_, l2_.bytes(), line, lb_);
    stats_.l1_array_writes += 1;
    return data;
  }

  void retire_l1_victim(const RefArray::Victim& v, Cycle now) {
    if (!v.valid) return;
    // The victim's frame is gone: its in-flight fill entry must not keep
    // merging later stores into the evicted frame.
    mshr_.release(v.addr);
    bool front_dirty = false;
    if (!faults_.drop_front_invalidate_on_l1_evict) {
      for (Addr s = v.addr; s < v.addr + lb_; s += entry_) {
        if (front_.invalidate_sector(s)) {
          copy_span(dl1_bytes_, front_bytes_, s, entry_);
          front_dirty = true;
        }
      }
    }
    if (!v.dirty && !front_dirty) return;
    const Cycle slot = writeback_buffer_.accept(now);
    stats_.l1_array_reads += 1;
    const Cycle done =
        l2_.accept_writeback(v.addr, lb_, dl1_bytes_, slot + read_, stats_);
    writeback_buffer_.commit(done);
    stats_.l1_writebacks += 1;
  }

  std::uint64_t lb_, entry_;
  Cycles tag_, read_, write_;
  RefPolicy policy_;
  OracleFaults faults_;
  RefArray array_;
  RefSectorBuffer front_;
  RefBanks banks_;
  RefMshr mshr_;
  RefFifo store_buffer_;
  RefFifo writeback_buffer_;
  RefL2 l2_;
  ByteMap dl1_bytes_;
  ByteMap front_bytes_;
};

// ECC / retention-fault decorator. Mirrors reliability::FaultyDl1System:
// an independently instantiated FaultInjector driven by the same
// (addr, size, cycle) sequence reproduces the production fault schedule
// exactly, so the oracle predicts ECC-corrected completion cycles and the
// ecc_corrections / ecc_refills counters without sharing any state with
// the simulator. The skip_ecc_correction_latency oracle fault counts
// corrections but omits their latency — a pure "cycle" divergence.
class FaultedOracle final : public ReferenceDl1 {
 public:
  FaultedOracle(std::unique_ptr<ReferenceDl1> inner,
                const reliability::FaultConfig& fault_config,
                const reliability::EccConfig& ecc, std::uint64_t line_bytes,
                const OracleFaults& faults)
      : inner_(std::move(inner)),
        injector_(fault_config, ecc, line_bytes),
        skip_correction_latency_(faults.skip_ecc_correction_latency) {}

  sim::Cycle load(Addr addr, unsigned size, sim::Cycle now) override {
    sim::Cycle done = inner_->load(addr, size, now);
    const reliability::FaultInjector::LoadPenalty penalty =
        injector_.on_load(addr, size, now);
    done += penalty.refill_cycles;
    if (!skip_correction_latency_) done += penalty.correction_cycles;
    sync();
    return done;
  }

  sim::Cycle store(Addr addr, unsigned size, std::uint64_t value,
                   sim::Cycle now) override {
    const sim::Cycle done = inner_->store(addr, size, value, now);
    injector_.on_store(addr, size, now);
    sync();
    return done;
  }

  void prefetch(Addr addr, sim::Cycle now) override {
    inner_->prefetch(addr, now);
    sync();
  }

 private:
  void sync() {
    stats_ = inner_->stats();
    stats_.ecc_corrections = injector_.corrections();
    stats_.ecc_refills = injector_.refills();
    shadow_violations_ = inner_->shadow_violations();
  }

  std::unique_ptr<ReferenceDl1> inner_;
  reliability::FaultInjector injector_;
  bool skip_correction_latency_;
};

}  // namespace

std::unique_ptr<ReferenceDl1> make_reference_dl1(
    const cpu::SystemConfig& config, const OracleFaults& faults) {
  if (config.faults_active()) {
    config.faults.validate();
    config.ecc.validate();
    cpu::SystemConfig clean = config;
    clean.faults.enabled = false;
    return std::make_unique<FaultedOracle>(
        make_reference_dl1(clean, faults), config.faults, config.ecc,
        config.dl1_config().geometry.line_bytes, faults);
  }
  config.validate();
  const core::Dl1Config dl1 = config.dl1_config();
  switch (config.organization) {
    case cpu::Dl1Organization::kSramBaseline:
    case cpu::Dl1Organization::kNvmDropIn:
      return std::make_unique<PlainOracle>(dl1, config.l2);
    case cpu::Dl1Organization::kNvmVwb: {
      const core::VwbGeometry g = config.vwb_geometry();
      if (g.sector_bytes != dl1.geometry.line_bytes) {
        // Degenerate geometry: the system falls back to the narrow-front
        // organization with on-load-miss allocation.
        return std::make_unique<NarrowOracle>(
            dl1, g.num_lines, g.line_bytes, RefPolicy::kOnLoadMiss,
            config.mshr_entries, config.l2, faults);
      }
      return std::make_unique<VwbOracle>(dl1, g, config.mshr_entries,
                                         config.l2, faults);
    }
    case cpu::Dl1Organization::kNvmL0:
      return std::make_unique<NarrowOracle>(dl1, 8, 32, RefPolicy::kOnLoadMiss,
                                            4, config.l2, faults);
    case cpu::Dl1Organization::kNvmEmshr:
      return std::make_unique<NarrowOracle>(dl1, 4, 64, RefPolicy::kOnL1Miss,
                                            4, config.l2, faults);
    case cpu::Dl1Organization::kNvmWriteBuf:
      return std::make_unique<NarrowOracle>(dl1, 4, 64, RefPolicy::kOnStore, 4,
                                            config.l2, faults);
  }
  throw ConfigError("unknown DL1 organization");
}

}  // namespace sttsim::check
