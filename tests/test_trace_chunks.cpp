// DecodedTrace's chunk storage: traces hold their ops in fixed-size chunks
// that one process-wide free list recycles. These tests pin the ownership
// contract (a copy is deep, a move empties its source, a destroyed trace's
// chunks go to the next trace, last in first out) and stress the free list
// from eight threads. The file needs only src/cpu/decoded_trace.cpp and the
// util library, so tests/CMakeLists.txt also builds it with
// ThreadSanitizer (test_trace_chunks_tsan).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/util/rng.hpp"

namespace {

using sttsim::Addr;
using sttsim::Rng;
using sttsim::cpu::DecodedOp;
using sttsim::cpu::DecodedTrace;
using sttsim::cpu::kChunkOps;
using sttsim::cpu::OpKind;

/// The i-th op of the trace tagged `tag`: every field depends on both, so a
/// chunk that two live traces shared would show up as a wrong op.
DecodedOp op_at(std::uint64_t tag, std::size_t i) {
  const std::uint64_t x = (tag << 32) ^ i;
  DecodedOp op;
  op.addr = x * 0x9E3779B97F4A7C15ULL;
  op.count = static_cast<std::uint32_t>(x) | 1u;
  op.kind = static_cast<OpKind>(i % 4);
  op.size = static_cast<std::uint8_t>(tag);
  op.span32 = static_cast<std::uint8_t>(i);
  op.span64 = static_cast<std::uint8_t>(i >> 8);
  return op;
}

DecodedTrace make_trace(std::uint64_t tag, std::size_t n) {
  DecodedTrace t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back(op_at(tag, i));
  }
  return t;
}

/// Whether `t` holds exactly make_trace(tag, n)'s ops, walked chunk by chunk.
bool holds(const DecodedTrace& t, std::uint64_t tag, std::size_t n) {
  if (t.size() != n ||
      t.chunk_count() != (n + kChunkOps - 1) / kChunkOps) {
    return false;
  }
  std::size_t i = 0;
  for (std::size_t c = 0; c < t.chunk_count(); ++c) {
    for (const DecodedOp& op : t.chunk(c)) {
      if (!(op == op_at(tag, i++))) return false;
    }
  }
  return i == n;
}

TEST(TraceChunks, ChunkCountAndSizesFollowTheOpCount) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kChunkOps - 1, kChunkOps,
        kChunkOps + 1, 2 * kChunkOps + 17}) {
    SCOPED_TRACE(n);
    const DecodedTrace t = make_trace(1, n);
    EXPECT_EQ(t.empty(), n == 0);
    ASSERT_EQ(t.chunk_count(), (n + kChunkOps - 1) / kChunkOps);
    std::size_t total = 0;
    for (std::size_t c = 0; c < t.chunk_count(); ++c) {
      const std::size_t expected =
          c + 1 < t.chunk_count() ? kChunkOps : n - c * kChunkOps;
      EXPECT_EQ(t.chunk(c).size(), expected);
      total += t.chunk(c).size();
    }
    EXPECT_EQ(total, n);
    EXPECT_TRUE(holds(t, 1, n));
    if (n != 0) {
      EXPECT_EQ(t[n - 1], op_at(1, n - 1));
    }
  }
}

TEST(TraceChunks, CopyIsDeep) {
  const std::size_t n = 2 * kChunkOps + 17;
  DecodedTrace source = make_trace(2, n);
  const DecodedTrace copy = source;
  EXPECT_TRUE(holds(copy, 2, n));
  EXPECT_NE(copy.chunk(0).data(), source.chunk(0).data());
  DecodedTrace assigned = make_trace(3, 5);
  assigned = source;
  EXPECT_TRUE(holds(assigned, 2, n));
  // Growing the source leaves its copies as they were.
  source.push_back(op_at(2, n));
  EXPECT_TRUE(holds(source, 2, n + 1));
  EXPECT_TRUE(holds(copy, 2, n));
  EXPECT_TRUE(holds(assigned, 2, n));
}

TEST(TraceChunks, MoveLeavesTheSourceEmpty) {
  static_assert(std::is_nothrow_move_constructible_v<DecodedTrace>);
  static_assert(std::is_nothrow_move_assignable_v<DecodedTrace>);
  const std::size_t n = kChunkOps + 3;
  DecodedTrace source = make_trace(4, n);
  const DecodedOp* const first = source.chunk(0).data();
  DecodedTrace moved = std::move(source);
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.chunk_count(), 0u);
  EXPECT_EQ(moved.chunk(0).data(), first);  // no op was copied
  EXPECT_TRUE(holds(moved, 4, n));

  DecodedTrace target = make_trace(5, 9);
  target = std::move(moved);
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.chunk_count(), 0u);
  EXPECT_TRUE(holds(target, 4, n));
  // A moved-from trace is an empty trace: it can be filled again.
  moved.push_back(op_at(6, 0));
  EXPECT_TRUE(holds(moved, 6, 1));
}

TEST(TraceChunks, ADestroyedTracesChunkGoesToTheNextTrace) {
  const DecodedOp* first = nullptr;
  {
    const DecodedTrace dropped = make_trace(7, 10);
    first = dropped.chunk(0).data();
  }
  const DecodedTrace next = make_trace(8, 10);
  EXPECT_EQ(next.chunk(0).data(), first);
  EXPECT_TRUE(holds(next, 8, 10));
}

#if defined(__SANITIZE_ADDRESS__)
TEST(TraceChunksDeathTest, ReadThroughADroppedTraceIsReported) {
  // A chunk on the free list is poisoned, so AddressSanitizer reports a
  // read through a trace that was destroyed, even though the chunk's
  // memory stays allocated.
  const auto read_dropped = [] {
    const DecodedOp* op = nullptr;
    {
      const DecodedTrace dropped = make_trace(9, 10);
      op = &dropped[3];
    }
    volatile Addr addr = op->addr;
    static_cast<void>(addr);
  };
  EXPECT_DEATH(read_dropped(), "use-after-poison");
}
#endif

TEST(TraceChunks, ThreadsShareTheFreeListSafely) {
  // Eight threads build, copy, move and destroy traces of random sizes,
  // around and across chunk boundaries, and check every op of each. Every
  // chunk a thread takes was given back by some thread before it.
  constexpr unsigned kThreads = 8;
  constexpr unsigned kRounds = 24;
  std::vector<unsigned> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < kThreads; ++w) {
    threads.emplace_back([w, &failures] {
      Rng rng(100 + w);
      DecodedTrace kept;  // outlives a round, so chunks change hands
      std::uint64_t kept_tag = 0;
      std::size_t kept_n = 0;
      for (unsigned r = 0; r < kRounds; ++r) {
        const std::uint64_t tag = (std::uint64_t{w} << 8) | r;
        const std::size_t sizes[] = {0, 1, kChunkOps - 1, kChunkOps,
                                     kChunkOps + 1};
        const std::size_t n =
            r % 3 == 0 ? sizes[rng.next_below(std::size(sizes))]
                       : rng.next_below(kChunkOps + kChunkOps / 2);
        DecodedTrace built = make_trace(tag, n);
        DecodedTrace copy = built;
        DecodedTrace moved = std::move(built);
        if (!built.empty() || !holds(copy, tag, n) || !holds(moved, tag, n) ||
            !holds(kept, kept_tag, kept_n)) {
          ++failures[w];
        }
        if (rng.next_below(2) == 0) {
          kept = std::move(moved);
          kept_tag = tag;
          kept_n = n;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (unsigned w = 0; w < kThreads; ++w) {
    EXPECT_EQ(failures[w], 0u) << "thread " << w;
  }
}

}  // namespace
