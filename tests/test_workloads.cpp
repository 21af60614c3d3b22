// Unit tests: workload generators — closed-form memory-op counts for the
// scalar (textbook) kernels, structural invariants for the vector shapes,
// emitter/codegen/data-layout behaviour.
#include <gtest/gtest.h>

#include "sttsim/util/check.hpp"
#include "sttsim/workloads/data_layout.hpp"
#include "sttsim/workloads/emitter.hpp"
#include "sttsim/workloads/kernels.hpp"
#include "sttsim/workloads/suite.hpp"

namespace sttsim::workloads {
namespace {

using cpu::summarize;
using cpu::TraceSummary;

const CodegenOptions kBase = CodegenOptions::none();

TEST(DataLayout, SequentialAlignedAllocation) {
  DataLayout mem(0x10000, 128);
  const Matrix a = mem.matrix("A", 4, 4);  // 128 B
  const Vector v = mem.vector("v", 3);     // 24 B -> padded to 128
  EXPECT_EQ(a.base % 128, 0u);
  EXPECT_EQ(v.base, a.base + 128);
  EXPECT_EQ(mem.addr_of("A"), a.base);
  EXPECT_EQ(mem.footprint(), 256u);
}

TEST(DataLayout, MatrixAddressing) {
  DataLayout mem;
  const Matrix a = mem.matrix("A", 8, 16);
  EXPECT_EQ(a.at(0, 0), a.base);
  EXPECT_EQ(a.at(0, 1), a.base + 8);
  EXPECT_EQ(a.at(1, 0), a.base + 16 * 8);
  EXPECT_EQ(a.at(2, 3), a.base + (2 * 16 + 3) * 8);
}

TEST(DataLayout, RejectsDuplicatesAndUnknown) {
  DataLayout mem;
  mem.vector("x", 4);
  EXPECT_THROW(mem.vector("x", 4), ConfigError);
  EXPECT_THROW(mem.addr_of("y"), ConfigError);
  EXPECT_THROW(mem.vector("empty", 0), ConfigError);
}

TEST(CodegenOptions, Labels) {
  EXPECT_EQ(CodegenOptions::none().label(), "base");
  EXPECT_EQ(CodegenOptions::all().label(), "vec+pf+br");
  EXPECT_EQ(CodegenOptions::only_prefetch().label(), "pf");
  EXPECT_EQ(CodegenOptions::only_vectorize().label(), "vec");
  EXPECT_EQ(CodegenOptions::only_branch_opts().label(), "br");
}

/// Raw trace of one emission body, through both synthesize() passes.
template <typename Body>
cpu::Trace emit(const CodegenOptions& o, const Body& body) {
  return cpu::reassemble(synthesize(o, body));
}

TEST(Emitter, MergesConsecutiveExec) {
  const cpu::Trace t = emit(kBase, [](Emitter& em) {
    em.exec(2);
    em.flop(3);
    em.loop_iter();
    em.load(0x100);
  });
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].kind, cpu::OpKind::kExec);
  EXPECT_EQ(t[0].count, 2u + 3 + 3);  // loop_iter = 3 without branch opts
  EXPECT_EQ(t[1].kind, cpu::OpKind::kLoad);
}

TEST(Emitter, BranchOptsShrinkLoopOverhead) {
  const auto body = [](Emitter& em) {
    em.loop_iter();
    em.loop_setup();
  };
  EXPECT_EQ(summarize(emit(kBase, body)).instructions, 6u);  // 3 + 3
  EXPECT_EQ(summarize(emit(CodegenOptions::only_branch_opts(), body))
                .instructions,
            2u);  // 1 + 1
}

TEST(Emitter, WidthFollowsVectorization) {
  EXPECT_EQ(Emitter(kBase).width(), 1u);
  EXPECT_EQ(Emitter(CodegenOptions::only_vectorize()).width(), 4u);
}

TEST(Emitter, StreamLoadDropsPrefetchAtLineBoundary) {
  const TraceSummary s =
      summarize(emit(CodegenOptions::only_prefetch(), [](Emitter& em) {
        for (Addr a = 0; a < 128; a += 8) em.stream_load(a);
      }));
  EXPECT_EQ(s.loads, 16u);
  EXPECT_EQ(s.prefetches, 2u);  // one per 64 B line entered
}

TEST(Emitter, StreamLoadEmitsNoPrefetchWhenDisabled) {
  const cpu::Trace t = emit(kBase, [](Emitter& em) {
    for (Addr a = 0; a < 128; a += 8) em.stream_load(a);
  });
  EXPECT_EQ(summarize(t).prefetches, 0u);
}

TEST(Emitter, PrefetchTargetsAheadOfTheStream) {
  const CodegenOptions o = CodegenOptions::only_prefetch();
  const cpu::Trace t = emit(o, [](Emitter& em) {
    em.stream_load(0);  // first in line 0 -> prefetch 0 + distance
  });
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].kind, cpu::OpKind::kPrefetch);
  EXPECT_EQ(t[0].addr, o.prefetch_distance_bytes);
}

TEST(EmitterDeathTest, FillPassThatOutgrowsItsCountAborts) {
  // A body that emits more on its second run than the counting pass saw is
  // a generator bug; the fill refuses to hand back a regrown trace.
  const auto grows = [] {
    int runs = 0;
    synthesize(kBase, [&runs](Emitter& em) {
      for (int i = 0; i <= runs; ++i) em.load(0x100);
      ++runs;
    });
  };
  EXPECT_DEATH(grows(), "check failed");
}

// ---- Closed-form scalar memory-op counts. ----

TEST(KernelCounts, Atax) {
  const TraceSummary s = summarize(atax(12, 16, kBase));
  EXPECT_EQ(s.loads, 4u * 12 * 16);
  EXPECT_EQ(s.stores, 16u + 12 * 16);
  EXPECT_EQ(s.prefetches, 0u);
}

TEST(KernelCounts, Bicg) {
  const TraceSummary s = summarize(bicg(10, 14, kBase));
  EXPECT_EQ(s.loads, 10u * (1 + 3 * 14));
  EXPECT_EQ(s.stores, 14u + 10 * (14 + 1));
}

TEST(KernelCounts, Gemm) {
  const TraceSummary s = summarize(gemm(5, 6, 7, kBase));
  EXPECT_EQ(s.loads, 5u * 6 * (1 + 2 * 7));
  EXPECT_EQ(s.stores, 5u * 6);
}

TEST(KernelCounts, Gesummv) {
  const TraceSummary s = summarize(gesummv(9, kBase));
  EXPECT_EQ(s.loads, 3u * 9 * 9);
  EXPECT_EQ(s.stores, 9u);
}

TEST(KernelCounts, Mvt) {
  const TraceSummary s = summarize(mvt(11, kBase));
  EXPECT_EQ(s.loads, 2u * 11 + 4 * 11 * 11);
  EXPECT_EQ(s.stores, 2u * 11);
}

TEST(KernelCounts, Trisolv) {
  const std::uint64_t n = 13;
  const TraceSummary s = summarize(trisolv(n, kBase));
  EXPECT_EQ(s.loads, 2 * n + n * (n - 1));
  EXPECT_EQ(s.stores, n);
}

TEST(KernelCounts, Syrk) {
  const std::uint64_t n = 8;
  const std::uint64_t m = 5;
  const std::uint64_t pairs = n * (n + 1) / 2;
  const TraceSummary s = summarize(syrk(n, m, kBase));
  EXPECT_EQ(s.loads, pairs * (1 + 2 * m));
  EXPECT_EQ(s.stores, pairs);
}

TEST(KernelCounts, Syr2k) {
  const std::uint64_t n = 6;
  const std::uint64_t m = 4;
  const std::uint64_t pairs = n * (n + 1) / 2;
  const TraceSummary s = summarize(syr2k(n, m, kBase));
  EXPECT_EQ(s.loads, pairs * (1 + 4 * m));
  EXPECT_EQ(s.stores, pairs);
}

TEST(KernelCounts, Trmm) {
  const std::uint64_t n = 7;
  const std::uint64_t m = 5;
  const TraceSummary s = summarize(trmm(n, m, kBase));
  EXPECT_EQ(s.loads, m * n * n);
  EXPECT_EQ(s.stores, n * m);
}

TEST(KernelCounts, TwoMm) {
  const TraceSummary s = summarize(two_mm(4, 5, 6, 7, kBase));
  EXPECT_EQ(s.loads, 4u * 5 * (1 + 2 * 6) + 4u * 7 * (1 + 2 * 5));
  EXPECT_EQ(s.stores, 4u * 5 + 4u * 7);
}

TEST(KernelCounts, ThreeMm) {
  const TraceSummary s = summarize(three_mm(3, 4, 5, 6, 7, kBase));
  EXPECT_EQ(s.loads, 3u * 4 * (1 + 2 * 5)      // E = A B
                         + 4u * 6 * (1 + 2 * 7)  // F = C D
                         + 3u * 6 * (1 + 2 * 4));  // G = E F
  EXPECT_EQ(s.stores, 3u * 4 + 4u * 6 + 3u * 6);
}

TEST(KernelCounts, Jacobi1d) {
  const std::uint64_t n = 20;
  const std::uint64_t t = 3;
  const TraceSummary s = summarize(jacobi_1d(n, t, kBase));
  EXPECT_EQ(s.loads, t * 2 * (n - 2) * 3);
  EXPECT_EQ(s.stores, t * 2 * (n - 2));
}

TEST(KernelCounts, Jacobi2d) {
  const std::uint64_t n = 10;
  const std::uint64_t t = 2;
  const TraceSummary s = summarize(jacobi_2d(n, t, kBase));
  EXPECT_EQ(s.loads, t * 2 * (n - 2) * (n - 2) * 5);
  EXPECT_EQ(s.stores, t * 2 * (n - 2) * (n - 2));
}

TEST(KernelCounts, Gemver) {
  const std::uint64_t n = 6;
  const TraceSummary s = summarize(gemver(n, kBase));
  // Phase 1: 2 + 3n loads, n stores per row. Phase 2: 2n + 1 loads, 1 store
  // per i. Phase 3: 1 + 2n loads... counted from the generator:
  EXPECT_EQ(s.loads, n * (2 + 3 * n)        // phase 1 (u1, u2; A, v1, v2)
                         + n * (2 * n + 1)  // phase 2 (A, y per j; z)
                         + n * (2 * n));    // phase 3 (A, x per j)
  EXPECT_EQ(s.stores, n * n + n + n);
}

TEST(KernelCounts, Cholesky) {
  const std::uint64_t n = 10;
  const TraceSummary s = summarize(cholesky(n, kBase));
  EXPECT_EQ(s.loads, n * (n + 1) * (2 * n + 1) / 6);
  EXPECT_EQ(s.stores, n * (n + 1) / 2);
}

TEST(KernelCounts, Lu) {
  const std::uint64_t n = 9;
  const TraceSummary s = summarize(lu(n, kBase));
  std::uint64_t loads = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    loads += i * i + i;             // j < i: (2 + 2j) each
    loads += (n - i) * (1 + 2 * i);  // j >= i
  }
  EXPECT_EQ(s.loads, loads);
  EXPECT_EQ(s.stores, n * n);
}

TEST(KernelCounts, Symm) {
  const std::uint64_t m = 7;
  const std::uint64_t n = 5;
  const TraceSummary s = summarize(symm(m, n, kBase));
  EXPECT_EQ(s.loads, n * m * (m + 2));
  EXPECT_EQ(s.stores, n * m * (m + 1) / 2);
}

TEST(KernelCounts, Doitgen) {
  const std::uint64_t nr = 3;
  const std::uint64_t nq = 4;
  const std::uint64_t np = 6;
  const TraceSummary s = summarize(doitgen(nr, nq, np, kBase));
  EXPECT_EQ(s.loads, nr * nq * (2 * np * np + np));
  EXPECT_EQ(s.stores, nr * nq * 2 * np);
}

TEST(KernelCounts, Seidel2d) {
  const std::uint64_t n = 8;
  const std::uint64_t t = 2;
  const TraceSummary s = summarize(seidel_2d(n, t, kBase));
  EXPECT_EQ(s.loads, t * (n - 2) * (n - 2) * 9);
  EXPECT_EQ(s.stores, t * (n - 2) * (n - 2));
}

TEST(KernelCounts, Covariance) {
  const std::uint64_t m = 6;
  const std::uint64_t n = 5;
  const std::uint64_t pairs = m * (m + 1) / 2;
  const TraceSummary s = summarize(covariance(m, n, kBase));
  EXPECT_EQ(s.loads, m * n + 2 * m * n + pairs * 2 * n);
  EXPECT_EQ(s.stores, m + m * n + 2 * pairs);
}

TEST(KernelCounts, FloydWarshall) {
  const std::uint64_t n = 7;
  const TraceSummary s = summarize(floyd_warshall(n, kBase));
  EXPECT_EQ(s.loads, n * n * (1 + 2 * n));
  EXPECT_EQ(s.stores, n * n * n);
}

TEST(KernelCounts, Durbin) {
  const std::uint64_t n = 9;
  const TraceSummary s = summarize(durbin(n, kBase));
  // k = 1..n-1: dot (2k loads) + r[k] + z pass (2k loads, k stores) +
  // copy-back (k loads, k stores) + y[k] store; plus the k=0 prologue.
  std::uint64_t loads = 1;
  std::uint64_t stores = 1;
  for (std::uint64_t k = 1; k < n; ++k) {
    loads += 2 * k + 1 + 2 * k + k;
    stores += k + k + 1;
  }
  EXPECT_EQ(s.loads, loads);
  EXPECT_EQ(s.stores, stores);
}

TEST(KernelCounts, Gramschmidt) {
  const std::uint64_t m = 6;
  const std::uint64_t n = 5;
  const TraceSummary s = summarize(gramschmidt(m, n, kBase));
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  for (std::uint64_t k = 0; k < n; ++k) {
    loads += m;           // norm
    stores += 1;          // R[k][k]
    loads += m;           // Q column
    stores += m;
    const std::uint64_t trailing = n - k - 1;
    loads += trailing * (2 * m + 2 * m);
    stores += trailing * (1 + m);
  }
  EXPECT_EQ(s.loads, loads);
  EXPECT_EQ(s.stores, stores);
}

TEST(KernelCounts, Adi) {
  const std::uint64_t n = 8;
  const std::uint64_t t = 2;
  const TraceSummary s = summarize(adi(n, t, kBase));
  const std::uint64_t interior = (n - 2) * (n - 2);
  EXPECT_EQ(s.loads, t * interior * (5 + 3));
  EXPECT_EQ(s.stores, t * interior * (2 + 1));
}

TEST(KernelCounts, Fdtd2d) {
  const std::uint64_t nx = 6;
  const std::uint64_t ny = 7;
  const std::uint64_t t = 2;
  const TraceSummary s = summarize(fdtd_2d(nx, ny, t, kBase));
  const std::uint64_t ey_ops = (nx - 1) * ny;
  const std::uint64_t ex_ops = nx * (ny - 1);
  const std::uint64_t hz_ops = (nx - 1) * (ny - 1);
  EXPECT_EQ(s.loads, t * (3 * ey_ops + 3 * ex_ops + 5 * hz_ops));
  EXPECT_EQ(s.stores, t * (ey_ops + ex_ops + hz_ops));
}

TEST(KernelCounts, Heat3d) {
  const std::uint64_t n = 6;
  const std::uint64_t t = 2;
  const TraceSummary s = summarize(heat_3d(n, t, kBase));
  const std::uint64_t interior = (n - 2) * (n - 2) * (n - 2);
  EXPECT_EQ(s.loads, t * 2 * interior * 7);
  EXPECT_EQ(s.stores, t * 2 * interior);
}

TEST(KernelCounts, SeidelHasNoVectorShape) {
  // Gauss-Seidel is loop-carried: the vectorize flag must not change the
  // memory-op structure (prefetch/branch options still apply).
  const TraceSummary a = summarize(seidel_2d(12, 2, kBase));
  const TraceSummary b =
      summarize(seidel_2d(12, 2, CodegenOptions::only_vectorize()));
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
}

// ---- Vector-shape invariants. ----

class VectorShape : public ::testing::TestWithParam<const char*> {};

TEST_P(VectorShape, PreservesBytesMovedForDivisibleSizes) {
  const Kernel& k = find_kernel(GetParam());
  const TraceSummary scalar = summarize(k.generate(kBase));
  const TraceSummary vec = summarize(k.generate(CodegenOptions::only_vectorize()));
  // Vectorization changes op counts and loop order but streams the same
  // array elements (gemm-family kernels re-load C per k in the ikj shape,
  // so bytes may grow there — tested separately).
  EXPECT_EQ(vec.bytes_stored % 8, 0u);
  EXPECT_GT(vec.loads, 0u);
  EXPECT_LT(vec.loads, scalar.loads);  // fewer, wider accesses
}

INSTANTIATE_TEST_SUITE_P(Kernels, VectorShape,
                         ::testing::Values("atax", "bicg", "gesummv", "mvt",
                                           "trisolv", "syrk", "syr2k",
                                           "jacobi-1d", "jacobi-2d",
                                           "cholesky", "symm", "doitgen",
                                           "floyd-warshall"));

TEST(VectorShapeDetail, GesummvBytesExactlyPreserved) {
  const TraceSummary scalar = summarize(gesummv(16, kBase));
  const TraceSummary vec =
      summarize(gesummv(16, CodegenOptions::only_vectorize()));
  EXPECT_EQ(vec.bytes_loaded, scalar.bytes_loaded);
  EXPECT_EQ(vec.bytes_stored, scalar.bytes_stored);
  EXPECT_EQ(vec.loads, scalar.loads / 4);
}

TEST(VectorShapeDetail, EpilogueHandlesNonDivisibleSizes) {
  // n = 7: one 4-wide chunk + 3 scalar lanes; bytes must still match.
  const TraceSummary scalar = summarize(gesummv(7, kBase));
  const TraceSummary vec =
      summarize(gesummv(7, CodegenOptions::only_vectorize()));
  EXPECT_EQ(vec.bytes_loaded, scalar.bytes_loaded);
  EXPECT_EQ(vec.bytes_stored, scalar.bytes_stored);
}

TEST(VectorShapeDetail, GemmIkjShapeIsUnitStrideOnly) {
  // The vector gemm never walks a column: all loads are 8- or 32-byte and
  // consecutive same-array accesses differ by at most +32.
  const cpu::Trace t = gemm(8, 8, 8, CodegenOptions::only_vectorize());
  for (const cpu::TraceOp& op : t) {
    if (op.kind == cpu::OpKind::kLoad) {
      EXPECT_TRUE(op.size == 8 || op.size == 32);
    }
  }
}

TEST(Prefetching, EmitsPrefetchesOnStreamingKernels) {
  const TraceSummary s =
      summarize(atax(16, 16, CodegenOptions::only_prefetch()));
  EXPECT_GT(s.prefetches, 0u);
}

TEST(Prefetching, ScalarColumnWalksAreNotPrefetched) {
  // mvt phase 2 walks columns in the scalar shape; only the unit-stride
  // phase-1 streams get hints. Prefetches must be well below the load count.
  const TraceSummary s = summarize(mvt(32, CodegenOptions::only_prefetch()));
  EXPECT_GT(s.prefetches, 0u);
  EXPECT_LT(s.prefetches, s.loads / 4);
}

TEST(Suite, HasTwentySixKernelsWithUniqueNames) {
  const auto& suite = polybench_suite();
  EXPECT_EQ(suite.size(), 26u);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (std::size_t j = i + 1; j < suite.size(); ++j) {
      EXPECT_NE(suite[i].name, suite[j].name);
    }
  }
}

TEST(Suite, FindKernelWorksAndThrows) {
  EXPECT_EQ(find_kernel("gemm").name, "gemm");
  EXPECT_THROW(find_kernel("nope"), ConfigError);
}

TEST(Suite, EveryKernelGeneratesDeterministically) {
  for (const Kernel& k : polybench_suite()) {
    const cpu::Trace a = k.generate(kBase);
    const cpu::Trace b = k.generate(kBase);
    EXPECT_EQ(a.size(), b.size()) << k.name;
    EXPECT_TRUE(a == b) << k.name;
    EXPECT_GT(summarize(a).loads, 0u) << k.name;
  }
}

TEST(Suite, FootprintsStressThe64KBDl1) {
  // The study needs kernels whose data does not trivially sit in the DL1.
  unsigned bigger_than_l1 = 0;
  for (const Kernel& k : polybench_suite()) {
    if (k.footprint_bytes > 64 * 1024) ++bigger_than_l1;
  }
  EXPECT_GE(bigger_than_l1, 6u);
}

}  // namespace
}  // namespace sttsim::workloads
