// Unit tests: workload generators — closed-form memory-op counts for the
// scalar (textbook) kernels, structural invariants for the vector shapes,
// emitter/codegen/data-layout behaviour, and direct-to-decoded synthesis:
// every suite kernel × codegen variant emits packed DecodedOps
// byte-identical to decode() of their reassembled raw trace, and every
// trace matches a pinned digest.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/util/check.hpp"
#include "sttsim/util/hash.hpp"
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

TEST(Emitter, StreamLoadEmitsNoPrefetchWhenDisabled) {
  const cpu::Trace t = emit(kBase, [](Emitter& em) {
    for (Addr a = 0; a < 128; a += 8) em.stream_load(a);
  });
  EXPECT_EQ(summarize(t).prefetches, 0u);
}

TEST(Emitter, PrefetchesStreamLoadsOncePerLineAndPlainLoadsNever) {
  // Prefetching is a property of how the generator writes an access, not a
  // pattern found in the trace: the same unit-stride walk gets one hint per
  // 64 B line through stream_load and none through load (a gather's form).
  constexpr Addr kBytes = 1024;
  const CodegenOptions o = CodegenOptions::only_prefetch();
  const TraceSummary plain = summarize(emit(o, [](Emitter& em) {
    for (Addr a = 0x1000; a < 0x1000 + kBytes; a += 8) em.load(a);
  }));
  const TraceSummary stream = summarize(emit(o, [](Emitter& em) {
    for (Addr a = 0x1000; a < 0x1000 + kBytes; a += 8) em.stream_load(a);
  }));
  EXPECT_EQ(plain.loads, kBytes / 8);
  EXPECT_EQ(plain.prefetches, 0u);
  EXPECT_EQ(stream.loads, kBytes / 8);
  EXPECT_EQ(stream.prefetches, kBytes / 64);
}

TEST(Emitter, PrefetchTargetsAheadOfTheStream) {
  const CodegenOptions o = CodegenOptions::only_prefetch();
  const cpu::Trace t = emit(o, [](Emitter& em) {
    em.stream_load(0);  // first in line 0 -> prefetch 0 + distance
  });
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].kind, cpu::OpKind::kPrefetch);
  EXPECT_EQ(t[0].addr, kPrefetchDistanceBytes);
}

// ---- Closed-form scalar memory-op counts. ----

TEST(KernelCounts, Atax) {
  const TraceSummary s = summarize(emit(kBase, atax_into, 12, 16));
  EXPECT_EQ(s.loads, 4u * 12 * 16);
  EXPECT_EQ(s.stores, 16u + 12 * 16);
  EXPECT_EQ(s.prefetches, 0u);
}

TEST(KernelCounts, Bicg) {
  const TraceSummary s = summarize(emit(kBase, bicg_into, 10, 14));
  EXPECT_EQ(s.loads, 10u * (1 + 3 * 14));
  EXPECT_EQ(s.stores, 14u + 10 * (14 + 1));
}

TEST(KernelCounts, Gemm) {
  const TraceSummary s = summarize(emit(kBase, gemm_into, 5, 6, 7));
  EXPECT_EQ(s.loads, 5u * 6 * (1 + 2 * 7));
  EXPECT_EQ(s.stores, 5u * 6);
}

TEST(KernelCounts, Gesummv) {
  const TraceSummary s = summarize(emit(kBase, gesummv_into, 9));
  EXPECT_EQ(s.loads, 3u * 9 * 9);
  EXPECT_EQ(s.stores, 9u);
}

TEST(KernelCounts, Mvt) {
  const TraceSummary s = summarize(emit(kBase, mvt_into, 11));
  EXPECT_EQ(s.loads, 2u * 11 + 4 * 11 * 11);
  EXPECT_EQ(s.stores, 2u * 11);
}

TEST(KernelCounts, Trisolv) {
  const std::uint64_t n = 13;
  const TraceSummary s = summarize(emit(kBase, trisolv_into, n));
  EXPECT_EQ(s.loads, 2 * n + n * (n - 1));
  EXPECT_EQ(s.stores, n);
}

TEST(KernelCounts, Syrk) {
  const std::uint64_t n = 8;
  const std::uint64_t m = 5;
  const std::uint64_t pairs = n * (n + 1) / 2;
  const TraceSummary s = summarize(emit(kBase, syrk_into, n, m));
  EXPECT_EQ(s.loads, pairs * (1 + 2 * m));
  EXPECT_EQ(s.stores, pairs);
}

TEST(KernelCounts, Syr2k) {
  const std::uint64_t n = 6;
  const std::uint64_t m = 4;
  const std::uint64_t pairs = n * (n + 1) / 2;
  const TraceSummary s = summarize(emit(kBase, syr2k_into, n, m));
  EXPECT_EQ(s.loads, pairs * (1 + 4 * m));
  EXPECT_EQ(s.stores, pairs);
}

TEST(KernelCounts, Trmm) {
  const std::uint64_t n = 7;
  const std::uint64_t m = 5;
  const TraceSummary s = summarize(emit(kBase, trmm_into, n, m));
  EXPECT_EQ(s.loads, m * n * n);
  EXPECT_EQ(s.stores, n * m);
}

TEST(KernelCounts, TwoMm) {
  const TraceSummary s = summarize(emit(kBase, two_mm_into, 4, 5, 6, 7));
  EXPECT_EQ(s.loads, 4u * 5 * (1 + 2 * 6) + 4u * 7 * (1 + 2 * 5));
  EXPECT_EQ(s.stores, 4u * 5 + 4u * 7);
}

TEST(KernelCounts, ThreeMm) {
  const TraceSummary s = summarize(emit(kBase, three_mm_into, 3, 4, 5, 6, 7));
  EXPECT_EQ(s.loads, 3u * 4 * (1 + 2 * 5)      // E = A B
                         + 4u * 6 * (1 + 2 * 7)  // F = C D
                         + 3u * 6 * (1 + 2 * 4));  // G = E F
  EXPECT_EQ(s.stores, 3u * 4 + 4u * 6 + 3u * 6);
}

TEST(KernelCounts, Jacobi1d) {
  const std::uint64_t n = 20;
  const std::uint64_t t = 3;
  const TraceSummary s = summarize(emit(kBase, jacobi_1d_into, n, t));
  EXPECT_EQ(s.loads, t * 2 * (n - 2) * 3);
  EXPECT_EQ(s.stores, t * 2 * (n - 2));
}

TEST(KernelCounts, Jacobi2d) {
  const std::uint64_t n = 10;
  const std::uint64_t t = 2;
  const TraceSummary s = summarize(emit(kBase, jacobi_2d_into, n, t));
  EXPECT_EQ(s.loads, t * 2 * (n - 2) * (n - 2) * 5);
  EXPECT_EQ(s.stores, t * 2 * (n - 2) * (n - 2));
}

TEST(KernelCounts, Gemver) {
  const std::uint64_t n = 6;
  const TraceSummary s = summarize(emit(kBase, gemver_into, n));
  // Phase 1: 2 + 3n loads, n stores per row. Phase 2: 2n + 1 loads, 1 store
  // per i. Phase 3: 1 + 2n loads... counted from the generator:
  EXPECT_EQ(s.loads, n * (2 + 3 * n)        // phase 1 (u1, u2; A, v1, v2)
                         + n * (2 * n + 1)  // phase 2 (A, y per j; z)
                         + n * (2 * n));    // phase 3 (A, x per j)
  EXPECT_EQ(s.stores, n * n + n + n);
}

TEST(KernelCounts, Cholesky) {
  const std::uint64_t n = 10;
  const TraceSummary s = summarize(emit(kBase, cholesky_into, n));
  EXPECT_EQ(s.loads, n * (n + 1) * (2 * n + 1) / 6);
  EXPECT_EQ(s.stores, n * (n + 1) / 2);
}

TEST(KernelCounts, Lu) {
  const std::uint64_t n = 9;
  const TraceSummary s = summarize(emit(kBase, lu_into, n));
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
  const TraceSummary s = summarize(emit(kBase, symm_into, m, n));
  EXPECT_EQ(s.loads, n * m * (m + 2));
  EXPECT_EQ(s.stores, n * m * (m + 1) / 2);
}

TEST(KernelCounts, Doitgen) {
  const std::uint64_t nr = 3;
  const std::uint64_t nq = 4;
  const std::uint64_t np = 6;
  const TraceSummary s = summarize(emit(kBase, doitgen_into, nr, nq, np));
  EXPECT_EQ(s.loads, nr * nq * (2 * np * np + np));
  EXPECT_EQ(s.stores, nr * nq * 2 * np);
}

TEST(KernelCounts, Seidel2d) {
  const std::uint64_t n = 8;
  const std::uint64_t t = 2;
  const TraceSummary s = summarize(emit(kBase, seidel_2d_into, n, t));
  EXPECT_EQ(s.loads, t * (n - 2) * (n - 2) * 9);
  EXPECT_EQ(s.stores, t * (n - 2) * (n - 2));
}

TEST(KernelCounts, Covariance) {
  const std::uint64_t m = 6;
  const std::uint64_t n = 5;
  const std::uint64_t pairs = m * (m + 1) / 2;
  const TraceSummary s = summarize(emit(kBase, covariance_into, m, n));
  EXPECT_EQ(s.loads, m * n + 2 * m * n + pairs * 2 * n);
  EXPECT_EQ(s.stores, m + m * n + 2 * pairs);
}

TEST(KernelCounts, FloydWarshall) {
  const std::uint64_t n = 7;
  const TraceSummary s = summarize(emit(kBase, floyd_warshall_into, n));
  EXPECT_EQ(s.loads, n * n * (1 + 2 * n));
  EXPECT_EQ(s.stores, n * n * n);
}

TEST(KernelCounts, Durbin) {
  const std::uint64_t n = 9;
  const TraceSummary s = summarize(emit(kBase, durbin_into, n));
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
  const TraceSummary s = summarize(emit(kBase, gramschmidt_into, m, n));
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
  const TraceSummary s = summarize(emit(kBase, adi_into, n, t));
  const std::uint64_t interior = (n - 2) * (n - 2);
  EXPECT_EQ(s.loads, t * interior * (5 + 3));
  EXPECT_EQ(s.stores, t * interior * (2 + 1));
}

TEST(KernelCounts, Fdtd2d) {
  const std::uint64_t nx = 6;
  const std::uint64_t ny = 7;
  const std::uint64_t t = 2;
  const TraceSummary s = summarize(emit(kBase, fdtd_2d_into, nx, ny, t));
  const std::uint64_t ey_ops = (nx - 1) * ny;
  const std::uint64_t ex_ops = nx * (ny - 1);
  const std::uint64_t hz_ops = (nx - 1) * (ny - 1);
  EXPECT_EQ(s.loads, t * (3 * ey_ops + 3 * ex_ops + 5 * hz_ops));
  EXPECT_EQ(s.stores, t * (ey_ops + ex_ops + hz_ops));
}

TEST(KernelCounts, Heat3d) {
  const std::uint64_t n = 6;
  const std::uint64_t t = 2;
  const TraceSummary s = summarize(emit(kBase, heat_3d_into, n, t));
  const std::uint64_t interior = (n - 2) * (n - 2) * (n - 2);
  EXPECT_EQ(s.loads, t * 2 * interior * 7);
  EXPECT_EQ(s.stores, t * 2 * interior);
}

TEST(KernelCounts, SeidelHasNoVectorShape) {
  // Gauss-Seidel is loop-carried: the vectorize flag must not change the
  // memory-op structure (prefetch/branch options still apply).
  const TraceSummary a = summarize(emit(kBase, seidel_2d_into, 12, 2));
  const TraceSummary b =
      summarize(emit(CodegenOptions::only_vectorize(), seidel_2d_into, 12, 2));
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
}

// ---- Vector-shape invariants. ----

class VectorShape : public ::testing::TestWithParam<const char*> {};

TEST_P(VectorShape, PreservesBytesMovedForDivisibleSizes) {
  const Kernel& k = find_kernel(GetParam());
  const TraceSummary scalar =
      summarize(cpu::reassemble(k.generate_decoded(kBase)));
  const TraceSummary vec = summarize(
      cpu::reassemble(k.generate_decoded(CodegenOptions::only_vectorize())));
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
  const TraceSummary scalar = summarize(emit(kBase, gesummv_into, 16));
  const TraceSummary vec =
      summarize(emit(CodegenOptions::only_vectorize(), gesummv_into, 16));
  EXPECT_EQ(vec.bytes_loaded, scalar.bytes_loaded);
  EXPECT_EQ(vec.bytes_stored, scalar.bytes_stored);
  EXPECT_EQ(vec.loads, scalar.loads / 4);
}

TEST(VectorShapeDetail, EpilogueHandlesNonDivisibleSizes) {
  // n = 7: one 4-wide chunk + 3 scalar lanes; bytes must still match.
  const TraceSummary scalar = summarize(emit(kBase, gesummv_into, 7));
  const TraceSummary vec =
      summarize(emit(CodegenOptions::only_vectorize(), gesummv_into, 7));
  EXPECT_EQ(vec.bytes_loaded, scalar.bytes_loaded);
  EXPECT_EQ(vec.bytes_stored, scalar.bytes_stored);
}

TEST(VectorShapeDetail, GemmIkjShapeIsUnitStrideOnly) {
  // The vector gemm never walks a column: all loads are 8- or 32-byte and
  // consecutive same-array accesses differ by at most +32.
  const cpu::Trace t =
      emit(CodegenOptions::only_vectorize(), gemm_into, 8, 8, 8);
  for (const cpu::TraceOp& op : t) {
    if (op.kind == cpu::OpKind::kLoad) {
      EXPECT_TRUE(op.size == 8 || op.size == 32);
    }
  }
}

TEST(Prefetching, EmitsPrefetchesOnStreamingKernels) {
  const TraceSummary s =
      summarize(emit(CodegenOptions::only_prefetch(), atax_into, 16, 16));
  EXPECT_GT(s.prefetches, 0u);
}

TEST(Prefetching, ScalarColumnWalksAreNotPrefetched) {
  // mvt phase 2 walks columns in the scalar shape; only the unit-stride
  // phase-1 streams get hints. Prefetches must be well below the load count.
  const TraceSummary s =
      summarize(emit(CodegenOptions::only_prefetch(), mvt_into, 32));
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
    const cpu::Trace a = cpu::reassemble(k.generate_decoded(kBase));
    const cpu::Trace b = cpu::reassemble(k.generate_decoded(kBase));
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

// ---- Direct synthesis == decode of its reassembly. ----

// Field-by-field digest of each suite kernel's traces under the five
// codegen variants below, in suite order. A change to the generators that
// is meant to keep every trace as it is must leave these unchanged; replace
// an entry only for an intentional change to a kernel's model.
constexpr struct {
  const char* kernel;
  std::uint64_t digest;
} kPinnedTraces[] = {
    {"atax", 0x3750ec7840383ce6},
    {"bicg", 0x3b13367d5387fb57},
    {"gemm", 0xd3aa59f4b6388278},
    {"gemver", 0x4c0452f8252513bd},
    {"gesummv", 0xe06165961707e4d8},
    {"mvt", 0x3660cb8ac130f3f3},
    {"syrk", 0x215cea5d593aa605},
    {"syr2k", 0x18ca540c93e4dae7},
    {"trisolv", 0x4d0b949d9aaed14f},
    {"trmm", 0x6a2ea309f664497c},
    {"2mm", 0x47e19792cd22e7dd},
    {"3mm", 0x6a5596f675b777e7},
    {"jacobi-1d", 0x134af20acc9bf5fe},
    {"jacobi-2d", 0x50c97201c7a9d5f5},
    {"cholesky", 0x4f7ab5a752033745},
    {"lu", 0x2b05b6774eb0734c},
    {"symm", 0x69d8dee4fe87a129},
    {"doitgen", 0x0174cce277dd4eaf},
    {"seidel-2d", 0x54a379a3e03e86cb},
    {"covariance", 0x2d036bab77d44cb5},
    {"floyd-warshall", 0xa2203305e95d8742},
    {"durbin", 0x3b38fed934b38af3},
    {"gramschmidt", 0x29c68b3079dcb3d4},
    {"adi", 0xe494fa6d3543a046},
    {"fdtd-2d", 0x29fc62c66844507a},
    {"heat-3d", 0x00989ffbc4d9660f},
};

TEST(DirectSynthesis, ByteIdenticalAcrossSuiteAndCodegen) {
  using workloads::CodegenOptions;
  const CodegenOptions variants[] = {
      CodegenOptions::none(), CodegenOptions::only_vectorize(),
      CodegenOptions::only_prefetch(), CodegenOptions::only_branch_opts(),
      CodegenOptions::all()};
  const std::vector<workloads::Kernel>& suite = workloads::polybench_suite();
  ASSERT_EQ(suite.size(), std::size(kPinnedTraces));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const workloads::Kernel& k = suite[i];
    ASSERT_TRUE(k.generate_decoded) << k.name;
    util::Hash64 h;
    for (std::size_t v = 0; v < std::size(variants); ++v) {
      SCOPED_TRACE(k.name + " variant " + std::to_string(v));
      const cpu::DecodedTrace direct = k.generate_decoded(variants[v]);
      const cpu::DecodedTrace via_decode =
          cpu::decode(cpu::reassemble(direct));
      ASSERT_EQ(direct.size(), via_decode.size());
      // Synthesized in one pass into chunks: as many as its ops fill.
      ASSERT_EQ(direct.chunk_count(),
                (direct.size() + cpu::kChunkOps - 1) / cpu::kChunkOps);
      ASSERT_EQ(via_decode.chunk_count(), direct.chunk_count());
      h.u64(direct.size());
      std::size_t stores = 0;
      for (std::size_t c = 0; c < direct.chunk_count(); ++c) {
        const std::span<const cpu::DecodedOp> ops = direct.chunk(c);
        // Packed 16-byte ops: byte identity, not just field equality.
        EXPECT_EQ(std::memcmp(ops.data(), via_decode.chunk(c).data(),
                              ops.size_bytes()),
                  0);
        for (const cpu::DecodedOp& op : ops) {
          h.u64(op.addr).u32(op.count).u8(static_cast<std::uint8_t>(op.kind));
          h.u8(op.size).u8(op.span32).u8(op.span64);
          stores += op.kind == cpu::OpKind::kStore;
        }
      }
      // A 0 per store keeps kPinnedTraces valid: its digests were taken
      // when each store's (always zero) payload was hashed here.
      for (std::size_t s = 0; s < stores; ++s) h.u64(0);
    }
    EXPECT_STREQ(kPinnedTraces[i].kernel, k.name.c_str());
    EXPECT_EQ(h.digest(), kPinnedTraces[i].digest)
        << k.name << ": 0x" << std::hex << h.digest();
  }
}

}  // namespace
}  // namespace sttsim::workloads
