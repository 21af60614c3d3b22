// PolyBench kernel trace generators.
//
// Each function symbolically executes one PolyBench/C kernel and returns its
// dynamic trace. Two code shapes exist per kernel, selected by
// CodegenOptions::vectorize:
//  * scalar  — the textbook PolyBench loop nest (including its column-stride
//              walks), with register-allocated accumulators as any -O2
//              compiler produces;
//  * vector  — the manually vectorized shape the paper's Section V
//              intrinsics produce: inner loops made unit-stride (by loop
//              interchange where needed) and processed vector_width doubles
//              at a time, with scalar epilogues for remainders.
// Prefetch and branch/alignment options lower inside the Emitter.
//
// Doc comments give the exact scalar memory-op counts; tests assert them.
#pragma once

#include "sttsim/cpu/trace.hpp"
#include "sttsim/workloads/codegen.hpp"
#include "sttsim/workloads/emitter.hpp"

namespace sttsim::workloads {

/// atax: y = A^T (A x), A is m x n.
/// Scalar memory ops: loads = 4*m*n, stores = n + m*n.
cpu::Trace atax(std::uint64_t m, std::uint64_t n, const CodegenOptions& o);

/// bicg: s = A^T r ; q = A p, A is m x n.
cpu::Trace bicg(std::uint64_t m, std::uint64_t n, const CodegenOptions& o);

/// gemver: A += u1 v1^T + u2 v2^T ; x = beta A^T y + z ; w = alpha A x.
cpu::Trace gemver(std::uint64_t n, const CodegenOptions& o);

/// gesummv: y = alpha A x + beta B x.
cpu::Trace gesummv(std::uint64_t n, const CodegenOptions& o);

/// mvt: x1 += A y1 ; x2 += A^T y2.
cpu::Trace mvt(std::uint64_t n, const CodegenOptions& o);

/// trisolv: forward substitution L x = b.
cpu::Trace trisolv(std::uint64_t n, const CodegenOptions& o);

/// gemm: C = alpha A B + beta C; A ni x nk, B nk x nj, C ni x nj.
cpu::Trace gemm(std::uint64_t ni, std::uint64_t nj, std::uint64_t nk,
                const CodegenOptions& o);

/// syrk: C = alpha A A^T + beta C (lower triangle), A n x m.
cpu::Trace syrk(std::uint64_t n, std::uint64_t m, const CodegenOptions& o);

/// syr2k: C = alpha (A B^T + B A^T) + beta C (lower triangle), A,B n x m.
cpu::Trace syr2k(std::uint64_t n, std::uint64_t m, const CodegenOptions& o);

/// trmm: B = alpha A B with A unit-lower-triangular n x n, B n x m.
cpu::Trace trmm(std::uint64_t n, std::uint64_t m, const CodegenOptions& o);

/// 2mm: D = alpha A B C + beta D (tmp = A B, then D).
cpu::Trace two_mm(std::uint64_t ni, std::uint64_t nj, std::uint64_t nk,
                  std::uint64_t nl, const CodegenOptions& o);

/// 3mm: G = (A B)(C D).
cpu::Trace three_mm(std::uint64_t ni, std::uint64_t nj, std::uint64_t nk,
                    std::uint64_t nl, std::uint64_t nm,
                    const CodegenOptions& o);

/// jacobi-1d: tsteps of the 3-point stencil, double-buffered.
cpu::Trace jacobi_1d(std::uint64_t n, std::uint64_t tsteps,
                     const CodegenOptions& o);

/// jacobi-2d: tsteps of the 5-point stencil, double-buffered.
cpu::Trace jacobi_2d(std::uint64_t n, std::uint64_t tsteps,
                     const CodegenOptions& o);

// --- Extended suite (factorizations, data mining, dynamic programming). ---

/// cholesky: in-place Cholesky factorization of an n x n SPD matrix.
cpu::Trace cholesky(std::uint64_t n, const CodegenOptions& o);

/// lu: in-place LU factorization (textbook left-looking scalar shape,
/// right-looking rank-1-update vector shape).
cpu::Trace lu(std::uint64_t n, const CodegenOptions& o);

/// symm: C = alpha A B + beta C with A symmetric m x m, B/C m x n.
cpu::Trace symm(std::uint64_t m, std::uint64_t n, const CodegenOptions& o);

/// doitgen: multiresolution kernel A[r][q][*] = A[r][q][*] . C4.
cpu::Trace doitgen(std::uint64_t nr, std::uint64_t nq, std::uint64_t np,
                   const CodegenOptions& o);

/// seidel-2d: tsteps of the in-place 9-point Gauss-Seidel stencil
/// (loop-carried: vectorization does not apply).
cpu::Trace seidel_2d(std::uint64_t n, std::uint64_t tsteps,
                     const CodegenOptions& o);

/// covariance: column means, centring, and the covariance matrix of an
/// n x m data set.
cpu::Trace covariance(std::uint64_t m, std::uint64_t n,
                      const CodegenOptions& o);

/// floyd-warshall: all-pairs shortest paths on an n-vertex dense graph.
cpu::Trace floyd_warshall(std::uint64_t n, const CodegenOptions& o);

/// durbin: Yule-Walker (Levinson-Durbin) recurrence solver.
cpu::Trace durbin(std::uint64_t n, const CodegenOptions& o);

/// gramschmidt: modified Gram-Schmidt QR of an m x n matrix.
cpu::Trace gramschmidt(std::uint64_t m, std::uint64_t n,
                       const CodegenOptions& o);

/// adi: alternating-direction-implicit 2-D solver, tsteps iterations.
cpu::Trace adi(std::uint64_t n, std::uint64_t tsteps,
               const CodegenOptions& o);

/// fdtd-2d: 2-D finite-difference time-domain (ex/ey/hz) kernel.
cpu::Trace fdtd_2d(std::uint64_t nx, std::uint64_t ny, std::uint64_t tsteps,
                   const CodegenOptions& o);

/// heat-3d: 7-point 3-D heat stencil, double-buffered.
cpu::Trace heat_3d(std::uint64_t n, std::uint64_t tsteps,
                   const CodegenOptions& o);

// --- Direct-to-decoded emission bodies. -----------------------------------
//
// Each kernel's symbolic execution emits into a caller-supplied Emitter
// (whose CodegenOptions select the code shape). Bodies are pure functions of
// their sizes and options, so synthesize() can run each twice — a counting
// pass, then a fill pass into an exactly-sized trace. The cpu::Trace
// wrappers above are thin `reassemble(synthesize(o, X_into...))` shells. The
// suite builds both Kernel::generate and Kernel::generate_decoded from
// these, so the campaign cold path synthesizes packed DecodedOps directly —
// no TraceOp vector, no separate decode pass, no op-vector regrowth.

void atax_into(Emitter& em, std::uint64_t m, std::uint64_t n);
void bicg_into(Emitter& em, std::uint64_t m, std::uint64_t n);
void gemver_into(Emitter& em, std::uint64_t n);
void gesummv_into(Emitter& em, std::uint64_t n);
void mvt_into(Emitter& em, std::uint64_t n);
void trisolv_into(Emitter& em, std::uint64_t n);
void gemm_into(Emitter& em, std::uint64_t ni, std::uint64_t nj,
               std::uint64_t nk);
void syrk_into(Emitter& em, std::uint64_t n, std::uint64_t m);
void syr2k_into(Emitter& em, std::uint64_t n, std::uint64_t m);
void trmm_into(Emitter& em, std::uint64_t n, std::uint64_t m);
void two_mm_into(Emitter& em, std::uint64_t ni, std::uint64_t nj,
                 std::uint64_t nk, std::uint64_t nl);
void three_mm_into(Emitter& em, std::uint64_t ni, std::uint64_t nj,
                   std::uint64_t nk, std::uint64_t nl, std::uint64_t nm);
void jacobi_1d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps);
void jacobi_2d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps);
void cholesky_into(Emitter& em, std::uint64_t n);
void lu_into(Emitter& em, std::uint64_t n);
void symm_into(Emitter& em, std::uint64_t m, std::uint64_t n);
void doitgen_into(Emitter& em, std::uint64_t nr, std::uint64_t nq,
                  std::uint64_t np);
void seidel_2d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps);
void covariance_into(Emitter& em, std::uint64_t m, std::uint64_t n);
void floyd_warshall_into(Emitter& em, std::uint64_t n);
void durbin_into(Emitter& em, std::uint64_t n);
void gramschmidt_into(Emitter& em, std::uint64_t m, std::uint64_t n);
void adi_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps);
void fdtd_2d_into(Emitter& em, std::uint64_t nx, std::uint64_t ny,
                  std::uint64_t tsteps);
void heat_3d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps);

}  // namespace sttsim::workloads
