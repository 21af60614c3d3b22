// PolyBench kernel trace generators.
//
// Each function symbolically executes one PolyBench/C kernel into an
// Emitter, whose CodegenOptions select one of two code shapes:
//  * scalar  — the textbook PolyBench loop nest (including its column-stride
//              walks), with register-allocated accumulators as any -O2
//              compiler produces;
//  * vector  — the manually vectorized shape the paper's Section V
//              intrinsics produce: inner loops made unit-stride (by loop
//              interchange where needed) and processed kVectorWidth doubles
//              at a time, with scalar epilogues for remainders (vloop).
// Prefetch and branch/alignment options lower inside the Emitter.
//
// Bodies are pure functions of their sizes and options; synthesize() runs
// one once to produce its trace. The suite (suite.hpp) wires each kernel at
// its default size; other sizes go through synthesize() or emit().
//
// Doc comments give the exact scalar memory-op counts; tests assert them.
#pragma once

#include <cstdint>

#include "sttsim/workloads/emitter.hpp"

namespace sttsim::workloads {

/// atax: y = A^T (A x), A is m x n.
/// Scalar memory ops: loads = 4*m*n, stores = n + m*n.
void atax_into(Emitter& em, std::uint64_t m, std::uint64_t n);

/// bicg: s = A^T r ; q = A p, A is m x n.
void bicg_into(Emitter& em, std::uint64_t m, std::uint64_t n);

/// gemver: A += u1 v1^T + u2 v2^T ; x = beta A^T y + z ; w = alpha A x.
void gemver_into(Emitter& em, std::uint64_t n);

/// gesummv: y = alpha A x + beta B x.
void gesummv_into(Emitter& em, std::uint64_t n);

/// mvt: x1 += A y1 ; x2 += A^T y2.
void mvt_into(Emitter& em, std::uint64_t n);

/// trisolv: forward substitution L x = b.
void trisolv_into(Emitter& em, std::uint64_t n);

/// gemm: C = alpha A B + beta C; A ni x nk, B nk x nj, C ni x nj.
void gemm_into(Emitter& em, std::uint64_t ni, std::uint64_t nj,
               std::uint64_t nk);

/// syrk: C = alpha A A^T + beta C (lower triangle), A n x m.
void syrk_into(Emitter& em, std::uint64_t n, std::uint64_t m);

/// syr2k: C = alpha (A B^T + B A^T) + beta C (lower triangle), A,B n x m.
void syr2k_into(Emitter& em, std::uint64_t n, std::uint64_t m);

/// trmm: B = alpha A B with A unit-lower-triangular n x n, B n x m.
void trmm_into(Emitter& em, std::uint64_t n, std::uint64_t m);

/// 2mm: D = alpha A B C + beta D (tmp = A B, then D).
void two_mm_into(Emitter& em, std::uint64_t ni, std::uint64_t nj,
                 std::uint64_t nk, std::uint64_t nl);

/// 3mm: G = (A B)(C D).
void three_mm_into(Emitter& em, std::uint64_t ni, std::uint64_t nj,
                   std::uint64_t nk, std::uint64_t nl, std::uint64_t nm);

/// jacobi-1d: tsteps of the 3-point stencil, double-buffered.
void jacobi_1d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps);

/// jacobi-2d: tsteps of the 5-point stencil, double-buffered.
void jacobi_2d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps);

// --- Extended suite (factorizations, data mining, dynamic programming). ---

/// cholesky: in-place Cholesky factorization of an n x n SPD matrix.
void cholesky_into(Emitter& em, std::uint64_t n);

/// lu: in-place LU factorization (textbook left-looking scalar shape,
/// right-looking rank-1-update vector shape).
void lu_into(Emitter& em, std::uint64_t n);

/// symm: C = alpha A B + beta C with A symmetric m x m, B/C m x n.
void symm_into(Emitter& em, std::uint64_t m, std::uint64_t n);

/// doitgen: multiresolution kernel A[r][q][*] = A[r][q][*] . C4.
void doitgen_into(Emitter& em, std::uint64_t nr, std::uint64_t nq,
                  std::uint64_t np);

/// seidel-2d: tsteps of the in-place 9-point Gauss-Seidel stencil
/// (loop-carried: vectorization does not apply).
void seidel_2d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps);

/// covariance: column means, centring, and the covariance matrix of an
/// n x m data set.
void covariance_into(Emitter& em, std::uint64_t m, std::uint64_t n);

/// floyd-warshall: all-pairs shortest paths on an n-vertex dense graph.
void floyd_warshall_into(Emitter& em, std::uint64_t n);

/// durbin: Yule-Walker (Levinson-Durbin) recurrence solver.
void durbin_into(Emitter& em, std::uint64_t n);

/// gramschmidt: modified Gram-Schmidt QR of an m x n matrix.
void gramschmidt_into(Emitter& em, std::uint64_t m, std::uint64_t n);

/// adi: alternating-direction-implicit 2-D solver, tsteps iterations.
void adi_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps);

/// fdtd-2d: 2-D finite-difference time-domain (ex/ey/hz) kernel.
void fdtd_2d_into(Emitter& em, std::uint64_t nx, std::uint64_t ny,
                  std::uint64_t tsteps);

/// heat-3d: 7-point 3-D heat stencil, double-buffered.
void heat_3d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps);

}  // namespace sttsim::workloads
