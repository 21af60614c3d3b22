// Matrix-matrix (BLAS-3 flavoured) PolyBench kernels.
#include <cstdint>

#include "sttsim/workloads/data_layout.hpp"
#include "sttsim/workloads/emitter.hpp"
#include "sttsim/workloads/kernels.hpp"

namespace sttsim::workloads {
namespace {

template <typename VecFn, typename ScalFn>
void vloop(Emitter& em, std::uint64_t n, VecFn vec, ScalFn scal) {
  const unsigned w = em.width();
  em.loop_setup();
  std::uint64_t j = 0;
  if (w > 1) {
    for (; j + w <= n; j += w) {
      em.loop_iter();
      vec(j);
    }
  }
  for (; j < n; ++j) {
    em.loop_iter();
    scal(j);
  }
}

/// Emits C = alpha * A * B + beta * C.
/// Scalar shape: textbook i-j-k with the column-stride B walk.
/// Vector shape: i-k-j with the unit-stride row updates manual NEON
/// vectorization produces (loop interchange + widening).
void emit_matmul(Emitter& em, const Matrix& C, const Matrix& A,
                 const Matrix& B, bool scale_c) {
  const std::uint64_t ni = C.rows;
  const std::uint64_t nj = C.cols;
  const std::uint64_t nk = A.cols;
  const unsigned w = em.width();

  if (!em.options().vectorize) {
    for (std::uint64_t i = 0; i < ni; ++i) {
      em.loop_iter();
      em.loop_setup();
      for (std::uint64_t j = 0; j < nj; ++j) {
        em.loop_iter();
        em.load(C.at(i, j));
        if (scale_c) em.flop(1);  // beta * C
        em.loop_setup();
        for (std::uint64_t k = 0; k < nk; ++k) {
          em.loop_iter();
          em.stream_load(A.at(i, k));
          em.load(B.at(k, j));  // column walk
          em.flop(2);
        }
        em.store(C.at(i, j));
      }
    }
    return;
  }

  for (std::uint64_t i = 0; i < ni; ++i) {
    em.loop_iter();
    // Scale the C row once.
    vloop(
        em, nj,
        [&](std::uint64_t j) {
          em.stream_load(C.at(i, j), w);
          if (scale_c) em.flop(1);
          em.stream_store(C.at(i, j), w);
        },
        [&](std::uint64_t j) {
          em.stream_load(C.at(i, j));
          if (scale_c) em.flop(1);
          em.stream_store(C.at(i, j));
        });
    em.loop_setup();
    for (std::uint64_t k = 0; k < nk; ++k) {
      em.loop_iter();
      em.stream_load(A.at(i, k));
      em.exec(1);  // broadcast alpha * A[i][k]
      vloop(
          em, nj,
          [&](std::uint64_t j) {
            em.stream_load(B.at(k, j), w);
            em.stream_load(C.at(i, j), w);
            em.flop(1);  // fused multiply-add
            em.stream_store(C.at(i, j), w);
          },
          [&](std::uint64_t j) {
            em.stream_load(B.at(k, j));
            em.stream_load(C.at(i, j));
            em.flop(1);
            em.stream_store(C.at(i, j));
          });
    }
  }
}

}  // namespace

void gemm_into(Emitter& em, std::uint64_t ni, std::uint64_t nj, std::uint64_t nk) {
  DataLayout mem;
  const Matrix A = mem.matrix("A", ni, nk);
  const Matrix B = mem.matrix("B", nk, nj);
  const Matrix C = mem.matrix("C", ni, nj);
  emit_matmul(em, C, A, B, /*scale_c=*/true);
}

cpu::Trace gemm(std::uint64_t ni, std::uint64_t nj, std::uint64_t nk, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { gemm_into(em, ni, nj, nk); }));
}

void syrk_into(Emitter& em, std::uint64_t n, std::uint64_t m) {
  DataLayout mem;
  const Matrix A = mem.matrix("A", n, m);
  const Matrix C = mem.matrix("C", n, n);
  const unsigned w = em.width();

  for (std::uint64_t i = 0; i < n; ++i) {
    em.loop_iter();
    em.loop_setup();
    for (std::uint64_t j = 0; j <= i; ++j) {
      em.loop_iter();
      em.load(C.at(i, j));
      em.flop(1);  // beta * C
      // Both A walks are unit-stride rows; the vector shape simply widens.
      vloop(
          em, m,
          [&](std::uint64_t k) {
            em.stream_load(A.at(i, k), w);
            em.stream_load(A.at(j, k), w);
            em.flop(2);
          },
          [&](std::uint64_t k) {
            em.stream_load(A.at(i, k));
            em.stream_load(A.at(j, k));
            em.flop(2);
          });
      if (w > 1) em.flop(2);
      em.store(C.at(i, j));
    }
  }
}

cpu::Trace syrk(std::uint64_t n, std::uint64_t m, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { syrk_into(em, n, m); }));
}

void syr2k_into(Emitter& em, std::uint64_t n, std::uint64_t m) {
  DataLayout mem;
  const Matrix A = mem.matrix("A", n, m);
  const Matrix B = mem.matrix("B", n, m);
  const Matrix C = mem.matrix("C", n, n);
  const unsigned w = em.width();

  for (std::uint64_t i = 0; i < n; ++i) {
    em.loop_iter();
    em.loop_setup();
    for (std::uint64_t j = 0; j <= i; ++j) {
      em.loop_iter();
      em.load(C.at(i, j));
      em.flop(1);
      vloop(
          em, m,
          [&](std::uint64_t k) {
            em.stream_load(A.at(i, k), w);
            em.stream_load(B.at(j, k), w);
            em.stream_load(B.at(i, k), w);
            em.stream_load(A.at(j, k), w);
            em.flop(3);
          },
          [&](std::uint64_t k) {
            em.stream_load(A.at(i, k));
            em.stream_load(B.at(j, k));
            em.stream_load(B.at(i, k));
            em.stream_load(A.at(j, k));
            em.flop(3);
          });
      if (w > 1) em.flop(2);
      em.store(C.at(i, j));
    }
  }
}

cpu::Trace syr2k(std::uint64_t n, std::uint64_t m, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { syr2k_into(em, n, m); }));
}

void trmm_into(Emitter& em, std::uint64_t n, std::uint64_t m) {
  const CodegenOptions& o = em.options();
  DataLayout mem;
  const Matrix A = mem.matrix("A", n, n);
  const Matrix B = mem.matrix("B", n, m);
  const unsigned w = em.width();

  if (!o.vectorize) {
    // Textbook shape: both the A and B walks inside the k loop are
    // column-stride.
    for (std::uint64_t i = 0; i < n; ++i) {
      em.loop_iter();
      em.loop_setup();
      for (std::uint64_t j = 0; j < m; ++j) {
        em.loop_iter();
        em.load(B.at(i, j));
        em.loop_setup();
        for (std::uint64_t k = i + 1; k < n; ++k) {
          em.loop_iter();
          em.load(A.at(k, i));
          em.load(B.at(k, j));
          em.flop(2);
        }
        em.flop(1);  // alpha scale
        em.store(B.at(i, j));
      }
    }
    return;
  }

  // Vector shape: j innermost and widened; B rows become unit-stride.
  for (std::uint64_t i = 0; i < n; ++i) {
    em.loop_iter();
    em.loop_setup();
    for (std::uint64_t k = i + 1; k < n; ++k) {
      em.loop_iter();
      em.load(A.at(k, i));  // still a column walk, but 1 per row update
      em.exec(1);           // broadcast
      vloop(
          em, m,
          [&](std::uint64_t j) {
            em.stream_load(B.at(k, j), w);
            em.stream_load(B.at(i, j), w);
            em.flop(1);
            em.stream_store(B.at(i, j), w);
          },
          [&](std::uint64_t j) {
            em.stream_load(B.at(k, j));
            em.stream_load(B.at(i, j));
            em.flop(1);
            em.stream_store(B.at(i, j));
          });
    }
    // alpha scale of the finished row.
    vloop(
        em, m,
        [&](std::uint64_t j) {
          em.stream_load(B.at(i, j), w);
          em.flop(1);
          em.stream_store(B.at(i, j), w);
        },
        [&](std::uint64_t j) {
          em.stream_load(B.at(i, j));
          em.flop(1);
          em.stream_store(B.at(i, j));
        });
  }
}

cpu::Trace trmm(std::uint64_t n, std::uint64_t m, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { trmm_into(em, n, m); }));
}

void two_mm_into(Emitter& em, std::uint64_t ni, std::uint64_t nj, std::uint64_t nk, std::uint64_t nl) {
  DataLayout mem;
  const Matrix A = mem.matrix("A", ni, nk);
  const Matrix B = mem.matrix("B", nk, nj);
  const Matrix tmp = mem.matrix("tmp", ni, nj);
  const Matrix C = mem.matrix("C", nj, nl);
  const Matrix D = mem.matrix("D", ni, nl);
  emit_matmul(em, tmp, A, B, /*scale_c=*/false);
  emit_matmul(em, D, tmp, C, /*scale_c=*/true);
}

cpu::Trace two_mm(std::uint64_t ni, std::uint64_t nj, std::uint64_t nk, std::uint64_t nl, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { two_mm_into(em, ni, nj, nk, nl); }));
}

void three_mm_into(Emitter& em, std::uint64_t ni, std::uint64_t nj, std::uint64_t nk, std::uint64_t nl, std::uint64_t nm) {
  DataLayout mem;
  const Matrix A = mem.matrix("A", ni, nk);
  const Matrix B = mem.matrix("B", nk, nj);
  const Matrix E = mem.matrix("E", ni, nj);
  const Matrix C = mem.matrix("C", nj, nm);
  const Matrix D = mem.matrix("D", nm, nl);
  const Matrix F = mem.matrix("F", nj, nl);
  const Matrix G = mem.matrix("G", ni, nl);
  emit_matmul(em, E, A, B, /*scale_c=*/false);
  emit_matmul(em, F, C, D, /*scale_c=*/false);
  emit_matmul(em, G, E, F, /*scale_c=*/false);
}

cpu::Trace three_mm(std::uint64_t ni, std::uint64_t nj, std::uint64_t nk, std::uint64_t nl, std::uint64_t nm, const CodegenOptions& o) {
  return cpu::reassemble(synthesize(
      o, [&](Emitter& em) { three_mm_into(em, ni, nj, nk, nl, nm); }));
}

}  // namespace sttsim::workloads
