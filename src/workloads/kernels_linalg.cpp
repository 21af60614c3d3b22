// Linear-algebra (BLAS-1/2 flavoured) PolyBench kernels.
#include <cstdint>

#include "sttsim/workloads/data_layout.hpp"
#include "sttsim/workloads/emitter.hpp"
#include "sttsim/workloads/kernels.hpp"

namespace sttsim::workloads {

void atax_into(Emitter& em, std::uint64_t m, std::uint64_t n) {
  DataLayout mem;
  const Matrix A = mem.matrix("A", m, n);
  const Vector x = mem.vector("x", n);
  const Vector y = mem.vector("y", n);

  // for j: y[j] = 0
  vloop(em, 0, n, [&](std::uint64_t j, unsigned w) {
    em.stream_store(y.at(j), w);
  });

  for (std::uint64_t i = 0; i < m; ++i) {
    em.loop_iter();
    // tmp = sum_j A[i][j] * x[j]  (register accumulator)
    em.exec(1);
    vloop(em, 0, n, [&](std::uint64_t j, unsigned w) {
      em.stream_load(A.at(i, j), w);
      em.stream_load(x.at(j), w);
      em.flop(2);
    });
    // Horizontal reduction of the vector accumulator.
    if (em.width() > 1) em.flop(2);
    // for j: y[j] += A[i][j] * tmp
    vloop(em, 0, n, [&](std::uint64_t j, unsigned w) {
      em.stream_load(y.at(j), w);
      em.stream_load(A.at(i, j), w);
      em.flop(2);
      em.stream_store(y.at(j), w);
    });
  }
}

void bicg_into(Emitter& em, std::uint64_t m, std::uint64_t n) {
  DataLayout mem;
  const Matrix A = mem.matrix("A", m, n);
  const Vector s = mem.vector("s", n);
  const Vector q = mem.vector("q", m);
  const Vector p = mem.vector("p", n);
  const Vector r = mem.vector("r", m);

  vloop(em, 0, n, [&](std::uint64_t j, unsigned w) {
    em.stream_store(s.at(j), w);
  });

  for (std::uint64_t i = 0; i < m; ++i) {
    em.loop_iter();
    em.load(r.at(i));
    em.exec(1);  // q accumulator = 0
    vloop(em, 0, n, [&](std::uint64_t j, unsigned w) {
      em.stream_load(A.at(i, j), w);
      em.stream_load(s.at(j), w);
      em.flop(2);  // s[j] += r[i] * A[i][j]
      em.stream_store(s.at(j), w);
      em.stream_load(p.at(j), w);
      em.flop(2);  // q += A[i][j] * p[j]
    });
    if (em.width() > 1) em.flop(2);
    em.store(q.at(i));
  }
}

void gemver_into(Emitter& em, std::uint64_t n) {
  const CodegenOptions& o = em.options();
  DataLayout mem;
  const Matrix A = mem.matrix("A", n, n);
  const Vector u1 = mem.vector("u1", n);
  const Vector v1 = mem.vector("v1", n);
  const Vector u2 = mem.vector("u2", n);
  const Vector v2 = mem.vector("v2", n);
  const Vector x = mem.vector("x", n);
  const Vector y = mem.vector("y", n);
  const Vector z = mem.vector("z", n);
  const Vector ww = mem.vector("w", n);

  // Phase 1: A += u1 v1^T + u2 v2^T.
  for (std::uint64_t i = 0; i < n; ++i) {
    em.loop_iter();
    em.load(u1.at(i));
    em.load(u2.at(i));
    vloop(em, 0, n, [&](std::uint64_t j, unsigned w) {
      em.stream_load(A.at(i, j), w);
      em.stream_load(v1.at(j), w);
      em.stream_load(v2.at(j), w);
      em.flop(4);
      em.stream_store(A.at(i, j), w);
    });
  }

  // Phase 2: x = beta A^T y + z.
  if (!o.vectorize) {
    // Textbook loop order walks columns of A (stride n).
    for (std::uint64_t i = 0; i < n; ++i) {
      em.loop_iter();
      em.exec(1);  // accumulator
      em.loop_setup();
      for (std::uint64_t j = 0; j < n; ++j) {
        em.loop_iter();
        em.load(A.at(j, i));  // column walk — no stream prefetch
        em.load(y.at(j));
        em.flop(3);
      }
      em.load(z.at(i));
      em.flop(1);
      em.store(x.at(i));
    }
  } else {
    // Vector shape: loop interchange makes the A walk unit-stride rows.
    vloop(em, 0, n, [&](std::uint64_t i, unsigned w) {
      em.stream_store(x.at(i), w);
    });
    for (std::uint64_t j = 0; j < n; ++j) {
      em.loop_iter();
      em.load(y.at(j));
      vloop(em, 0, n, [&](std::uint64_t i, unsigned w) {
        em.stream_load(A.at(j, i), w);
        em.stream_load(x.at(i), w);
        em.flop(3);
        em.stream_store(x.at(i), w);
      });
    }
    vloop(em, 0, n, [&](std::uint64_t i, unsigned w) {
      em.stream_load(x.at(i), w);
      em.stream_load(z.at(i), w);
      em.flop(1);
      em.stream_store(x.at(i), w);
    });
  }

  // Phase 3: w = alpha A x (row walk).
  for (std::uint64_t i = 0; i < n; ++i) {
    em.loop_iter();
    em.exec(1);
    vloop(em, 0, n, [&](std::uint64_t j, unsigned w) {
      em.stream_load(A.at(i, j), w);
      em.stream_load(x.at(j), w);
      em.flop(2);
    });
    if (em.width() > 1) em.flop(2);
    em.store(ww.at(i));
  }
}

void gesummv_into(Emitter& em, std::uint64_t n) {
  DataLayout mem;
  const Matrix A = mem.matrix("A", n, n);
  const Matrix B = mem.matrix("B", n, n);
  const Vector x = mem.vector("x", n);
  const Vector y = mem.vector("y", n);

  for (std::uint64_t i = 0; i < n; ++i) {
    em.loop_iter();
    em.exec(2);  // tmp = 0; yacc = 0
    vloop(em, 0, n, [&](std::uint64_t j, unsigned w) {
      em.stream_load(A.at(i, j), w);
      em.stream_load(B.at(i, j), w);
      em.stream_load(x.at(j), w);
      em.flop(4);
    });
    if (em.width() > 1) em.flop(4);
    em.flop(3);  // y[i] = alpha*tmp + beta*yacc
    em.store(y.at(i));
  }
}

void mvt_into(Emitter& em, std::uint64_t n) {
  const CodegenOptions& o = em.options();
  DataLayout mem;
  const Matrix A = mem.matrix("A", n, n);
  const Vector x1 = mem.vector("x1", n);
  const Vector x2 = mem.vector("x2", n);
  const Vector y1 = mem.vector("y1", n);
  const Vector y2 = mem.vector("y2", n);

  // Phase 1: x1 += A y1 (row walk).
  for (std::uint64_t i = 0; i < n; ++i) {
    em.loop_iter();
    em.load(x1.at(i));
    vloop(em, 0, n, [&](std::uint64_t j, unsigned w) {
      em.stream_load(A.at(i, j), w);
      em.stream_load(y1.at(j), w);
      em.flop(2);
    });
    if (em.width() > 1) em.flop(2);
    em.store(x1.at(i));
  }

  // Phase 2: x2 += A^T y2.
  if (!o.vectorize) {
    for (std::uint64_t i = 0; i < n; ++i) {
      em.loop_iter();
      em.load(x2.at(i));
      em.loop_setup();
      for (std::uint64_t j = 0; j < n; ++j) {
        em.loop_iter();
        em.load(A.at(j, i));  // column walk
        em.load(y2.at(j));
        em.flop(2);
      }
      em.store(x2.at(i));
    }
  } else {
    for (std::uint64_t j = 0; j < n; ++j) {
      em.loop_iter();
      em.load(y2.at(j));
      vloop(em, 0, n, [&](std::uint64_t i, unsigned w) {
        em.stream_load(A.at(j, i), w);
        em.stream_load(x2.at(i), w);
        em.flop(2);
        em.stream_store(x2.at(i), w);
      });
    }
  }
}

void trisolv_into(Emitter& em, std::uint64_t n) {
  DataLayout mem;
  const Matrix L = mem.matrix("L", n, n);
  const Vector x = mem.vector("x", n);
  const Vector b = mem.vector("b", n);

  for (std::uint64_t i = 0; i < n; ++i) {
    em.loop_iter();
    em.load(b.at(i));
    vloop(em, 0, i, [&](std::uint64_t j, unsigned w) {
      em.stream_load(L.at(i, j), w);
      em.stream_load(x.at(j), w);
      em.flop(2);
    });
    if (em.width() > 1) em.flop(2);
    em.load(L.at(i, i));
    em.exec(8);  // the division
    em.store(x.at(i));
  }
}

}  // namespace sttsim::workloads
