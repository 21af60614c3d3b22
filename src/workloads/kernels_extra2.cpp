// Further PolyBench kernels: recurrences, orthogonalization and
// multi-dimensional stencils.
#include <cstdint>

#include "sttsim/workloads/data_layout.hpp"
#include "sttsim/workloads/emitter.hpp"
#include "sttsim/workloads/kernels.hpp"

namespace sttsim::workloads {

void durbin_into(Emitter& em, std::uint64_t n) {
  DataLayout mem;
  const Vector r = mem.vector("r", n);
  const Vector y = mem.vector("y", n);
  const Vector z = mem.vector("z", n);

  em.load(r.at(0));
  em.exec(2);
  em.store(y.at(0));
  for (std::uint64_t k = 1; k < n; ++k) {
    em.loop_iter();
    // beta/alpha updates: sum_{i<k} r[k-i-1] * y[i]. The r walk runs
    // backwards; both are unit-stride (one descending).
    em.exec(2);
    vloop(em, 0, k, [&](std::uint64_t i, unsigned w) {
      em.load(r.at(k - i - 1), w);  // descending walk
      em.stream_load(y.at(i), w);
      em.flop(2);
    });
    if (em.width() > 1) em.flop(2);
    em.load(r.at(k));
    em.exec(10);  // alpha = -(r[k] + dot) / beta
    // z[i] = y[i] + alpha * y[k-i-1]; then copy back.
    vloop(em, 0, k, [&](std::uint64_t i, unsigned w) {
      em.stream_load(y.at(i), w);
      em.load(y.at(k - i - 1), w);
      em.flop(2);
      em.stream_store(z.at(i), w);
    });
    vloop(em, 0, k, [&](std::uint64_t i, unsigned w) {
      em.stream_load(z.at(i), w);
      em.stream_store(y.at(i), w);
    });
    em.store(y.at(k));
  }
}

void gramschmidt_into(Emitter& em, std::uint64_t m, std::uint64_t n) {
  const CodegenOptions& o = em.options();
  DataLayout mem;
  const Matrix A = mem.matrix("A", m, n);
  const Matrix R = mem.matrix("R", n, n);
  const Matrix Q = mem.matrix("Q", m, n);

  for (std::uint64_t k = 0; k < n; ++k) {
    em.loop_iter();
    if (!o.vectorize) {
      // Column norms and updates walk columns (stride n).
      em.exec(1);
      em.loop_setup();
      for (std::uint64_t i = 0; i < m; ++i) {
        em.loop_iter();
        em.load(A.at(i, k));
        em.flop(2);
      }
      em.exec(12);  // sqrt
      em.store(R.at(k, k));
      em.loop_setup();
      for (std::uint64_t i = 0; i < m; ++i) {
        em.loop_iter();
        em.load(A.at(i, k));
        em.flop(1);
        em.store(Q.at(i, k));
      }
      em.loop_setup();
      for (std::uint64_t j = k + 1; j < n; ++j) {
        em.loop_iter();
        em.exec(1);
        em.loop_setup();
        for (std::uint64_t i = 0; i < m; ++i) {
          em.loop_iter();
          em.load(Q.at(i, k));
          em.load(A.at(i, j));
          em.flop(2);
        }
        em.store(R.at(k, j));
        em.loop_setup();
        for (std::uint64_t i = 0; i < m; ++i) {
          em.loop_iter();
          em.load(A.at(i, j));
          em.load(Q.at(i, k));
          em.flop(2);
          em.store(A.at(i, j));
        }
      }
    } else {
      // Vector shape: i-inner loops run over rows via interchange — each
      // row segment [k..n) of A is updated against the Q column broadcast,
      // keeping all the long walks unit-stride.
      em.exec(1);
      em.loop_setup();
      for (std::uint64_t i = 0; i < m; ++i) {
        em.loop_iter();
        em.stream_load(A.at(i, k));
        em.flop(2);
      }
      em.exec(12);
      em.store(R.at(k, k));
      em.loop_setup();
      for (std::uint64_t i = 0; i < m; ++i) {
        em.loop_iter();
        em.stream_load(A.at(i, k));
        em.flop(1);
        em.store(Q.at(i, k));
      }
      // R row k: dot products accumulated row-wise.
      vloop(em, k + 1, n, [&](std::uint64_t j, unsigned w) {
        em.stream_store(R.at(k, j), w);
      });
      em.loop_setup();
      for (std::uint64_t i = 0; i < m; ++i) {
        em.loop_iter();
        em.load(Q.at(i, k));
        em.exec(1);  // broadcast
        vloop(em, k + 1, n, [&](std::uint64_t j, unsigned w) {
          em.stream_load(A.at(i, j), w);
          em.stream_load(R.at(k, j), w);
          em.flop(1);
          em.stream_store(R.at(k, j), w);
        });
      }
      em.loop_setup();
      for (std::uint64_t i = 0; i < m; ++i) {
        em.loop_iter();
        em.load(Q.at(i, k));
        em.exec(1);
        vloop(em, k + 1, n, [&](std::uint64_t j, unsigned w) {
          em.stream_load(A.at(i, j), w);
          em.stream_load(R.at(k, j), w);
          em.flop(1);
          em.stream_store(A.at(i, j), w);
        });
      }
    }
  }
}

void adi_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps) {
  const CodegenOptions& o = em.options();
  DataLayout mem;
  const Matrix u = mem.matrix("u", n, n);
  const Matrix v = mem.matrix("v", n, n);
  const Matrix p = mem.matrix("p", n, n);
  const Matrix q = mem.matrix("q", n, n);

  for (std::uint64_t t = 0; t < tsteps; ++t) {
    em.loop_iter();
    // Column sweep: the recurrence runs along i, so the scalar shape walks
    // columns of u; the vector shape interchanges to process w columns of
    // independent recurrences at once (row-major accesses).
    for (std::uint64_t i = 1; i + 1 < n; ++i) {
      em.loop_iter();
      if (!o.vectorize) {
        em.loop_setup();
        for (std::uint64_t j = 1; j + 1 < n; ++j) {
          em.loop_iter();
          em.load(u.at(j, i - 1));  // column walks
          em.load(u.at(j, i));
          em.load(u.at(j, i + 1));
          em.load(p.at(i, j - 1));
          em.load(q.at(i, j - 1));
          em.flop(6);
          em.store(p.at(i, j));
          em.store(q.at(i, j));
        }
      } else {
        vloop(em, 1, n - 1, [&](std::uint64_t j, unsigned w) {
          em.stream_load(u.at(i - 1, j), w);
          em.stream_load(u.at(i, j), w);
          em.stream_load(u.at(i + 1, j), w);
          em.stream_load(p.at(i, j), w);
          em.stream_load(q.at(i, j), w);
          em.flop(6);
          em.stream_store(p.at(i, j), w);
          em.stream_store(q.at(i, j), w);
        });
      }
    }
    // Row sweep (back substitution): unit-stride in both shapes.
    for (std::uint64_t i = 1; i + 1 < n; ++i) {
      em.loop_iter();
      vloop(em, 1, n - 1, [&](std::uint64_t j, unsigned w) {
        em.stream_load(p.at(i, j), w);
        em.stream_load(q.at(i, j), w);
        em.stream_load(v.at(i, j), w);
        em.flop(3);
        em.stream_store(v.at(i, j), w);
      });
    }
  }
}

void fdtd_2d_into(Emitter& em, std::uint64_t nx, std::uint64_t ny,
                  std::uint64_t tsteps) {
  DataLayout mem;
  const Matrix ex = mem.matrix("ex", nx, ny);
  const Matrix ey = mem.matrix("ey", nx, ny);
  const Matrix hz = mem.matrix("hz", nx, ny);

  for (std::uint64_t t = 0; t < tsteps; ++t) {
    em.loop_iter();
    // ey update (rows 1..nx): ey[i][j] -= c*(hz[i][j] - hz[i-1][j]).
    for (std::uint64_t i = 1; i < nx; ++i) {
      em.loop_iter();
      vloop(em, 0, ny, [&](std::uint64_t j, unsigned w) {
        em.stream_load(ey.at(i, j), w);
        em.stream_load(hz.at(i, j), w);
        em.stream_load(hz.at(i - 1, j), w);
        em.flop(2);
        em.stream_store(ey.at(i, j), w);
      });
    }
    // ex update (cols 1..ny).
    for (std::uint64_t i = 0; i < nx; ++i) {
      em.loop_iter();
      vloop(em, 1, ny, [&](std::uint64_t j, unsigned w) {
        em.stream_load(ex.at(i, j), w);
        em.stream_load(hz.at(i, j), w);
        em.load(hz.at(i, j - 1), w);
        em.flop(2);
        em.stream_store(ex.at(i, j), w);
      });
    }
    // hz update.
    for (std::uint64_t i = 0; i + 1 < nx; ++i) {
      em.loop_iter();
      vloop(em, 0, ny - 1, [&](std::uint64_t j, unsigned w) {
        em.stream_load(hz.at(i, j), w);
        em.stream_load(ex.at(i, j), w);
        em.load(ex.at(i, j + 1), w);
        em.stream_load(ey.at(i, j), w);
        em.stream_load(ey.at(i + 1, j), w);
        em.flop(4);
        em.stream_store(hz.at(i, j), w);
      });
    }
  }
}

void heat_3d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps) {
  DataLayout mem;
  // Flattened n x n x n grids, row-major in the last dimension.
  const Matrix A = mem.matrix("A", n * n, n);
  const Matrix B = mem.matrix("B", n * n, n);

  const auto plane = [n](std::uint64_t i, std::uint64_t j) {
    return i * n + j;
  };
  const auto sweep = [&](const Matrix& src, const Matrix& dst) {
    for (std::uint64_t i = 1; i + 1 < n; ++i) {
      em.loop_iter();
      em.loop_setup();
      for (std::uint64_t j = 1; j + 1 < n; ++j) {
        em.loop_iter();
        vloop(em, 1, n - 1, [&](std::uint64_t k, unsigned w) {
          em.stream_load(src.at(plane(i, j), k), w);
          em.load(src.at(plane(i, j), k - 1), w);
          em.load(src.at(plane(i, j), k + 1), w);
          em.stream_load(src.at(plane(i, j - 1), k), w);
          em.stream_load(src.at(plane(i, j + 1), k), w);
          em.stream_load(src.at(plane(i - 1, j), k), w);
          em.stream_load(src.at(plane(i + 1, j), k), w);
          em.flop(6);
          em.stream_store(dst.at(plane(i, j), k), w);
        });
      }
    }
  };

  for (std::uint64_t t = 0; t < tsteps; ++t) {
    em.loop_iter();
    sweep(A, B);
    sweep(B, A);
  }
}

}  // namespace sttsim::workloads
