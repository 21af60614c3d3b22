// Additional PolyBench kernels: factorizations, data mining and dynamic
// programming — widening the suite beyond the paper's core subset.
#include <cstdint>

#include "sttsim/workloads/data_layout.hpp"
#include "sttsim/workloads/emitter.hpp"
#include "sttsim/workloads/kernels.hpp"

namespace sttsim::workloads {
namespace {

template <typename VecFn, typename ScalFn>
void vloop_range(Emitter& em, std::uint64_t lo, std::uint64_t hi, VecFn vec,
                 ScalFn scal) {
  const unsigned w = em.width();
  em.loop_setup();
  std::uint64_t j = lo;
  if (w > 1) {
    for (; j + w <= hi; j += w) {
      em.loop_iter();
      vec(j);
    }
  }
  for (; j < hi; ++j) {
    em.loop_iter();
    scal(j);
  }
}

}  // namespace

void cholesky_into(Emitter& em, std::uint64_t n) {
  DataLayout mem;
  const Matrix A = mem.matrix("A", n, n);
  const unsigned w = em.width();

  for (std::uint64_t i = 0; i < n; ++i) {
    em.loop_iter();
    // Off-diagonal: A[i][j] = (A[i][j] - sum_k A[i][k]*A[j][k]) / A[j][j].
    em.loop_setup();
    for (std::uint64_t j = 0; j < i; ++j) {
      em.loop_iter();
      em.load(A.at(i, j));
      vloop_range(
          em, 0, j,
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
      em.load(A.at(j, j));
      em.exec(8);  // the division
      em.store(A.at(i, j));
    }
    // Diagonal: A[i][i] = sqrt(A[i][i] - sum_k A[i][k]^2).
    em.load(A.at(i, i));
    vloop_range(
        em, 0, i,
        [&](std::uint64_t k) {
          em.stream_load(A.at(i, k), w);
          em.flop(2);
        },
        [&](std::uint64_t k) {
          em.stream_load(A.at(i, k));
          em.flop(2);
        });
    if (w > 1) em.flop(2);
    em.exec(12);  // the square root
    em.store(A.at(i, i));
  }
}

cpu::Trace cholesky(std::uint64_t n, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { cholesky_into(em, n); }));
}

void lu_into(Emitter& em, std::uint64_t n) {
  const CodegenOptions& o = em.options();
  DataLayout mem;
  const Matrix A = mem.matrix("A", n, n);
  const unsigned w = em.width();

  if (!o.vectorize) {
    // Textbook shape: A[k][j] is a column walk inside the k loop.
    for (std::uint64_t i = 0; i < n; ++i) {
      em.loop_iter();
      em.loop_setup();
      for (std::uint64_t j = 0; j < i; ++j) {
        em.loop_iter();
        em.load(A.at(i, j));
        em.loop_setup();
        for (std::uint64_t k = 0; k < j; ++k) {
          em.loop_iter();
          em.load(A.at(i, k));
          em.load(A.at(k, j));  // column walk
          em.flop(2);
        }
        em.load(A.at(j, j));
        em.exec(8);
        em.store(A.at(i, j));
      }
      em.loop_setup();
      for (std::uint64_t j = i; j < n; ++j) {
        em.loop_iter();
        em.load(A.at(i, j));
        em.loop_setup();
        for (std::uint64_t k = 0; k < i; ++k) {
          em.loop_iter();
          em.load(A.at(i, k));
          em.load(A.at(k, j));  // column walk
          em.flop(2);
        }
        em.store(A.at(i, j));
      }
    }
    return;
  }

  // Vector shape: right-looking update — rank-1 updates of the trailing
  // rows keep every walk unit-stride.
  for (std::uint64_t k = 0; k < n; ++k) {
    em.loop_iter();
    em.load(A.at(k, k));
    em.exec(8);  // reciprocal of the pivot
    // Scale the pivot column entries row by row and update the trailing row.
    em.loop_setup();
    for (std::uint64_t i = k + 1; i < n; ++i) {
      em.loop_iter();
      em.load(A.at(i, k));
      em.flop(1);
      em.store(A.at(i, k));
      em.exec(1);  // broadcast multiplier
      vloop_range(
          em, k + 1, n,
          [&](std::uint64_t j) {
            em.stream_load(A.at(k, j), w);
            em.stream_load(A.at(i, j), w);
            em.flop(1);
            em.stream_store(A.at(i, j), w);
          },
          [&](std::uint64_t j) {
            em.stream_load(A.at(k, j));
            em.stream_load(A.at(i, j));
            em.flop(1);
            em.stream_store(A.at(i, j));
          });
    }
  }
}

cpu::Trace lu(std::uint64_t n, const CodegenOptions& o) {
  return cpu::reassemble(synthesize(o, [&](Emitter& em) { lu_into(em, n); }));
}

void symm_into(Emitter& em, std::uint64_t m, std::uint64_t n) {
  const CodegenOptions& o = em.options();
  DataLayout mem;
  const Matrix A = mem.matrix("A", m, m);  // symmetric
  const Matrix B = mem.matrix("B", m, n);
  const Matrix C = mem.matrix("C", m, n);
  const unsigned w = em.width();

  if (!o.vectorize) {
    for (std::uint64_t i = 0; i < m; ++i) {
      em.loop_iter();
      em.loop_setup();
      for (std::uint64_t j = 0; j < n; ++j) {
        em.loop_iter();
        em.load(B.at(i, j));
        em.exec(1);  // temp2 = 0
        em.loop_setup();
        for (std::uint64_t k = 0; k < i; ++k) {
          em.loop_iter();
          em.load(A.at(i, k));
          em.load(B.at(k, j));  // column walk
          em.flop(2);           // B[k][j] update + temp2 accumulation
          em.store(B.at(k, j));
          em.flop(2);
        }
        em.load(C.at(i, j));
        em.load(A.at(i, i));
        em.flop(4);
        em.store(C.at(i, j));
      }
    }
    return;
  }

  // Vector shape: j widened; B rows unit-stride.
  for (std::uint64_t i = 0; i < m; ++i) {
    em.loop_iter();
    em.loop_setup();
    for (std::uint64_t k = 0; k < i; ++k) {
      em.loop_iter();
      em.load(A.at(i, k));
      em.exec(1);
      vloop_range(
          em, 0, n,
          [&](std::uint64_t j) {
            em.stream_load(B.at(i, j), w);
            em.stream_load(B.at(k, j), w);
            em.flop(2);
            em.stream_store(B.at(k, j), w);
          },
          [&](std::uint64_t j) {
            em.stream_load(B.at(i, j));
            em.stream_load(B.at(k, j));
            em.flop(2);
            em.stream_store(B.at(k, j));
          });
    }
    em.load(A.at(i, i));
    vloop_range(
        em, 0, n,
        [&](std::uint64_t j) {
          em.stream_load(C.at(i, j), w);
          em.stream_load(B.at(i, j), w);
          em.flop(4);
          em.stream_store(C.at(i, j), w);
        },
        [&](std::uint64_t j) {
          em.stream_load(C.at(i, j));
          em.stream_load(B.at(i, j));
          em.flop(4);
          em.stream_store(C.at(i, j));
        });
  }
}

cpu::Trace symm(std::uint64_t m, std::uint64_t n, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { symm_into(em, m, n); }));
}

void doitgen_into(Emitter& em, std::uint64_t nr, std::uint64_t nq, std::uint64_t np) {
  const CodegenOptions& o = em.options();
  DataLayout mem;
  // A is nr x nq x np, flattened row-major; C4 is np x np.
  const Matrix A = mem.matrix("A", nr * nq, np);
  const Matrix C4 = mem.matrix("C4", np, np);
  const Vector sum = mem.vector("sum", np);
  const unsigned w = em.width();

  for (std::uint64_t r = 0; r < nr; ++r) {
    em.loop_iter();
    em.loop_setup();
    for (std::uint64_t q = 0; q < nq; ++q) {
      em.loop_iter();
      if (!o.vectorize) {
        // sum[p] = sum_s A[r][q][s] * C4[s][p]: C4 column walk per p.
        em.loop_setup();
        for (std::uint64_t p = 0; p < np; ++p) {
          em.loop_iter();
          em.exec(1);
          em.loop_setup();
          for (std::uint64_t s = 0; s < np; ++s) {
            em.loop_iter();
            em.load(A.at(r * nq + q, s));
            em.load(C4.at(s, p));  // column walk
            em.flop(2);
          }
          em.store(sum.at(p));
        }
      } else {
        // Interchanged: p widened, C4 rows unit-stride.
        vloop_range(
            em, 0, np,
            [&](std::uint64_t p) { em.stream_store(sum.at(p), w); },
            [&](std::uint64_t p) { em.stream_store(sum.at(p)); });
        em.loop_setup();
        for (std::uint64_t s = 0; s < np; ++s) {
          em.loop_iter();
          em.stream_load(A.at(r * nq + q, s));
          em.exec(1);
          vloop_range(
              em, 0, np,
              [&](std::uint64_t p) {
                em.stream_load(C4.at(s, p), w);
                em.stream_load(sum.at(p), w);
                em.flop(1);
                em.stream_store(sum.at(p), w);
              },
              [&](std::uint64_t p) {
                em.stream_load(C4.at(s, p));
                em.stream_load(sum.at(p));
                em.flop(1);
                em.stream_store(sum.at(p));
              });
        }
      }
      // Copy sum back into A[r][q][*].
      vloop_range(
          em, 0, np,
          [&](std::uint64_t p) {
            em.stream_load(sum.at(p), w);
            em.stream_store(A.at(r * nq + q, p), w);
          },
          [&](std::uint64_t p) {
            em.stream_load(sum.at(p));
            em.stream_store(A.at(r * nq + q, p));
          });
    }
  }
}

cpu::Trace doitgen(std::uint64_t nr, std::uint64_t nq, std::uint64_t np, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { doitgen_into(em, nr, nq, np); }));
}

void seidel_2d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps) {
  const CodegenOptions& o = em.options();
  DataLayout mem;
  const Matrix A = mem.matrix("A", n, n);
  // Gauss-Seidel is loop-carried in both i and j: vectorization does not
  // apply (the paper's "others"/prefetch transformations still do).
  for (std::uint64_t t = 0; t < tsteps; ++t) {
    em.loop_iter();
    for (std::uint64_t i = 1; i + 1 < n; ++i) {
      em.loop_iter();
      em.loop_setup();
      for (std::uint64_t j = 1; j + 1 < n; ++j) {
        em.loop_iter();
        // Nine-point neighbourhood; the three row streams are unit-stride.
        em.stream_load(A.at(i - 1, j));
        em.load(A.at(i - 1, j - 1));
        em.load(A.at(i - 1, j + 1));
        em.stream_load(A.at(i, j));
        em.load(A.at(i, j - 1));
        em.load(A.at(i, j + 1));
        em.stream_load(A.at(i + 1, j));
        em.load(A.at(i + 1, j - 1));
        em.load(A.at(i + 1, j + 1));
        em.flop(o.branch_opts ? 6 : 9);
        em.stream_store(A.at(i, j));
      }
    }
  }
}

cpu::Trace seidel_2d(std::uint64_t n, std::uint64_t tsteps, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { seidel_2d_into(em, n, tsteps); }));
}

void covariance_into(Emitter& em, std::uint64_t m, std::uint64_t n) {
  const CodegenOptions& o = em.options();
  DataLayout mem;
  const Matrix data = mem.matrix("data", n, m);
  const Matrix cov = mem.matrix("cov", m, m);
  const Vector mean = mem.vector("mean", m);
  const unsigned w = em.width();

  // Column means.
  if (!o.vectorize) {
    for (std::uint64_t j = 0; j < m; ++j) {
      em.loop_iter();
      em.exec(1);
      em.loop_setup();
      for (std::uint64_t i = 0; i < n; ++i) {
        em.loop_iter();
        em.load(data.at(i, j));  // column walk
        em.flop(1);
      }
      em.exec(8);
      em.store(mean.at(j));
    }
  } else {
    vloop_range(
        em, 0, m, [&](std::uint64_t j) { em.stream_store(mean.at(j), w); },
        [&](std::uint64_t j) { em.stream_store(mean.at(j)); });
    for (std::uint64_t i = 0; i < n; ++i) {
      em.loop_iter();
      vloop_range(
          em, 0, m,
          [&](std::uint64_t j) {
            em.stream_load(data.at(i, j), w);
            em.stream_load(mean.at(j), w);
            em.flop(1);
            em.stream_store(mean.at(j), w);
          },
          [&](std::uint64_t j) {
            em.stream_load(data.at(i, j));
            em.stream_load(mean.at(j));
            em.flop(1);
            em.stream_store(mean.at(j));
          });
    }
    vloop_range(
        em, 0, m,
        [&](std::uint64_t j) {
          em.stream_load(mean.at(j), w);
          em.flop(1);
          em.stream_store(mean.at(j), w);
        },
        [&](std::uint64_t j) {
          em.stream_load(mean.at(j));
          em.flop(1);
          em.stream_store(mean.at(j));
        });
  }

  // Centre the data.
  for (std::uint64_t i = 0; i < n; ++i) {
    em.loop_iter();
    vloop_range(
        em, 0, m,
        [&](std::uint64_t j) {
          em.stream_load(data.at(i, j), w);
          em.stream_load(mean.at(j), w);
          em.flop(1);
          em.stream_store(data.at(i, j), w);
        },
        [&](std::uint64_t j) {
          em.stream_load(data.at(i, j));
          em.stream_load(mean.at(j));
          em.flop(1);
          em.stream_store(data.at(i, j));
        });
  }

  // Covariance matrix: cov[i][j] = sum_k data[k][i]*data[k][j] / (n-1),
  // lower triangle.
  if (!o.vectorize) {
    // Textbook shape: both data walks are column strides (cache killer).
    for (std::uint64_t i = 0; i < m; ++i) {
      em.loop_iter();
      em.loop_setup();
      for (std::uint64_t j = 0; j <= i; ++j) {
        em.loop_iter();
        em.exec(1);
        em.loop_setup();
        for (std::uint64_t k = 0; k < n; ++k) {
          em.loop_iter();
          em.load(data.at(k, i));
          em.load(data.at(k, j));
          em.flop(2);
        }
        em.exec(8);
        em.store(cov.at(i, j));
        em.store(cov.at(j, i));
      }
    }
    return;
  }

  // Vector shape: k outermost — rank-1 accumulation over unit-stride rows
  // of both the data matrix and the cov triangle.
  for (std::uint64_t i = 0; i < m; ++i) {
    em.loop_iter();
    vloop_range(
        em, 0, i + 1,
        [&](std::uint64_t j) { em.stream_store(cov.at(i, j), w); },
        [&](std::uint64_t j) { em.stream_store(cov.at(i, j)); });
  }
  for (std::uint64_t k = 0; k < n; ++k) {
    em.loop_iter();
    em.loop_setup();
    for (std::uint64_t i = 0; i < m; ++i) {
      em.loop_iter();
      em.stream_load(data.at(k, i));
      em.exec(1);  // broadcast
      vloop_range(
          em, 0, i + 1,
          [&](std::uint64_t j) {
            em.stream_load(data.at(k, j), w);
            em.stream_load(cov.at(i, j), w);
            em.flop(1);
            em.stream_store(cov.at(i, j), w);
          },
          [&](std::uint64_t j) {
            em.stream_load(data.at(k, j));
            em.stream_load(cov.at(i, j));
            em.flop(1);
            em.stream_store(cov.at(i, j));
          });
    }
  }
  // Scale and mirror.
  for (std::uint64_t i = 0; i < m; ++i) {
    em.loop_iter();
    vloop_range(
        em, 0, i + 1,
        [&](std::uint64_t j) {
          em.stream_load(cov.at(i, j), w);
          em.flop(1);
          em.stream_store(cov.at(i, j), w);
        },
        [&](std::uint64_t j) {
          em.stream_load(cov.at(i, j));
          em.flop(1);
          em.stream_store(cov.at(i, j));
        });
    em.loop_setup();
    for (std::uint64_t j = 0; j < i; ++j) {
      em.loop_iter();
      em.load(cov.at(i, j));
      em.store(cov.at(j, i));  // transposed copy: column store
    }
  }
}

cpu::Trace covariance(std::uint64_t m, std::uint64_t n, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { covariance_into(em, m, n); }));
}

void floyd_warshall_into(Emitter& em, std::uint64_t n) {
  const CodegenOptions& o = em.options();
  DataLayout mem;
  const Matrix path = mem.matrix("path", n, n);
  const unsigned w = em.width();

  for (std::uint64_t k = 0; k < n; ++k) {
    em.loop_iter();
    em.loop_setup();
    for (std::uint64_t i = 0; i < n; ++i) {
      em.loop_iter();
      em.load(path.at(i, k));
      em.exec(1);  // broadcast
      vloop_range(
          em, 0, n,
          [&](std::uint64_t j) {
            em.stream_load(path.at(i, j), w);
            em.stream_load(path.at(k, j), w);
            em.flop(o.branch_opts ? 1 : 2);  // branchless min vs compare+branch
            em.stream_store(path.at(i, j), w);
          },
          [&](std::uint64_t j) {
            em.stream_load(path.at(i, j));
            em.stream_load(path.at(k, j));
            em.flop(o.branch_opts ? 1 : 2);
            em.stream_store(path.at(i, j));
          });
    }
  }
}

cpu::Trace floyd_warshall(std::uint64_t n, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { floyd_warshall_into(em, n); }));
}

}  // namespace sttsim::workloads
