// Stencil PolyBench kernels (jacobi-1d, jacobi-2d).
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

/// One 3-point sweep dst[i] = f(src[i-1], src[i], src[i+1]).
void sweep_1d(Emitter& em, const Vector& src, const Vector& dst,
              std::uint64_t n) {
  const unsigned w = em.width();
  vloop_range(
      em, 1, n - 1,
      [&](std::uint64_t i) {
        em.load(src.at(i - 1), w);      // shifted (unaligned) vector load
        em.stream_load(src.at(i), w);   // central stream carries the prefetch
        em.load(src.at(i + 1), w);
        em.flop(2);
        em.stream_store(dst.at(i), w);
      },
      [&](std::uint64_t i) {
        em.load(src.at(i - 1));
        em.stream_load(src.at(i));
        em.load(src.at(i + 1));
        em.flop(2);
        em.stream_store(dst.at(i));
      });
}

/// One 5-point sweep dst = f(src neighbourhood) over the interior.
void sweep_2d(Emitter& em, const Matrix& src, const Matrix& dst,
              std::uint64_t n) {
  const unsigned w = em.width();
  for (std::uint64_t i = 1; i + 1 < n; ++i) {
    em.loop_iter();
    vloop_range(
        em, 1, n - 1,
        [&](std::uint64_t j) {
          em.stream_load(src.at(i, j), w);
          em.load(src.at(i, j - 1), w);
          em.load(src.at(i, j + 1), w);
          em.stream_load(src.at(i - 1, j), w);
          em.stream_load(src.at(i + 1, j), w);
          em.flop(4);
          em.stream_store(dst.at(i, j), w);
        },
        [&](std::uint64_t j) {
          em.stream_load(src.at(i, j));
          em.load(src.at(i, j - 1));
          em.load(src.at(i, j + 1));
          em.stream_load(src.at(i - 1, j));
          em.stream_load(src.at(i + 1, j));
          em.flop(4);
          em.stream_store(dst.at(i, j));
        });
  }
}

}  // namespace

void jacobi_1d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps) {
  DataLayout mem;
  const Vector A = mem.vector("A", n);
  const Vector B = mem.vector("B", n);
  for (std::uint64_t t = 0; t < tsteps; ++t) {
    em.loop_iter();
    sweep_1d(em, A, B, n);
    sweep_1d(em, B, A, n);
  }
}

cpu::Trace jacobi_1d(std::uint64_t n, std::uint64_t tsteps, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { jacobi_1d_into(em, n, tsteps); }));
}

void jacobi_2d_into(Emitter& em, std::uint64_t n, std::uint64_t tsteps) {
  DataLayout mem;
  const Matrix A = mem.matrix("A", n, n);
  const Matrix B = mem.matrix("B", n, n);
  for (std::uint64_t t = 0; t < tsteps; ++t) {
    em.loop_iter();
    sweep_2d(em, A, B, n);
    sweep_2d(em, B, A, n);
  }
}

cpu::Trace jacobi_2d(std::uint64_t n, std::uint64_t tsteps, const CodegenOptions& o) {
  return cpu::reassemble(
      synthesize(o, [&](Emitter& em) { jacobi_2d_into(em, n, tsteps); }));
}

}  // namespace sttsim::workloads
