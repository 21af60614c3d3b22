#include "sttsim/workloads/suite.hpp"

#include "sttsim/util/check.hpp"
#include "sttsim/util/text.hpp"
#include "sttsim/workloads/data_layout.hpp"
#include "sttsim/workloads/kernels.hpp"

namespace sttsim::workloads {
namespace {

std::vector<Kernel> build_suite() {
  std::vector<Kernel> s;
  // Each suite entry is wired once, as its emission body (X_into); both
  // trace forms come from the same synthesize() pass pair: generate
  // reassembles the raw trace for legacy consumers, generate_decoded hands
  // the campaign path the exactly-sized packed ops directly (no TraceOp
  // vector, no decode pass, no regrowth).
  const auto add = [&](std::string name, std::string desc,
                       std::uint64_t footprint,
                       std::function<void(Emitter&)> emit) {
    Kernel k;
    k.name = std::move(name);
    k.description = std::move(desc);
    k.footprint_bytes = footprint;
    k.generate = [emit](const CodegenOptions& o) {
      return cpu::reassemble(synthesize(o, emit));
    };
    k.generate_decoded = [emit = std::move(emit)](const CodegenOptions& o) {
      return synthesize(o, emit);
    };
    s.push_back(std::move(k));
  };

  add("atax", "y = A^T (A x), 256x256", (256 * 256 + 2 * 256) * kElem,
      [](Emitter& em) { atax_into(em, 256, 256); });
  add("bicg", "s = A^T r; q = A p, 256x256",
      (256 * 256 + 4 * 256) * kElem,
      [](Emitter& em) { bicg_into(em, 256, 256); });
  add("gemm", "C = aAB + bC, 64^3", 3 * 64 * 64 * kElem,
      [](Emitter& em) { gemm_into(em, 64, 64, 64); });
  add("gemver", "A += u1v1^T+u2v2^T; x = bA^Ty+z; w = aAx, n=192",
      (192 * 192 + 8 * 192) * kElem,
      [](Emitter& em) { gemver_into(em, 192); });
  add("gesummv", "y = aAx + bBx, n=224", (2 * 224 * 224 + 2 * 224) * kElem,
      [](Emitter& em) { gesummv_into(em, 224); });
  add("mvt", "x1 += Ay1; x2 += A^Ty2, n=256",
      (256 * 256 + 4 * 256) * kElem,
      [](Emitter& em) { mvt_into(em, 256); });
  add("syrk", "C = aAA^T + bC, n=m=72", (72 * 72 * 2) * kElem,
      [](Emitter& em) { syrk_into(em, 72, 72); });
  add("syr2k", "C = a(AB^T+BA^T) + bC, n=m=64", (3 * 64 * 64) * kElem,
      [](Emitter& em) { syr2k_into(em, 64, 64); });
  add("trisolv", "Lx = b forward substitution, n=512",
      (512 * 512 + 2 * 512) * kElem,
      [](Emitter& em) { trisolv_into(em, 512); });
  add("trmm", "B = aAB, A lower-triangular, n=m=64", (2 * 64 * 64) * kElem,
      [](Emitter& em) { trmm_into(em, 64, 64); });
  add("2mm", "D = aABC + bD, 48^4", (5 * 48 * 48) * kElem,
      [](Emitter& em) { two_mm_into(em, 48, 48, 48, 48); });
  add("3mm", "G = (AB)(CD), 40^5", (7 * 40 * 40) * kElem,
      [](Emitter& em) { three_mm_into(em, 40, 40, 40, 40, 40); });
  add("jacobi-1d", "3-point stencil, n=8192, 20 steps", 2 * 8192 * kElem,
      [](Emitter& em) { jacobi_1d_into(em, 8192, 20); });
  add("jacobi-2d", "5-point stencil, n=96, 10 steps", 2 * 96 * 96 * kElem,
      [](Emitter& em) { jacobi_2d_into(em, 96, 10); });
  add("cholesky", "Cholesky factorization, n=96", 96 * 96 * kElem,
      [](Emitter& em) { cholesky_into(em, 96); });
  add("lu", "LU factorization, n=64", 64 * 64 * kElem,
      [](Emitter& em) { lu_into(em, 64); });
  add("symm", "C = aAB + bC, A symmetric, m=n=56",
      (56 * 56 * 3) * kElem,
      [](Emitter& em) { symm_into(em, 56, 56); });
  add("doitgen", "A[r][q][*] = A[r][q][*] . C4, 12x12x48",
      (12 * 12 * 48 + 48 * 48 + 48) * kElem,
      [](Emitter& em) { doitgen_into(em, 12, 12, 48); });
  add("seidel-2d", "9-point Gauss-Seidel, n=96, 6 steps", 96 * 96 * kElem,
      [](Emitter& em) { seidel_2d_into(em, 96, 6); });
  add("covariance", "covariance matrix, 64x64 data", 2 * 64 * 64 * kElem,
      [](Emitter& em) { covariance_into(em, 64, 64); });
  add("floyd-warshall", "all-pairs shortest paths, n=56", 56 * 56 * kElem,
      [](Emitter& em) { floyd_warshall_into(em, 56); });
  add("durbin", "Levinson-Durbin recurrence, n=384", 3 * 384 * kElem,
      [](Emitter& em) { durbin_into(em, 384); });
  add("gramschmidt", "modified Gram-Schmidt QR, 48x48",
      (3 * 48 * 48) * kElem,
      [](Emitter& em) { gramschmidt_into(em, 48, 48); });
  add("adi", "alternating-direction implicit, n=96, 4 steps",
      4 * 96 * 96 * kElem,
      [](Emitter& em) { adi_into(em, 96, 4); });
  add("fdtd-2d", "finite-difference time-domain, 96x96, 6 steps",
      3 * 96 * 96 * kElem,
      [](Emitter& em) { fdtd_2d_into(em, 96, 96, 6); });
  add("heat-3d", "7-point 3-D heat stencil, 20^3, 6 steps",
      2 * 20 * 20 * 20 * kElem,
      [](Emitter& em) { heat_3d_into(em, 20, 6); });
  return s;
}

}  // namespace

const std::vector<Kernel>& polybench_suite() {
  static const std::vector<Kernel> suite = build_suite();
  return suite;
}

const Kernel& find_kernel(const std::string& name) {
  for (const Kernel& k : polybench_suite()) {
    if (k.name == name) return k;
  }
  throw ConfigError(strprintf("unknown kernel '%s'", name.c_str()));
}

}  // namespace sttsim::workloads
