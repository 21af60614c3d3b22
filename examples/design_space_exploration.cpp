// Design-space exploration: sweep the tunable parameters the paper calls out
// ("the size and the implementation are some of the few areas where tweaking
// to suit the platform ... is possible") — VWB capacity, VWB line count,
// NVM banking — over a few representative kernels, and print a ranked table.
//
//   $ ./examples/design_space_exploration
#include <cstdio>
#include <vector>

#include "sttsim/experiments/harness.hpp"
#include "sttsim/report/table.hpp"
#include "sttsim/util/text.hpp"
#include "sttsim/workloads/suite.hpp"

using namespace sttsim;

namespace {

struct Point {
  unsigned kbit;
  unsigned lines;
  unsigned banks;
  double avg_penalty;
};

}  // namespace

int main() {
  const std::vector<std::string> names{"gemm", "atax", "jacobi-1d"};
  const auto kernels = experiments::select_kernels(names);
  const auto opts = workloads::CodegenOptions::all();
  // One grid: the SRAM baseline (same code), then every VWB design.
  std::vector<experiments::SuiteJob> jobs{
      {experiments::make_config(cpu::Dl1Organization::kSramBaseline), opts}};
  std::vector<Point> points;
  for (const unsigned kbit : {1u, 2u, 4u, 8u}) {
    for (const unsigned lines : {2u, 4u}) {
      for (const unsigned banks : {2u, 4u}) {
        if (kbit * 1024 / 8 % lines != 0) continue;
        cpu::SystemConfig cfg =
            experiments::make_config(cpu::Dl1Organization::kNvmVwb);
        cfg.vwb_total_kbit = kbit;
        cfg.vwb_lines = lines;
        cfg.nvm_banks = banks;
        jobs.push_back({cfg, opts});
        points.push_back({kbit, lines, banks, 0.0});
      }
    }
  }
  experiments::TraceCache cache;
  const auto grid = experiments::run_grid(cache, kernels, jobs);
  for (std::size_t p = 0; p < points.size(); ++p) {
    double sum = 0;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      sum += experiments::penalty_pct(grid[p + 1][i], grid[0][i]);
    }
    points[p].avg_penalty = sum / static_cast<double>(kernels.size());
  }

  std::sort(points.begin(), points.end(),
            [](const Point& a, const Point& b) {
              return a.avg_penalty < b.avg_penalty;
            });

  report::TableBuilder t({"VWB KBit", "VWB lines", "NVM banks",
                          "avg penalty [%]"});
  for (const Point& p : points) {
    t.add_row({strprintf("%u", p.kbit), strprintf("%u", p.lines),
               strprintf("%u", p.banks), format_double(p.avg_penalty, 2)});
  }
  std::printf("VWB design-space exploration over %s (optimized code, "
              "penalty vs same-code SRAM baseline)\n\n",
              join(names, ", ").c_str());
  std::fputs(t.render().c_str(), stdout);
  std::printf("\nBest point: %u KBit / %u lines / %u banks (%.2f%%). The "
              "paper settles on 2 KBit for circuit/routing cost reasons.\n",
              points.front().kbit, points.front().lines, points.front().banks,
              points.front().avg_penalty);
  return 0;
}
