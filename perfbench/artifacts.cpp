#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "spans.hpp"
#include "sttsim/experiments/figures.hpp"

namespace sttbench {
namespace {

namespace ex = sttsim::experiments;
using sttsim::report::FigureData;

// Paper reference values, transcribed from PAPER.md; the measured values
// they are compared with are the ones EXPERIMENTS.md reports.
constexpr double kPaperDropInPenaltyPct = 54.0;   // PAPER.md:19, ≈54%
constexpr double kPaperOptimizedVwbPct = 8.0;     // PAPER.md:35, ≈8%
constexpr double kPaperFig8ReductionRatio = 2.0;  // PAPER.md:40, ≈2×

Artifact figure(std::string name, FigureData (*fn)(const ex::KernelFilter&)) {
  return {std::move(name), [fn] { return fn({}); }, {}};
}

/// The AVERAGE-row value of the named series.
double average(const FigureData& fig, const std::string& series) {
  if (fig.row_labels.empty() || fig.row_labels.back() != "AVERAGE") {
    throw std::runtime_error(fig.title + ": no AVERAGE row");
  }
  for (const auto& s : fig.series) {
    if (s.name == series) return s.values.back();
  }
  throw std::runtime_error(fig.title + ": no series '" + series + "'");
}

}  // namespace

const std::vector<Artifact>& artifacts() {
  static const std::vector<Artifact> all = {
      {"table1_technology", {}, [] { return ex::table1_technology(); }},
      figure("fig1_dropin_penalty", ex::fig1_dropin_penalty),
      figure("fig3_vwb_penalty", ex::fig3_vwb_penalty),
      figure("fig4_rw_breakdown", ex::fig4_rw_breakdown),
      figure("fig5_transformations", ex::fig5_transformations),
      figure("fig6_contributions", ex::fig6_contributions),
      figure("fig7_vwb_size", ex::fig7_vwb_size),
      figure("fig7_vwb_size_optimized", ex::fig7_vwb_size_optimized),
      figure("fig8_alternatives", ex::fig8_alternatives),
      figure("fig9_baseline_gain", ex::fig9_baseline_gain),
      figure("ablation_banking", ex::ablation_banking),
      figure("ablation_store_buffer", ex::ablation_store_buffer),
      figure("ablation_write_mitigation", ex::ablation_write_mitigation),
      {"lifetime_report", {}, [] { return ex::lifetime_report(); }},
      figure("fig_reliability_retention", ex::fig_reliability_retention),
      figure("fig_reliability_lifetime", ex::fig_reliability_lifetime),
      figure("fig_reliability_ecc_overhead", ex::fig_reliability_ecc_overhead),
      figure("exploration_iso_area", ex::exploration_iso_area),
      figure("sensitivity_clock", ex::sensitivity_clock),
      figure("sensitivity_cell", ex::sensitivity_cell),
      figure("energy_report", ex::energy_report),
      {"area_report", {}, [] { return ex::area_report(); }},
  };
  return all;
}

const Artifact& find_artifact(const std::string& name) {
  for (const Artifact& a : artifacts()) {
    if (a.name == name) return a;
  }
  throw std::runtime_error("unknown artifact: " + name);
}

Rendered render(const Artifact& a) {
  Span span("experiments." + a.name);
  Rendered r;
  if (a.figure) {
    r.figure = a.figure();
    Span csv("report.render_csv");
    r.csv = sttsim::report::render_csv(r.figure);
  } else {
    r.csv = a.text();
  }
  return r;
}

std::uint64_t digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::map<std::string, std::uint64_t> read_references(
    const std::string& path, const std::string& perturb) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference digests: " + path);
  std::map<std::string, std::uint64_t> refs;
  std::string name;
  std::string hex;
  while (in >> name >> hex) refs[name] = std::stoull(hex, nullptr, 16);
  for (const Artifact& a : artifacts()) {
    if (refs.count(a.name) == 0) {
      throw std::runtime_error(path + ": no digest for " + a.name);
    }
  }
  if (!perturb.empty()) {
    find_artifact(perturb);
    refs[perturb] ^= 1;
  }
  return refs;
}

std::string reference_digests() {
  std::string out;
  char line[128];
  for (const Artifact& a : artifacts()) {
    std::snprintf(line, sizeof line, "%s %016" PRIx64 "\n", a.name.c_str(),
                  digest(render(a).csv));
    out += line;
  }
  return out;
}

void check_artifact(const std::string& name, const Rendered& r,
                    const std::map<std::string, std::uint64_t>& references,
                    Outcome& out) {
  ++out.attempted;
  for (const auto& s : r.figure.series) {
    for (const double v : s.values) {
      if (std::isnan(v)) {
        out.fail(1, name + ": degraded (NaN) value in series " + s.name);
        return;
      }
    }
  }
  const std::uint64_t got = digest(r.csv);
  if (got != references.at(name)) {
    char why[160];
    std::snprintf(why, sizeof why, "%s: digest %016" PRIx64
                  " != reference %016" PRIx64, name.c_str(), got,
                  references.at(name));
    out.fail(1, why);
  }
}

Fidelity fidelity(const FigureData& fig1, const FigureData& fig5,
                  const FigureData& fig8) {
  // EXPERIMENTS.md's arithmetic: the Fig. 8 reductions are taken against
  // Fig. 1's drop-in average (66.1 - 9.6 = 56.5 pts for the proposal vs
  // 35.3 / 37.1 pts for EMSHR / L0).
  const double dropin = average(fig1, "Drop-In STT-MRAM D-Cache");
  const double vwb_opt = average(fig5, "With Optimization");
  const double vwb_cut = dropin - average(fig8, "Our Proposal");
  const double emshr_cut = dropin - average(fig8, "EMSHR");
  const double l0_cut = dropin - average(fig8, "L0-Cache");
  Fidelity f;
  f.fig1_err_pp = std::fabs(dropin - kPaperDropInPenaltyPct);
  f.fig5_err_pp = std::fabs(vwb_opt - kPaperOptimizedVwbPct);
  f.fig8_ratio_err = std::fabs(kPaperFig8ReductionRatio -
                               vwb_cut / ((emshr_cut + l0_cut) / 2.0));
  return f;
}

}  // namespace sttbench
