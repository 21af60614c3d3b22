#include "sttsim/experiments/artifacts.hpp"

namespace sttsim::experiments {
namespace {

std::string table1(const KernelFilter&) { return table1_technology(); }
std::string area(const KernelFilter&) { return area_report(); }

constexpr Artifact kArtifacts[] = {
    {"table1_technology", nullptr, table1},
    {"fig1_dropin_penalty", fig1_dropin_penalty, nullptr},
    {"fig3_vwb_penalty", fig3_vwb_penalty, nullptr},
    {"fig4_rw_breakdown", fig4_rw_breakdown, nullptr},
    {"fig5_transformations", fig5_transformations, nullptr},
    {"fig6_contributions", fig6_contributions, nullptr},
    {"fig7_vwb_size", fig7_vwb_size, nullptr},
    {"fig7_vwb_size_optimized", fig7_vwb_size_optimized, nullptr},
    {"fig8_alternatives", fig8_alternatives, nullptr},
    {"fig9_baseline_gain", fig9_baseline_gain, nullptr},
    {"ablation_banking", ablation_banking, nullptr},
    {"ablation_store_buffer", ablation_store_buffer, nullptr},
    {"ablation_write_mitigation", ablation_write_mitigation, nullptr},
    {"lifetime_report", nullptr, lifetime_report},
    {"fig_reliability_retention", fig_reliability_retention, nullptr},
    {"fig_reliability_lifetime", fig_reliability_lifetime, nullptr},
    {"fig_reliability_ecc_overhead", fig_reliability_ecc_overhead, nullptr},
    {"exploration_iso_area", exploration_iso_area, nullptr},
    {"sensitivity_clock", sensitivity_clock, nullptr},
    {"sensitivity_cell", sensitivity_cell, nullptr},
    {"energy_report", energy_report, nullptr},
    {"area_report", nullptr, area},
};

}  // namespace

std::span<const Artifact> artifacts() { return kArtifacts; }

const Artifact* find_artifact(std::string_view name) {
  for (const Artifact& a : kArtifacts) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

std::string render_artifact(const Artifact& artifact,
                            const KernelFilter& kernels, bool csv) {
  if (artifact.text != nullptr) return artifact.text(kernels);
  const report::FigureData fig = artifact.figure(kernels);
  return csv ? report::render_csv(fig) : report::render(fig);
}

}  // namespace sttsim::experiments
