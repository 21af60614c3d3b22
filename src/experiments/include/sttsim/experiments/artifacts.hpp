// The artifact table: every table, figure and report the repository
// regenerates (Table I, Figs. 1-9, the ablations, the reliability figures,
// the energy and area reports), each under one name. `sttsim --artifact`
// renders them and the golden and determinism tests iterate them.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "sttsim/experiments/figures.hpp"

namespace sttsim::experiments {

/// A figure (printed as a table or as CSV) or a text report: exactly one
/// of `figure` and `text` is set.
struct Artifact {
  const char* name;  ///< `sttsim --artifact` name and golden file stem
  report::FigureData (*figure)(const KernelFilter& kernels);
  std::string (*text)(const KernelFilter& kernels);
};

/// Every artifact, in report order.
std::span<const Artifact> artifacts();

/// The artifact called `name`, or nullptr.
const Artifact* find_artifact(std::string_view name);

/// Regenerates `artifact` on `kernels` (empty = the full suite): a figure
/// rendered as a table, or as CSV with `csv`; a text report as is.
std::string render_artifact(const Artifact& artifact,
                            const KernelFilter& kernels, bool csv);

}  // namespace sttsim::experiments
