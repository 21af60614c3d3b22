// The sttsim benchmark driver: three closed-loop workloads, each run in its
// own process, that call sttsim's public API and time it from outside.
// See perfbench/README.md for the workloads and the metrics they report.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sttsim/report/figure.hpp"

namespace sttbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;            ///< per-layer run instead of end-to-end
  unsigned width = 1;            ///< pool width (= usable CPUs)
  std::string reference;         ///< reference artifact digest file
  std::string work_dir;          ///< scratch directory for store files
  std::string spans_out;         ///< traced run: where to write the spans
  std::string perturb;           ///< artifact whose reference is corrupted
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;  ///< operations: artifacts or grid points
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< one line per failed check
  std::map<std::string, Metric> metrics;

  void fail(std::uint64_t ops, std::string why) {
    failed += ops;
    errors.push_back(std::move(why));
  }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Runs one workload. Throws std::runtime_error on bad input (unknown
/// workload, unreadable reference file).
Outcome run_workload(const Options& o);

// ---- Artifacts (artifacts.cpp) -------------------------------------------

/// One paper artifact as a bench/ driver produces it: a figure (rendered to
/// CSV) or a text report.
struct Artifact {
  std::string name;  ///< the artifact's golden/driver name
  std::function<sttsim::report::FigureData()> figure;  ///< figure artifacts
  std::function<std::string()> text;                   ///< text artifacts
};

/// Every artifact the bench/ drivers produce, in driver order.
const std::vector<Artifact>& artifacts();
const Artifact& find_artifact(const std::string& name);

struct Rendered {
  std::string csv;                      ///< CSV, or the text artifact
  sttsim::report::FigureData figure;    ///< empty for text artifacts
};

/// Regenerates one artifact, under spans named after the experiments:: call
/// and report::render_csv.
Rendered render(const Artifact& a);

/// FNV-1a 64-bit digest of an artifact's bytes.
std::uint64_t digest(const std::string& bytes);

/// Reads "<name> <hex digest>" lines. `perturb` names an artifact whose
/// digest is corrupted on load (the benchmark's own check that a bad digest
/// is counted as a failure).
std::map<std::string, std::uint64_t> read_references(
    const std::string& path, const std::string& perturb);

/// Regenerates every artifact once and returns "<name> <digest>" lines:
/// the content of the reference digest file.
std::string reference_digests();

/// Counts one artifact as attempted and checks it: its digest must equal
/// the reference, and no figure value may be NaN (a degraded grid point).
void check_artifact(const std::string& name, const Rendered& r,
                    const std::map<std::string, std::uint64_t>& references,
                    Outcome& out);

/// The paper's reference values and the three fidelity errors against
/// them (see README.md for their source lines).
struct Fidelity {
  double fig1_err_pp = 0.0;
  double fig5_err_pp = 0.0;
  double fig8_ratio_err = 0.0;
};
Fidelity fidelity(const sttsim::report::FigureData& fig1,
                  const sttsim::report::FigureData& fig5,
                  const sttsim::report::FigureData& fig8);

}  // namespace sttbench
