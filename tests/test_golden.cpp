// Golden-regression harness: every figure function is pinned, field by
// field, to a canonical reference under tests/golden/. Any drift in the
// timing model, the workload generators, or the report layer shows up as a
// named (figure, series, row) difference. Refresh after an intentional
// change by running test_golden with STTSIM_UPDATE_GOLDEN=1.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "sttsim/check/golden.hpp"
#include "sttsim/experiments/artifacts.hpp"

namespace sttsim {
namespace {

using experiments::Artifact;
using experiments::KernelFilter;

/// The fast kernel subset used across the integration tests: small enough
/// to run every figure in seconds, large enough to exercise every system.
const KernelFilter kSubset = {"trisolv", "gesummv"};

/// The table's figure artifacts, each pinned by tests/golden/<name>.golden.
/// The reliability family runs a fixed fault seed (kReliabilitySeed in
/// figures.cpp), so its values are as deterministic as the rest.
std::vector<const Artifact*> figure_artifacts() {
  std::vector<const Artifact*> out;
  for (const Artifact& a : experiments::artifacts()) {
    if (a.figure != nullptr) out.push_back(&a);
  }
  return out;
}

bool update_requested() {
  const char* env = std::getenv("STTSIM_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string golden_path(const char* name) {
  return std::string(STTSIM_GOLDEN_DIR) + "/" + name + ".golden";
}

class GoldenFigures : public ::testing::TestWithParam<const Artifact*> {};

TEST_P(GoldenFigures, MatchesCheckedInReference) {
  const Artifact& a = *GetParam();
  const report::FigureData fig = a.figure(kSubset);
  const std::string path = golden_path(a.name);
  if (update_requested()) {
    check::update_golden(path, fig);
    GTEST_SKIP() << "golden refreshed: " << path;
  }
  const check::GoldenComparison cmp = check::compare_against_golden(path, fig);
  ASSERT_FALSE(cmp.missing)
      << path << " missing; create it with STTSIM_UPDATE_GOLDEN=1";
  EXPECT_TRUE(cmp.matches()) << cmp.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllFigures, GoldenFigures,
                         ::testing::ValuesIn(figure_artifacts()),
                         [](const auto& param_info) {
                           return std::string(param_info.param->name);
                         });

// The artifact table is the one list of artifacts; these two tests fail
// when an artifact is added to it but not to the list compared, or the
// other way round.

TEST(ArtifactTable, NamesAndOrderMatchPerfbenchReferenceDigests) {
  std::ifstream in(STTSIM_REFERENCE_DIGESTS);
  ASSERT_TRUE(in) << STTSIM_REFERENCE_DIGESTS;
  std::vector<std::string> referenced;
  for (std::string name, digest; in >> name >> digest;) {
    referenced.push_back(name);
  }
  std::vector<std::string> table;
  for (const Artifact& a : experiments::artifacts()) table.push_back(a.name);
  EXPECT_EQ(table, referenced);
  EXPECT_EQ(table.size(), 22u);
}

TEST(ArtifactTable, FigureArtifactsMatchGoldenFiles) {
  std::set<std::string> stems;
  for (const auto& entry :
       std::filesystem::directory_iterator(STTSIM_GOLDEN_DIR)) {
    if (entry.path().extension() == ".golden") {
      stems.insert(entry.path().stem().string());
    }
  }
  std::set<std::string> figures;
  for (const Artifact* a : figure_artifacts()) figures.insert(a->name);
  EXPECT_EQ(figures, stems);
  EXPECT_EQ(figures.size(), 19u);
}

TEST(GoldenFormat, SerializeParseRoundTrip) {
  report::FigureData fig;
  fig.title = "Fig. T: a title with: colons";
  fig.row_header = "Kernel";
  fig.value_unit = "penalty %";
  fig.row_labels = {"trisolv", "gesummv"};
  // A degraded grid point's metric is NaN; %.9g writes nan and inf.
  fig.series = {{"Drop-In", {54.25, 31.0}},
                {"VWB", {12.5, -0.25}},
                {"Degraded", {std::numeric_limits<double>::quiet_NaN(),
                              -std::numeric_limits<double>::infinity()}}};
  const report::FigureData back =
      check::parse_figure(check::serialize_figure(fig));
  EXPECT_TRUE(check::compare_figures(fig, back).matches());
  EXPECT_EQ(back.title, fig.title);
  EXPECT_EQ(back.row_labels, fig.row_labels);
  EXPECT_EQ(back.series[1].values[1], fig.series[1].values[1]);
  EXPECT_TRUE(std::isnan(back.series[2].values[0]));
  EXPECT_EQ(back.series[2].values[1], fig.series[2].values[1]);
}

TEST(GoldenFormat, PerturbedFieldIsNamedExactly) {
  // The satellite check: flip one stat in-memory and the comparator must
  // name the exact figure, series and row — not just "something differs".
  report::FigureData golden;
  golden.title = "Fig. 3: VWB penalty";
  golden.row_header = "Kernel";
  golden.value_unit = "penalty %";
  golden.row_labels = {"trisolv", "gesummv"};
  golden.series = {{"Drop-In", {54.0, 31.0}}, {"VWB", {12.0, 8.0}}};

  report::FigureData observed = golden;
  observed.series[1].values[0] += 0.5;  // perturb VWB @ trisolv

  const check::GoldenComparison cmp = check::compare_figures(golden, observed);
  ASSERT_EQ(cmp.diffs.size(), 1u);
  EXPECT_EQ(cmp.diffs[0].figure, "Fig. 3: VWB penalty");
  EXPECT_EQ(cmp.diffs[0].location, "series 'VWB' row 'trisolv'");
  EXPECT_EQ(cmp.diffs[0].expected, "12");
  EXPECT_EQ(cmp.diffs[0].observed, "12.5");
  EXPECT_NE(cmp.to_string().find("series 'VWB' row 'trisolv'"),
            std::string::npos);
}

TEST(GoldenFormat, ToleranceAbsorbsPlatformNoise) {
  report::FigureData a;
  a.title = "t";
  a.series = {{"s", {1.0}}};
  report::FigureData b = a;
  b.series[0].values[0] += 5e-7;  // below the 1e-6 tolerance
  EXPECT_TRUE(check::compare_figures(a, b).matches());
  b.series[0].values[0] += 1e-5;  // above it
  EXPECT_FALSE(check::compare_figures(a, b).matches());
}

TEST(GoldenFormat, MalformedTextThrows) {
  EXPECT_THROW(check::parse_figure("garbage without a key"),
               std::runtime_error);
  EXPECT_THROW(check::parse_figure("value 3 0: 1.0\n"), std::runtime_error);
  EXPECT_THROW(check::parse_figure("unknown_key: x\n"), std::runtime_error);
  // Every number is parsed whole: no logic_error or bad_alloc escapes, and
  // no numeric prefix is silently accepted. Each input parses with its
  // malformed number replaced by "1".
  const std::string series = "series: 1\nseries 0: s\n";
  const std::string rows = "rows: 1\nrow 0: r\n";
  EXPECT_NO_THROW(check::parse_figure(rows + series + "value 0 0: 1\n"));
  EXPECT_THROW(check::parse_figure("rows: x\nrow 0: r\n" + series),
               std::runtime_error);
  EXPECT_THROW(
      check::parse_figure("rows: 99999999999999\nrow 0: r\n" + series),
      std::runtime_error);
  EXPECT_THROW(check::parse_figure(rows + series + "value 0 0: abc\n"),
               std::runtime_error);
  EXPECT_THROW(check::parse_figure(rows + series + "value 0 0: 1.5x\n"),
               std::runtime_error);
}

TEST(GoldenFormat, MissingFileReported) {
  report::FigureData fig;
  fig.title = "t";
  const check::GoldenComparison cmp = check::compare_against_golden(
      std::string(STTSIM_GOLDEN_DIR) + "/does_not_exist.golden", fig);
  EXPECT_TRUE(cmp.missing);
  EXPECT_FALSE(cmp.matches());
  EXPECT_NE(cmp.to_string().find("missing"), std::string::npos);
}

}  // namespace
}  // namespace sttsim
