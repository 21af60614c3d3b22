// Unit tests: report tables and figure-series containers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sttsim/report/figure.hpp"
#include "sttsim/report/table.hpp"
#include "sttsim/util/text.hpp"

namespace sttsim::report {
namespace {

TEST(Table, RendersHeaderSeparatorAndRows) {
  TableBuilder t({"name", "value"});
  t.add_row({"alpha", "1.00"});
  t.add_row({"b", "22.50"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Three content lines + separator.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, ColumnsAlign) {
  TableBuilder t({"k", "v"});
  t.add_row({"aaaa", "1"});
  t.add_row({"b", "100"});
  const std::string out = t.render();
  // Every line has the same length (fixed-width table).
  std::vector<std::string> lines = split(out, '\n');
  ASSERT_EQ(lines.back(), "");  // the field after the final newline
  lines.pop_back();
  for (const std::string& line : lines) EXPECT_EQ(line.size(), lines[0].size());
}

TEST(Table, CsvHasNoPadding) {
  TableBuilder t({"k", "v"});
  t.add_row({"a", "1"});
  EXPECT_EQ(t.render_csv(), "k,v\na,1\n");
}

TEST(Table, NumRows) {
  TableBuilder t({"x"});
  EXPECT_EQ(t.num_rows(), 0u);
  t.add_row({"1"});
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Figure, Mean) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

FigureData sample_fig() {
  FigureData f;
  f.title = "T";
  f.row_header = "kernel";
  f.value_unit = "%";
  f.row_labels = {"a", "b"};
  f.series = {{"s1", {10.0, 20.0}}, {"s2", {1.0, 3.0}}};
  return f;
}

TEST(Figure, WithAverageRowAppendsMeanPerSeries) {
  const FigureData f = with_average_row(sample_fig());
  ASSERT_EQ(f.row_labels.size(), 3u);
  EXPECT_EQ(f.row_labels.back(), "AVERAGE");
  EXPECT_DOUBLE_EQ(f.series[0].values.back(), 15.0);
  EXPECT_DOUBLE_EQ(f.series[1].values.back(), 2.0);
}

TEST(Figure, WithAverageRowIsIdempotent) {
  const FigureData once = with_average_row(sample_fig());
  const FigureData twice = with_average_row(once);
  EXPECT_EQ(twice.row_labels.size(), once.row_labels.size());
}

TEST(Figure, RenderContainsAllLabelsAndValues) {
  const std::string out = render(with_average_row(sample_fig()));
  EXPECT_NE(out.find("T"), std::string::npos);
  EXPECT_NE(out.find("AVERAGE"), std::string::npos);
  EXPECT_NE(out.find("15.00"), std::string::npos);
  EXPECT_NE(out.find("s1 [%]"), std::string::npos);
}

TEST(Figure, RenderCsvShape) {
  const std::string out = render_csv(sample_fig());
  EXPECT_EQ(out, "kernel,s1 [%],s2 [%]\na,10.00,1.00\nb,20.00,3.00\n");
}

}  // namespace
}  // namespace sttsim::report
