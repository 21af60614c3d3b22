#include "sttsim/check/golden.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sttsim/util/text.hpp"

namespace sttsim::check {
namespace {

constexpr double kValueTolerance = 1e-6;

std::string format_value(double v) { return strprintf("%.9g", v); }

/// Splits "key: value" (value may contain further colons/spaces).
bool split_kv(const std::string& line, std::string& key, std::string& value) {
  const std::size_t colon = line.find(": ");
  if (colon == std::string::npos) {
    // A bare "key:" with an empty value is also legal.
    if (!line.empty() && line.back() == ':') {
      key = line.substr(0, line.size() - 1);
      value.clear();
      return true;
    }
    return false;
  }
  key = line.substr(0, colon);
  value = line.substr(colon + 2);
  return true;
}

/// The whole of `value` as a count; throws on anything else.
std::size_t parse_count(const std::string& value, const std::string& line) {
  std::uint64_t n = 0;
  if (!parse_unsigned(value.c_str(), n)) {
    throw std::runtime_error("golden: malformed count: " + line);
  }
  return n;
}

/// The whole of `value` as a double, nan and inf included (%.9g writes
/// them for degraded grid points); throws on anything else.
double parse_value(const std::string& value, const std::string& line) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || std::isspace(static_cast<unsigned char>(value[0])) ||
      *end != '\0') {
    throw std::runtime_error("golden: malformed value: " + line);
  }
  return v;
}

}  // namespace

std::string serialize_figure(const report::FigureData& fig) {
  std::ostringstream out;
  out << "# sttsim golden figure\n";
  out << "title: " << fig.title << "\n";
  out << "row_header: " << fig.row_header << "\n";
  out << "value_unit: " << fig.value_unit << "\n";
  out << "rows: " << fig.row_labels.size() << "\n";
  for (std::size_t i = 0; i < fig.row_labels.size(); ++i) {
    out << "row " << i << ": " << fig.row_labels[i] << "\n";
  }
  out << "series: " << fig.series.size() << "\n";
  for (std::size_t s = 0; s < fig.series.size(); ++s) {
    out << "series " << s << ": " << fig.series[s].name << "\n";
    for (std::size_t i = 0; i < fig.series[s].values.size(); ++i) {
      out << "value " << s << " " << i << ": "
          << format_value(fig.series[s].values[i]) << "\n";
    }
  }
  return out.str();
}

report::FigureData parse_figure(const std::string& text) {
  report::FigureData fig;
  std::size_t declared_rows = 0;    // the "rows: <count>" header
  std::size_t declared_series = 0;  // the "series: <count>" header
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::string key, value;
    if (!split_kv(line, key, value)) {
      throw std::runtime_error("golden: malformed line: " + line);
    }
    std::istringstream keys(key);
    std::string word;
    keys >> word;
    if (word == "title") {
      fig.title = value;
    } else if (word == "row_header") {
      fig.row_header = value;
    } else if (word == "value_unit") {
      fig.value_unit = value;
    } else if (word == "rows") {
      declared_rows = parse_count(value, line);
    } else if (word == "row") {
      fig.row_labels.push_back(value);
    } else if (word == "series") {
      std::size_t index;
      if (keys >> index) {
        if (index != fig.series.size()) {
          throw std::runtime_error("golden: out-of-order series: " + line);
        }
        fig.series.push_back(report::Series{value, {}});
      } else {
        declared_series = parse_count(value, line);
      }
    } else if (word == "value") {
      std::size_t s, i;
      if (!(keys >> s >> i) || s >= fig.series.size() ||
          i != fig.series[s].values.size()) {
        throw std::runtime_error("golden: malformed value line: " + line);
      }
      fig.series[s].values.push_back(parse_value(value, line));
    } else {
      throw std::runtime_error("golden: unknown key: " + key);
    }
  }
  if (declared_rows != fig.row_labels.size() ||
      declared_series != fig.series.size()) {
    throw std::runtime_error(
        "golden: malformed figure: row or series count differs from its "
        "header");
  }
  return fig;
}

std::string GoldenComparison::to_string() const {
  if (missing) return "golden file missing (set STTSIM_UPDATE_GOLDEN=1)";
  std::string out;
  for (const FieldDiff& d : diffs) {
    out += strprintf("[%s] %s: golden=%s observed=%s\n", d.figure.c_str(),
                     d.location.c_str(), d.expected.c_str(),
                     d.observed.c_str());
  }
  return out;
}

GoldenComparison compare_figures(const report::FigureData& golden,
                                 const report::FigureData& fig) {
  GoldenComparison cmp;
  const std::string& title =
      golden.title.empty() ? fig.title : golden.title;
  const auto diff = [&](const std::string& location,
                        const std::string& expected,
                        const std::string& observed) {
    cmp.diffs.push_back(FieldDiff{title, location, expected, observed});
  };

  if (golden.title != fig.title) diff("title", golden.title, fig.title);
  if (golden.row_header != fig.row_header) {
    diff("row_header", golden.row_header, fig.row_header);
  }
  if (golden.value_unit != fig.value_unit) {
    diff("value_unit", golden.value_unit, fig.value_unit);
  }
  if (golden.row_labels != fig.row_labels) {
    diff("row_labels",
         strprintf("%zu labels", golden.row_labels.size()),
         strprintf("%zu labels", fig.row_labels.size()));
    // Name the first differing label for a precise message.
    const std::size_t n =
        std::min(golden.row_labels.size(), fig.row_labels.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (golden.row_labels[i] != fig.row_labels[i]) {
        diff(strprintf("row %zu", i), golden.row_labels[i],
             fig.row_labels[i]);
        break;
      }
    }
  }
  if (golden.series.size() != fig.series.size()) {
    diff("series count", strprintf("%zu", golden.series.size()),
         strprintf("%zu", fig.series.size()));
    return cmp;
  }
  for (std::size_t s = 0; s < golden.series.size(); ++s) {
    const report::Series& g = golden.series[s];
    const report::Series& f = fig.series[s];
    if (g.name != f.name) {
      diff(strprintf("series %zu name", s), g.name, f.name);
    }
    if (g.values.size() != f.values.size()) {
      diff(strprintf("series '%s' value count", g.name.c_str()),
           strprintf("%zu", g.values.size()),
           strprintf("%zu", f.values.size()));
      continue;
    }
    for (std::size_t i = 0; i < g.values.size(); ++i) {
      if (std::abs(g.values[i] - f.values[i]) > kValueTolerance) {
        const std::string row = i < golden.row_labels.size()
                                    ? golden.row_labels[i]
                                    : strprintf("%zu", i);
        diff(strprintf("series '%s' row '%s'", g.name.c_str(), row.c_str()),
             format_value(g.values[i]), format_value(f.values[i]));
      }
    }
  }
  return cmp;
}

GoldenComparison compare_against_golden(const std::string& path,
                                        const report::FigureData& fig) {
  std::ifstream in(path);
  if (!in) {
    GoldenComparison cmp;
    cmp.missing = true;
    return cmp;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return compare_figures(parse_figure(text.str()), fig);
}

void update_golden(const std::string& path, const report::FigureData& fig) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("golden: cannot write " + path);
  out << serialize_figure(fig);
}

}  // namespace sttsim::check
