// Performance-regression guard: compares two BENCH_perf.json files (as
// written by bench/perf_smoke) and exits nonzero when any tracked throughput
// metric regressed by more than the tolerance.
//
//   perf_compare BASELINE.json CURRENT.json [--tolerance=0.20]
//
// Tracked metrics:
//   * per-figure serial replay throughput  (figures[].serial.trace_ops_per_sec)
//   * per-organization fast-path replay    (replay.organizations[].fast_ops_per_sec)
//   * aggregate fast-path replay           (replay.fast_agg_ops_per_sec)
//   * result-store warm-replay speedups    (store.runs[].warm_speedup, one
//     metric per pool width: store:warm_speedup@jN)
//
// Every comparison prints its delta — within tolerance or not — plus one
// summary line per section (figure / replay / store), so a run's
// drift is visible before it crosses the regression threshold.
//
// Exit codes: 0 all good, 1 regression(s), 2 usage / unreadable current
// file / no common metrics, 3 baseline file missing (distinct so callers —
// the perf ctest — can tell "no baseline yet" from a real failure).
//
// Only metrics present in BOTH files are compared (a --quick baseline still
// guards the figures it contains, and a baseline that predates the store
// section simply contributes no store metrics). The parser is deliberately
// minimal — it understands exactly the flat key layout perf_smoke emits,
// keeping the tool dependency-free.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Metric {
  std::string name;   // e.g. "figure:fig1_dropin_penalty" or "replay:nvm-vwb"
  double value = 0.0;
};

std::string slurp(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perf_compare: cannot read %s\n", path);
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Value of the first `"key": <number>` at or after `from`; -1 if absent.
/// `end` bounds the search (npos = end of text).
double number_after(const std::string& text, const std::string& key,
                    std::size_t from, std::size_t end = std::string::npos) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t k = text.find(needle, from);
  if (k == std::string::npos || (end != std::string::npos && k >= end)) {
    return -1.0;
  }
  return std::strtod(text.c_str() + k + needle.size(), nullptr);
}

/// First `"key": "<string>"` at or after `from`; empty if absent.
std::string string_after(const std::string& text, const std::string& key,
                         std::size_t from) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t k = text.find(needle, from);
  if (k == std::string::npos) return {};
  const std::size_t start = k + needle.size();
  const std::size_t stop = text.find('"', start);
  if (stop == std::string::npos) return {};
  return text.substr(start, stop - start);
}

/// Extracts the tracked metrics from one perf_smoke JSON dump.
std::vector<Metric> extract(const std::string& text) {
  std::vector<Metric> out;
  // Figures: each entry is {"name": ..., "serial": {...}, "parallel": ...};
  // the first trace_ops_per_sec after the name belongs to the serial run.
  const std::size_t figures = text.find("\"figures\"");
  const std::size_t replay = text.find("\"replay\"");
  std::size_t pos = figures;
  while (pos != std::string::npos) {
    const std::size_t entry = text.find("{\"name\": \"", pos + 1);
    if (entry == std::string::npos || (replay != std::string::npos &&
                                       entry >= replay)) {
      break;
    }
    const std::string name = string_after(text, "name", entry);
    const double v = number_after(text, "trace_ops_per_sec", entry, replay);
    if (!name.empty() && v >= 0.0) {
      out.push_back(Metric{"figure:" + name, v});
    }
    pos = entry;
  }
  // Replay organizations, bounded by the store section that follows. (Older
  // files carry a "batch" section in between; its per-org entries have no
  // fast_ops_per_sec key, so they contribute nothing.)
  const std::size_t store = text.find("\"store\"");
  pos = replay;
  while (pos != std::string::npos) {
    const std::size_t entry = text.find("{\"org\": \"", pos + 1);
    if (entry == std::string::npos ||
        (store != std::string::npos && entry >= store)) {
      break;
    }
    const std::string org = string_after(text, "org", entry);
    const double v = number_after(text, "fast_ops_per_sec", entry, store);
    if (!org.empty() && v >= 0.0) {
      out.push_back(Metric{"replay:" + org, v});
    }
    pos = entry;
  }
  if (replay != std::string::npos) {
    const double agg =
        number_after(text, "fast_agg_ops_per_sec", replay, store);
    if (agg >= 0.0) out.push_back(Metric{"replay:aggregate", agg});
  }
  // Result-store warm-replay speedups, one per pool width. A speedup is a
  // ratio, not ops/s, but regresses the same way: smaller = slower warm
  // path. Bounded by the trailing "total" section.
  const std::size_t total = text.find("\"total\"");
  pos = store;
  while (pos != std::string::npos) {
    const std::size_t entry = text.find("{\"jobs\": ", pos + 1);
    if (entry == std::string::npos ||
        (total != std::string::npos && entry >= total)) {
      break;
    }
    const double j = number_after(text, "jobs", entry, total);
    const double v = number_after(text, "warm_speedup", entry, total);
    if (j >= 0.0 && v >= 0.0) {
      out.push_back(Metric{
          "store:warm_speedup@j" + std::to_string(static_cast<int>(j)), v});
    }
    pos = entry;
  }
  return out;
}

const Metric* find(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  double tolerance = 0.20;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
      tolerance = std::strtod(argv[i] + 12, nullptr);
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (current_path == nullptr) {
      current_path = argv[i];
    } else {
      baseline_path = nullptr;
      break;
    }
  }
  if (baseline_path == nullptr || current_path == nullptr) {
    std::fprintf(stderr,
                 "usage: perf_compare BASELINE.json CURRENT.json "
                 "[--tolerance=0.20]\n");
    return 2;
  }

  // A missing baseline is not a regression — it means nothing has been
  // recorded yet. Distinct exit code so scripted callers can special-case
  // it instead of conflating it with a usage error or a real failure.
  {
    std::ifstream probe(baseline_path);
    if (!probe) {
      std::fprintf(stderr,
                   "perf_compare: no baseline at %s\n"
                   "perf_compare: generate one with bench/perf_smoke "
                   "(writes BENCH_perf.json at the repo root) and commit "
                   "it\n",
                   baseline_path);
      return 3;
    }
  }

  const std::vector<Metric> baseline = extract(slurp(baseline_path));
  const std::vector<Metric> current = extract(slurp(current_path));

  struct Section {
    std::string name;
    unsigned compared = 0;
    double ratio_sum = 0.0;
    double worst = 1e300;
  };
  std::vector<Section> sections;
  unsigned compared = 0;
  unsigned regressed = 0;
  unsigned ignored = 0;
  for (const Metric& b : baseline) {
    const Metric* c = find(current, b.name);
    if (c == nullptr) continue;
    // A zero or NaN throughput (a figure that ran 0 simulations, a clock
    // that returned garbage) carries no signal either way: dividing by it
    // would turn a bookkeeping glitch into a fake regression or — worse —
    // a fake infinite improvement. Report it as n/a and move on.
    if (!std::isfinite(b.value) || b.value <= 0.0 ||
        !std::isfinite(c->value) || c->value <= 0.0) {
      std::printf("%-34s %12.3g -> %12.3g ops/s     n/a  [ignored]\n",
                  b.name.c_str(), b.value, c->value);
      ignored += 1;
      continue;
    }
    compared += 1;
    const double ratio = c->value / b.value;
    // Store warm-speedups are ratios near 10^4 whose denominator is a
    // sub-millisecond warm pass: scheduler noise moves them +/-15% run to
    // run even with batched best-of-N timing, so they are guarded against
    // collapse (a broken store drops them by orders of magnitude), not
    // against point noise. Every other metric keeps the tight band.
    const double tol =
        b.name.rfind("store:", 0) == 0 ? std::max(tolerance, 0.50) : tolerance;
    const bool bad = ratio < 1.0 - tol;
    regressed += bad ? 1 : 0;
    std::printf("%-34s %12.3g -> %12.3g ops/s  %+6.1f%%%s\n", b.name.c_str(),
                b.value, c->value, (ratio - 1.0) * 100.0,
                bad ? "  [REGRESSION]" : "");
    const std::string sec = b.name.substr(0, b.name.find(':'));
    Section* s = nullptr;
    for (Section& it : sections) {
      if (it.name == sec) s = &it;
    }
    if (s == nullptr) {
      sections.push_back(Section{sec});
      s = &sections.back();
    }
    s->compared += 1;
    s->ratio_sum += ratio;
    if (ratio < s->worst) s->worst = ratio;
  }
  if (compared == 0 && ignored == 0) {
    std::fprintf(stderr,
                 "perf_compare: no common metrics between %s and %s\n",
                 baseline_path, current_path);
    return 2;
  }
  if (compared == 0) {
    std::printf("0 metric(s) compared, %u ignored (zero/NaN) — nothing to "
                "judge, not a regression\n",
                ignored);
    return 0;
  }
  for (const Section& s : sections) {
    std::printf("section %-8s %u metric(s), mean %+6.1f%%, worst %+6.1f%%\n",
                s.name.c_str(), s.compared,
                (s.ratio_sum / s.compared - 1.0) * 100.0,
                (s.worst - 1.0) * 100.0);
  }
  if (ignored > 0) {
    std::printf("%u metric(s) compared (%u ignored: zero/NaN), "
                "%u regression(s) beyond %.0f%%\n",
                compared, ignored, regressed, tolerance * 100.0);
  } else {
    std::printf("%u metric(s) compared, %u regression(s) beyond %.0f%%\n",
                compared, regressed, tolerance * 100.0);
  }
  return regressed == 0 ? 0 : 1;
}
