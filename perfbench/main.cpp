// sttbench: runs one benchmark workload and prints its result as one JSON
// object on the last line of stdout. perfbench/run.py builds and drives it.
//
//   sttbench --workload=NAME --seed=N --seconds=S --trace=0|1 --width=W
//            --reference=FILE --work-dir=DIR [--spans-out=FILE]
//            [--perturb=ARTIFACT]
//   sttbench --emit-references --width=W
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "sttsim/exec/parallel_executor.hpp"

namespace {

void json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string to_json(const sttbench::Outcome& r) {
  std::string out = "{\"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i != 0) out += ", ";
    json_string(out, r.errors[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, m] : r.metrics) {
    if (!first) out += ", ";
    first = false;
    json_string(out, name);
    std::snprintf(value, sizeof value, ": {\"value\": %.17g, \"unit\": ",
                  m.value);
    out += value;
    json_string(out, m.unit);
    out += '}';
  }
  out += "}}";
  return out;
}

bool flag(const std::string& arg, const char* name, std::string& value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  sttbench::Options o;
  bool emit_references = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string v;
      if (arg == "--emit-references") {
        emit_references = true;
      } else if (flag(arg, "workload", v)) {
        o.workload = v;
      } else if (flag(arg, "seed", v)) {
        o.seed = std::stoull(v);
      } else if (flag(arg, "seconds", v)) {
        o.seconds = std::stod(v);
      } else if (flag(arg, "trace", v)) {
        o.trace = std::stoi(v) != 0;
      } else if (flag(arg, "width", v)) {
        o.width = static_cast<unsigned>(std::stoul(v));
      } else if (flag(arg, "reference", v)) {
        o.reference = v;
      } else if (flag(arg, "work-dir", v)) {
        o.work_dir = v;
      } else if (flag(arg, "spans-out", v)) {
        o.spans_out = v;
      } else if (flag(arg, "perturb", v)) {
        o.perturb = v;
      } else {
        std::fprintf(stderr, "sttbench: unknown argument %s\n", arg.c_str());
        return 2;
      }
    }
    if (o.width == 0) {
      std::fprintf(stderr, "sttbench: --width must be at least 1\n");
      return 2;
    }
    if (emit_references) {
      sttsim::exec::set_default_jobs(o.width);
      std::fputs(sttbench::reference_digests().c_str(), stdout);
      return 0;
    }
    const sttbench::Outcome r = sttbench::run_workload(o);
    std::printf("%s\n", to_json(r).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sttbench: %s\n", e.what());
    return 1;
  }
}
