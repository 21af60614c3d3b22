// The benchmark suite used in the paper's evaluation (a PolyBench subset),
// with fixed default problem sizes chosen so that each kernel's data
// footprint stresses the 64 KB DL1 while keeping simulation laptop-fast.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/trace.hpp"
#include "sttsim/workloads/codegen.hpp"

namespace sttsim::workloads {

struct Kernel {
  std::string name;
  std::string description;
  std::uint64_t footprint_bytes = 0;  ///< total array bytes at default size
  std::function<cpu::Trace(const CodegenOptions&)> generate;
  /// Direct-to-decoded synthesis: the same emission sequence as generate,
  /// landing in packed DecodedOps without a TraceOp vector or decode()
  /// pass, in arrays sized exactly (workloads::synthesize). Byte-identical
  /// to cpu::decode(generate(o)). May be empty on hand-rolled Kernel
  /// objects (tests); the trace cache falls back to decode(generate(o))
  /// then.
  std::function<cpu::DecodedTrace(const CodegenOptions&)> generate_decoded;
};

/// The 14-kernel suite, in a stable report order ending before the AVERAGE
/// row the figures add.
const std::vector<Kernel>& polybench_suite();

/// Finds a kernel by name; throws ConfigError if unknown.
const Kernel& find_kernel(const std::string& name);

}  // namespace sttsim::workloads
