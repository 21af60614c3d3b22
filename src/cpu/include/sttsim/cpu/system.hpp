// Whole-platform assembly: picks a DL1 organization, derives its cycle
// timing from the technology models, and wires it to the shared L2/memory.
//
// This is the library's main entry point: construct a System from a
// SystemConfig, then call run() on a workload trace.
#pragma once

#include <memory>
#include <string>

#include "sttsim/core/dl1_system.hpp"
#include "sttsim/core/vwb.hpp"
#include "sttsim/cpu/decoded_trace.hpp"
#include "sttsim/cpu/replay.hpp"
#include "sttsim/cpu/trace.hpp"
#include "sttsim/mem/l2_system.hpp"
#include "sttsim/reliability/fault.hpp"
#include "sttsim/tech/technology.hpp"

namespace sttsim::cpu {

/// The five DL1 organizations the paper evaluates.
enum class Dl1Organization {
  kSramBaseline,  ///< Table I SRAM column — the reference system
  kNvmDropIn,     ///< Fig. 1: STT-MRAM array, no further changes
  kNvmVwb,        ///< Section IV: STT-MRAM + Very Wide Buffer (the proposal)
  kNvmL0,         ///< Fig. 8: STT-MRAM + 2 KBit fully-associative L0 cache
  kNvmEmshr,      ///< Fig. 8: STT-MRAM + 2 KBit enhanced MSHR
  kNvmWriteBuf,   ///< write-mitigation hybrid (Sun et al. [2] style):
                  ///< 2 KBit SRAM write-absorbing buffer in front of the
                  ///< NVM array — Section II's "write latency oriented
                  ///< techniques" foil
};

const char* to_string(Dl1Organization org);

/// The concrete implementation class a SystemConfig maps onto. All six
/// organizations resolve to one of three `final` classes, and each class
/// has its own instantiation of the replay loop (cpu/replay.hpp).
enum class Dl1ConcreteClass {
  kPlain,        ///< core::PlainDl1System
  kVwb,          ///< core::VwbDl1System
  kNarrowFront,  ///< alt::NarrowFrontDl1System
};

struct SystemConfig {
  Dl1Organization organization = Dl1Organization::kSramBaseline;
  double clock_ghz = 1.0;  ///< paper Section VI

  /// VWB geometry (used by kNvmVwb): total capacity in KBit and line count.
  /// The paper's default is 2 KBit in 2 lines of 1 KBit; Fig. 7 sweeps
  /// 1/2/4 KBit. `vwb_lines == 0` scales the number of 1 KBit register-file
  /// lines with capacity (max(2, kbit)), matching "2 lines of 1 KBit".
  unsigned vwb_total_kbit = 2;
  unsigned vwb_lines = 0;

  /// DL1 data-array banking. Applied to every organization (the SRAM
  /// baseline too) so that the technology latency — not the port count — is
  /// the experimental variable, as in the paper's gem5 setup.
  unsigned nvm_banks = 4;

  unsigned store_buffer_depth = 4;
  unsigned writeback_buffer_depth = 4;
  unsigned mshr_entries = 8;

  /// Technology descriptions; defaults are the Table I macros.
  tech::TechnologyParams sram = tech::sram_l1d_64kb();
  tech::TechnologyParams stt = tech::stt_mram_l1d_64kb();
  mem::L2Config l2;

  /// Retention-fault injection + ECC read path (src/reliability). Applies
  /// to the NVM organizations only: the SRAM baseline has no retention
  /// faults, so `faults.enabled` is ignored there (see faults_active()).
  reliability::FaultConfig faults;
  reliability::EccConfig ecc;

  /// Whether this configuration actually injects faults: enabled, a
  /// nonzero failure rate (fail_ppm == 0 can never deliver a fault, so its
  /// RunStats equal the fault-free run's) AND an STT-MRAM data array. Every
  /// layer keys off this — build() wraps the DL1, the oracle wraps its
  /// reference, and simulation_digest folds the fault/ECC parameters.
  bool faults_active() const {
    return faults.enabled && faults.fail_ppm != 0 &&
           organization != Dl1Organization::kSramBaseline;
  }

  /// The DL1 technology this organization uses.
  const tech::TechnologyParams& dl1_tech() const;
  /// Derived cycle-level DL1 configuration for this organization.
  core::Dl1Config dl1_config() const;
  /// Derived VWB geometry (valid for kNvmVwb).
  core::VwbGeometry vwb_geometry() const;

  void validate() const;
};

/// The concrete DL1 class System::build would instantiate for `config`
/// (without building anything). Precondition: `config` validates.
Dl1ConcreteClass concrete_class(const SystemConfig& config);

/// A fully-wired single-core platform.
class System {
 public:
  /// Tag for the pre-validated constructor: the parallel experiment engine
  /// validates each grid configuration once and then builds many Systems
  /// from it, skipping the redundant per-job validation.
  struct Prevalidated {};
  static constexpr Prevalidated kPrevalidated{};

  explicit System(const SystemConfig& config);
  System(const SystemConfig& config, Prevalidated);

  /// Runs a trace on a *fresh* system state (cold caches) and returns stats.
  /// Replays through cpu::replay instantiated over the concrete organization
  /// class (a fault-injecting system: over reliability::FaultyDl1System),
  /// decoding the trace on the fly; callers replaying the same trace
  /// repeatedly should decode once and use the DecodedTrace overload.
  sim::RunStats run(const Trace& trace);
  sim::RunStats run(const DecodedTrace& trace);

  /// Runs without resetting (for warm-up composition in tests).
  sim::RunStats run_warm(const Trace& trace);
  sim::RunStats run_warm(const DecodedTrace& trace);

  /// run(trace) with `observer` called after every retired op: the replay
  /// loop over the same DL1 class, with the same dispatch, so the
  /// differential oracle (check::run_differential) checks the code path
  /// the figures run. `observer` must not be empty.
  sim::RunStats run_observed(const DecodedTrace& trace,
                             const OpObserver& observer);

  /// Runs on a fresh state through cpu::replay instantiated over the
  /// abstract core::Dl1System: every access takes the full virtual
  /// load/store. The reference run() is held byte-identical to
  /// (tests/test_fastpath), and the fallback for debugging.
  sim::RunStats run_reference(const DecodedTrace& trace);

  const SystemConfig& config() const { return cfg_; }
  core::Dl1System& dl1() { return *dl1_; }
  mem::L2System& l2() { return *l2_; }

  /// Resets all simulated state (caches, buffers, stats).
  void reset();

 private:
  /// Replays a decoded trace through the loop instantiation selected at
  /// build() time (compile-time dispatch, one indirect call per run).
  using RunFn = sim::RunStats (*)(const DecodedTrace&, core::Dl1System&);
  using ObservedRunFn = sim::RunStats (*)(const DecodedTrace&,
                                          core::Dl1System&,
                                          const OpObserver&);

  void build();

  SystemConfig cfg_;
  std::unique_ptr<mem::L2System> l2_;
  std::unique_ptr<core::Dl1System> dl1_;
  RunFn fast_run_ = nullptr;
  ObservedRunFn observed_run_ = nullptr;
};

}  // namespace sttsim::cpu
