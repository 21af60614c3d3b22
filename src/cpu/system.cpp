#include "sttsim/cpu/system.hpp"

#include <algorithm>

#include "sttsim/alt/narrow_front_dl1.hpp"
#include "sttsim/core/plain_dl1.hpp"
#include "sttsim/core/vwb_dl1.hpp"
#include "sttsim/util/check.hpp"

namespace sttsim::cpu {

namespace {

// The single-granule entries are what make the concrete instantiations
// fast; a signature drift would silently route them through the full
// load/store instead.
static_assert(SingleGranuleDl1<core::PlainDl1System>);
static_assert(SingleGranuleDl1<core::VwbDl1System>);
static_assert(SingleGranuleDl1<alt::NarrowFrontDl1System>);
static_assert(!SingleGranuleDl1<core::Dl1System>);
static_assert(!SingleGranuleDl1<reliability::FaultyDl1System>);

// The replay instantiations build() picks from, one per DL1 class. The cast
// is safe by construction: build() pairs each dl1_ with its own class, and
// Dl1 = core::Dl1System (run_reference) is the identity.
template <class Dl1>
sim::RunStats run_as(const DecodedTrace& trace, core::Dl1System& dl1) {
  return replay(trace, static_cast<Dl1&>(dl1));
}

template <class Dl1>
sim::RunStats run_observed_as(const DecodedTrace& trace, core::Dl1System& dl1,
                              const OpObserver& observer) {
  return replay(trace, static_cast<Dl1&>(dl1),
                [&observer](const OpEvent& ev) { observer(ev); });
}

}  // namespace

const char* to_string(Dl1Organization org) {
  switch (org) {
    case Dl1Organization::kSramBaseline:
      return "sram-baseline";
    case Dl1Organization::kNvmDropIn:
      return "nvm-drop-in";
    case Dl1Organization::kNvmVwb:
      return "nvm-vwb";
    case Dl1Organization::kNvmL0:
      return "nvm-l0";
    case Dl1Organization::kNvmEmshr:
      return "nvm-emshr";
    case Dl1Organization::kNvmWriteBuf:
      return "nvm-writebuf";
  }
  return "?";
}

Dl1ConcreteClass concrete_class(const SystemConfig& config) {
  // Mirrors the dispatch in System::build, without building anything.
  switch (config.organization) {
    case Dl1Organization::kSramBaseline:
    case Dl1Organization::kNvmDropIn:
      return Dl1ConcreteClass::kPlain;
    case Dl1Organization::kNvmVwb:
      return config.vwb_geometry().sector_bytes ==
                     config.dl1_config().geometry.line_bytes
                 ? Dl1ConcreteClass::kVwb
                 : Dl1ConcreteClass::kNarrowFront;
    case Dl1Organization::kNvmL0:
    case Dl1Organization::kNvmEmshr:
    case Dl1Organization::kNvmWriteBuf:
      return Dl1ConcreteClass::kNarrowFront;
  }
  return Dl1ConcreteClass::kNarrowFront;
}

const tech::TechnologyParams& SystemConfig::dl1_tech() const {
  return organization == Dl1Organization::kSramBaseline ? sram : stt;
}

core::Dl1Config SystemConfig::dl1_config() const {
  const tech::TechnologyParams& t = dl1_tech();
  const tech::CycleTiming timing = tech::quantize(t, clock_ghz);
  core::Dl1Config c;
  c.geometry.capacity_bytes = t.capacity_bytes;
  c.geometry.associativity = t.associativity;
  c.geometry.line_bytes = t.line_bytes();
  c.timing.tag_cycles = 1;  // SRAM tags in every organization
  c.timing.read_cycles = timing.read_cycles;
  c.timing.write_cycles = timing.write_cycles;
  // Every organization gets the same banking so the technology latency is
  // the only variable (Section IV simulates a banked NVM array).
  c.timing.banks = nvm_banks;
  c.store_buffer_depth = store_buffer_depth;
  c.writeback_buffer_depth = writeback_buffer_depth;
  return c;
}

core::VwbGeometry SystemConfig::vwb_geometry() const {
  core::VwbGeometry g;
  // Auto mode replicates the paper's building block: 1 KBit register-file
  // lines, at least two of them ("two lines ... in conjunction").
  const unsigned lines =
      vwb_lines != 0 ? vwb_lines : std::max(2u, vwb_total_kbit);
  g.num_lines = lines;
  const std::uint64_t total_bytes =
      static_cast<std::uint64_t>(vwb_total_kbit) * 1024 / 8;
  if (total_bytes % lines != 0) {
    throw ConfigError("VWB capacity must divide evenly into lines");
  }
  g.line_bytes = total_bytes / lines;
  g.sector_bytes = stt.line_bytes();
  // A VWB line narrower than one DL1 line degenerates to sector == line
  // (1 KBit VWB in 2 lines: two single-sector lines).
  if (g.line_bytes < g.sector_bytes) g.sector_bytes = g.line_bytes;
  return g;
}

void SystemConfig::validate() const {
  if (clock_ghz <= 0) throw ConfigError("clock must be positive");
  sram.validate();
  stt.validate();
  l2.validate();
  if (faults.enabled) {
    faults.validate();
    ecc.validate();
  }
  dl1_config().validate();
  if (organization == Dl1Organization::kNvmVwb) {
    core::VwbDl1Config v;
    v.dl1 = dl1_config();
    v.vwb = vwb_geometry();
    v.mshr_entries = mshr_entries;
    // Degenerate geometries (sector < DL1 line) are caught here.
    if (v.vwb.sector_bytes == v.dl1.geometry.line_bytes) {
      v.validate();
    }
  }
}

System::System(const SystemConfig& config) : cfg_(config) {
  cfg_.validate();
  build();
}

System::System(const SystemConfig& config, Prevalidated) : cfg_(config) {
  build();
}

void System::build() {
  l2_ = std::make_unique<mem::L2System>(cfg_.l2);
  const core::Dl1Config dl1 = cfg_.dl1_config();
  // Pins the (dl1_, replay instantiation) pairing for run and run_observed.
  const auto select = [this]<class Dl1>() {
    fast_run_ = &run_as<Dl1>;
    observed_run_ = &run_observed_as<Dl1>;
  };
  switch (cfg_.organization) {
    case Dl1Organization::kSramBaseline:
    case Dl1Organization::kNvmDropIn: {
      dl1_ = std::make_unique<core::PlainDl1System>(
          to_string(cfg_.organization), dl1, l2_.get());
      select.operator()<core::PlainDl1System>();
      break;
    }
    case Dl1Organization::kNvmVwb: {
      core::VwbDl1Config v;
      v.dl1 = dl1;
      v.vwb = cfg_.vwb_geometry();
      v.mshr_entries = cfg_.mshr_entries;
      if (v.vwb.sector_bytes != v.dl1.geometry.line_bytes) {
        // Narrow VWB lines (sub-line sectors) are served by the generalized
        // narrow-front organization with on-access allocation.
        alt::NarrowFrontConfig n;
        n.dl1 = dl1;
        n.front_entries = v.vwb.num_lines;
        n.entry_bytes = v.vwb.line_bytes;
        n.policy = alt::FrontAllocPolicy::kOnLoadMiss;
        n.mshr_entries = cfg_.mshr_entries;
        dl1_ = std::make_unique<alt::NarrowFrontDl1System>(
            to_string(cfg_.organization), n, l2_.get());
        select.operator()<alt::NarrowFrontDl1System>();
      } else {
        dl1_ = std::make_unique<core::VwbDl1System>(
            to_string(cfg_.organization), v, l2_.get());
        select.operator()<core::VwbDl1System>();
      }
      break;
    }
    case Dl1Organization::kNvmL0: {
      dl1_ = std::make_unique<alt::NarrowFrontDl1System>(
          to_string(cfg_.organization), alt::make_l0_config(dl1), l2_.get());
      select.operator()<alt::NarrowFrontDl1System>();
      break;
    }
    case Dl1Organization::kNvmEmshr: {
      dl1_ = std::make_unique<alt::NarrowFrontDl1System>(
          to_string(cfg_.organization), alt::make_emshr_config(dl1),
          l2_.get());
      select.operator()<alt::NarrowFrontDl1System>();
      break;
    }
    case Dl1Organization::kNvmWriteBuf: {
      dl1_ = std::make_unique<alt::NarrowFrontDl1System>(
          to_string(cfg_.organization), alt::make_write_buffer_config(dl1),
          l2_.get());
      select.operator()<alt::NarrowFrontDl1System>();
      break;
    }
  }
  if (cfg_.faults_active()) {
    // Decorate the organization with the ECC read path. The decorator is
    // organization-agnostic: the loop calls it statically, and it reaches
    // the wrapped organization through the full virtual load/store.
    dl1_ = std::make_unique<reliability::FaultyDl1System>(
        std::move(dl1_), cfg_.faults, cfg_.ecc, dl1.geometry.line_bytes);
    select.operator()<reliability::FaultyDl1System>();
  }
  STTSIM_CHECK(fast_run_ != nullptr && observed_run_ != nullptr);
}

sim::RunStats System::run(const Trace& trace) {
  reset();
  return run_warm(trace);
}

sim::RunStats System::run(const DecodedTrace& trace) {
  reset();
  return run_warm(trace);
}

sim::RunStats System::run_warm(const Trace& trace) {
  return fast_run_(decode(trace), *dl1_);
}

sim::RunStats System::run_warm(const DecodedTrace& trace) {
  return fast_run_(trace, *dl1_);
}

sim::RunStats System::run_observed(const DecodedTrace& trace,
                                   const OpObserver& observer) {
  STTSIM_CHECK(static_cast<bool>(observer));
  reset();
  return observed_run_(trace, *dl1_, observer);
}

sim::RunStats System::run_reference(const DecodedTrace& trace) {
  reset();
  return run_as<core::Dl1System>(trace, *dl1_);
}

void System::reset() {
  l2_->reset();
  dl1_->reset();
}

}  // namespace sttsim::cpu
