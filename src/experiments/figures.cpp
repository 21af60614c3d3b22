#include "sttsim/experiments/figures.hpp"

#include <algorithm>
#include <cmath>

#include "sttsim/experiments/harness.hpp"
#include "sttsim/reliability/endurance.hpp"
#include "sttsim/report/table.hpp"
#include "sttsim/tech/area.hpp"
#include "sttsim/util/text.hpp"

namespace sttsim::experiments {
namespace {

using cpu::Dl1Organization;
using workloads::CodegenOptions;
using workloads::Kernel;

std::vector<std::string> labels_of(const std::vector<Kernel>& kernels) {
  std::vector<std::string> out;
  out.reserve(kernels.size());
  for (const Kernel& k : kernels) out.push_back(k.name);
  return out;
}

std::vector<double> penalties(const std::vector<sim::RunStats>& variant,
                              const std::vector<sim::RunStats>& baseline) {
  std::vector<double> out;
  out.reserve(variant.size());
  for (std::size_t i = 0; i < variant.size(); ++i) {
    out.push_back(penalty_pct(variant[i], baseline[i]));
  }
  return out;
}

}  // namespace

std::string table1_technology() {
  const tech::TechnologyParams sram = tech::sram_l1d_64kb();
  const tech::TechnologyParams stt = tech::stt_mram_l1d_64kb();
  const tech::CycleTiming sram_t = tech::quantize(sram, 1.0);
  const tech::CycleTiming stt_t = tech::quantize(stt, 1.0);

  report::TableBuilder t({"Parameter", "SRAM", "STT-MRAM"});
  t.add_row({"Read Latency", strprintf("%.3f ns", sram.read_latency_ns),
             strprintf("%.2f ns", stt.read_latency_ns)});
  t.add_row({"Write Latency", strprintf("%.3f ns", sram.write_latency_ns),
             strprintf("%.2f ns", stt.write_latency_ns)});
  t.add_row({"Read Latency @1GHz", strprintf("%u cycles", sram_t.read_cycles),
             strprintf("%u cycles", stt_t.read_cycles)});
  t.add_row({"Write Latency @1GHz",
             strprintf("%u cycles", sram_t.write_cycles),
             strprintf("%u cycles", stt_t.write_cycles)});
  t.add_row({"Leakage", strprintf("%.2f mW (reconstructed)", sram.leakage_mw),
             strprintf("%.2f mW", stt.leakage_mw)});
  t.add_row({"Cell Area", strprintf("%.0f F^2", sram.cell_area_f2),
             strprintf("%.0f F^2", stt.cell_area_f2)});
  t.add_row({"Capacity", format_bytes(sram.capacity_bytes),
             format_bytes(stt.capacity_bytes)});
  t.add_row({"Associativity", strprintf("%u-way", sram.associativity),
             strprintf("%u-way", stt.associativity)});
  t.add_row({"Cache Line Size", strprintf("%u bits", sram.line_bits),
             strprintf("%u bits", stt.line_bits)});
  return "Table I - 64KB SRAM L1 D-cache vs 64KB STT-MRAM L1 D-cache "
         "(32nm HP)\n" +
         t.render();
}

report::FigureData fig1_dropin_penalty(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const auto grid = run_grid(
      cache, kernels,
      {{make_config(Dl1Organization::kSramBaseline), base},
       {make_config(Dl1Organization::kNvmDropIn), base}});
  const auto& sram = grid[0];
  const auto& nvm = grid[1];
  report::FigureData fig;
  fig.title =
      "Fig. 1 - Performance penalty for the drop-in NVM D-cache, relative to "
      "the SRAM D-cache baseline (=100%)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  fig.series.push_back({"Drop-In STT-MRAM D-Cache", penalties(nvm, sram)});
  return report::with_average_row(std::move(fig));
}

report::FigureData fig3_vwb_penalty(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const auto grid = run_grid(
      cache, kernels,
      {{make_config(Dl1Organization::kSramBaseline), base},
       {make_config(Dl1Organization::kNvmDropIn), base},
       {make_config(Dl1Organization::kNvmVwb), base}});
  const auto& sram = grid[0];
  const auto& dropin = grid[1];
  const auto& vwb = grid[2];
  report::FigureData fig;
  fig.title =
      "Fig. 3 - Performance penalty for the modified NVM D-Cache (with VWB) "
      "compared to a simple drop-in NVM replacement (SRAM baseline = 100%)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  fig.series.push_back({"Drop-in NVM D-Cache", penalties(dropin, sram)});
  fig.series.push_back({"NVM D-Cache with VWB", penalties(vwb, sram)});
  return report::with_average_row(std::move(fig));
}

report::FigureData fig4_rw_breakdown(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const auto grid = run_grid(
      cache, kernels,
      {{make_config(Dl1Organization::kSramBaseline), base},
       {make_config(Dl1Organization::kNvmVwb), base}});
  const auto& sram = grid[0];
  const auto& vwb = grid[1];
  report::FigureData fig;
  fig.title =
      "Fig. 4 - Relative contribution of read vs write access latency to the "
      "penalty of the modified (VWB) NVM D-cache";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  std::vector<double> read_share;
  std::vector<double> write_share;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const double dr =
        static_cast<double>(vwb[i].core.read_stall_cycles) -
        static_cast<double>(sram[i].core.read_stall_cycles);
    const double dw =
        static_cast<double>(vwb[i].core.write_stall_cycles) -
        static_cast<double>(sram[i].core.write_stall_cycles);
    const double read_extra = std::max(dr, 0.0);
    const double write_extra = std::max(dw, 0.0);
    const double total = read_extra + write_extra;
    read_share.push_back(total == 0 ? 0.0 : read_extra / total * 100.0);
    write_share.push_back(total == 0 ? 0.0 : write_extra / total * 100.0);
  }
  fig.series.push_back({"Read penalty contribution", std::move(read_share)});
  fig.series.push_back({"Write penalty contribution", std::move(write_share)});
  return report::with_average_row(std::move(fig));
}

report::FigureData fig5_transformations(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const CodegenOptions full = CodegenOptions::all();
  const auto grid = run_grid(
      cache, kernels,
      {{make_config(Dl1Organization::kSramBaseline), base},
       {make_config(Dl1Organization::kSramBaseline), full},
       {make_config(Dl1Organization::kNvmDropIn), base},
       {make_config(Dl1Organization::kNvmVwb), base},
       {make_config(Dl1Organization::kNvmVwb), full}});
  const auto& sram_base = grid[0];
  const auto& sram_opt = grid[1];
  const auto& dropin = grid[2];
  const auto& vwb_base = grid[3];
  const auto& vwb_opt = grid[4];
  report::FigureData fig;
  fig.title =
      "Fig. 5 - Performance penalty of the modified NVM DL1 (with VWB) with "
      "and without code transformations (penalty vs the SRAM baseline "
      "running the same code = 100%)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  fig.series.push_back({"Drop-in NVM", penalties(dropin, sram_base)});
  fig.series.push_back({"No Optimization", penalties(vwb_base, sram_base)});
  fig.series.push_back({"With Optimization", penalties(vwb_opt, sram_opt)});
  return report::with_average_row(std::move(fig));
}

report::FigureData fig6_contributions(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const cpu::SystemConfig vwb_cfg = make_config(Dl1Organization::kNvmVwb);
  const auto grid = run_grid(
      cache, kernels,
      {{vwb_cfg, CodegenOptions::none()},
       {vwb_cfg, CodegenOptions::only_vectorize()},
       {vwb_cfg, CodegenOptions::only_prefetch()},
       {vwb_cfg, CodegenOptions::only_branch_opts()}});
  const auto& none = grid[0];
  const auto& vec = grid[1];
  const auto& pf = grid[2];
  const auto& br = grid[3];
  report::FigureData fig;
  fig.title =
      "Fig. 6 - Contribution of the individual code transformations to the "
      "performance-penalty reduction of the NVM DL1 (with VWB)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  std::vector<double> s_pf;
  std::vector<double> s_vec;
  std::vector<double> s_other;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const double c = static_cast<double>(none[i].core.total_cycles);
    const double r_vec =
        std::max(c - static_cast<double>(vec[i].core.total_cycles), 0.0);
    const double r_pf =
        std::max(c - static_cast<double>(pf[i].core.total_cycles), 0.0);
    const double r_br =
        std::max(c - static_cast<double>(br[i].core.total_cycles), 0.0);
    const double total = r_vec + r_pf + r_br;
    s_pf.push_back(total == 0 ? 0.0 : r_pf / total * 100.0);
    s_vec.push_back(total == 0 ? 0.0 : r_vec / total * 100.0);
    s_other.push_back(total == 0 ? 0.0 : r_br / total * 100.0);
  }
  fig.series.push_back({"Pre-fetching", std::move(s_pf)});
  fig.series.push_back({"Vectorization", std::move(s_vec)});
  fig.series.push_back({"Others", std::move(s_other)});
  return report::with_average_row(std::move(fig));
}

namespace {

report::FigureData vwb_size_sweep(const KernelFilter& filter,
                                  const CodegenOptions& opts,
                                  const std::string& title) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const std::vector<unsigned> kbits{1u, 2u, 4u};
  std::vector<SuiteJob> jobs{
      {make_config(Dl1Organization::kSramBaseline), opts}};
  for (const unsigned kbit : kbits) {
    cpu::SystemConfig cfg = make_config(Dl1Organization::kNvmVwb);
    cfg.vwb_total_kbit = kbit;
    jobs.push_back({cfg, opts});
  }
  const auto grid = run_grid(cache, kernels, jobs);
  report::FigureData fig;
  fig.title = title;
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  for (std::size_t i = 0; i < kbits.size(); ++i) {
    fig.series.push_back({strprintf("VWB = %uKBit", kbits[i]),
                          penalties(grid[i + 1], grid[0])});
  }
  return report::with_average_row(std::move(fig));
}

}  // namespace

report::FigureData fig7_vwb_size(const KernelFilter& filter) {
  return vwb_size_sweep(
      filter, CodegenOptions::none(),
      "Fig. 7 - Performance penalty of the proposal for different VWB sizes "
      "(unoptimized code; SRAM baseline = 100%)");
}

report::FigureData fig7_vwb_size_optimized(const KernelFilter& filter) {
  return vwb_size_sweep(
      filter, CodegenOptions::all(),
      "Fig. 7 (suppl.) - The same VWB size sweep with the Section V code "
      "transformations (prefetching hides most capacity effects)");
}

report::FigureData fig8_alternatives(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions full = CodegenOptions::all();
  const auto grid = run_grid(
      cache, kernels,
      {{make_config(Dl1Organization::kSramBaseline), full},
       {make_config(Dl1Organization::kNvmVwb), full},
       {make_config(Dl1Organization::kNvmEmshr), full},
       {make_config(Dl1Organization::kNvmL0), full}});
  const auto& sram = grid[0];
  report::FigureData fig;
  fig.title =
      "Fig. 8 - Performance penalty: our proposal vs a modified L0 cache and "
      "the EMSHR (all fronts 2 KBit, fully associative; SRAM baseline = "
      "100%)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  fig.series.push_back({"Our Proposal", penalties(grid[1], sram)});
  fig.series.push_back({"EMSHR", penalties(grid[2], sram)});
  fig.series.push_back({"L0-Cache", penalties(grid[3], sram)});
  return report::with_average_row(std::move(fig));
}

report::FigureData fig9_baseline_gain(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const CodegenOptions full = CodegenOptions::all();
  const cpu::SystemConfig sram_cfg =
      make_config(Dl1Organization::kSramBaseline);
  const cpu::SystemConfig vwb_cfg = make_config(Dl1Organization::kNvmVwb);
  const auto grid = run_grid(cache, kernels,
                             {{sram_cfg, base},
                              {sram_cfg, full},
                              {vwb_cfg, base},
                              {vwb_cfg, full}});
  const auto& sram_base = grid[0];
  const auto& sram_opt = grid[1];
  const auto& vwb_base = grid[2];
  const auto& vwb_opt = grid[3];
  report::FigureData fig;
  fig.title =
      "Fig. 9 - Effect of the code transformations on the SRAM baseline vs "
      "on the NVM proposal (gain over each system's own unoptimized run)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  std::vector<double> g_base;
  std::vector<double> g_vwb;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    g_base.push_back(gain_pct(sram_base[i], sram_opt[i]));
    g_vwb.push_back(gain_pct(vwb_base[i], vwb_opt[i]));
  }
  fig.series.push_back({"Baseline Performance gain", std::move(g_base)});
  fig.series.push_back({"NVM proposal Performance gain", std::move(g_vwb)});
  return report::with_average_row(std::move(fig));
}

report::FigureData ablation_banking(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions full = CodegenOptions::all();
  const std::vector<unsigned> bank_counts{1u, 2u, 4u, 8u};
  std::vector<SuiteJob> jobs{
      {make_config(Dl1Organization::kSramBaseline), full}};
  for (const unsigned banks : bank_counts) {
    cpu::SystemConfig cfg = make_config(Dl1Organization::kNvmVwb);
    cfg.nvm_banks = banks;
    jobs.push_back({cfg, full});
  }
  const auto grid = run_grid(cache, kernels, jobs);
  report::FigureData fig;
  fig.title =
      "Ablation A1 - NVM array banking vs optimized-VWB penalty (SRAM "
      "baseline = 100%)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  for (std::size_t i = 0; i < bank_counts.size(); ++i) {
    fig.series.push_back(
        {strprintf("%u bank%s", bank_counts[i],
                   bank_counts[i] == 1 ? "" : "s"),
         penalties(grid[i + 1], grid[0])});
  }
  return report::with_average_row(std::move(fig));
}

report::FigureData ablation_store_buffer(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const std::vector<unsigned> depths{1u, 2u, 4u, 8u};
  std::vector<SuiteJob> jobs{
      {make_config(Dl1Organization::kSramBaseline), base}};
  for (const unsigned depth : depths) {
    cpu::SystemConfig cfg = make_config(Dl1Organization::kNvmDropIn);
    cfg.store_buffer_depth = depth;
    jobs.push_back({cfg, base});
  }
  const auto grid = run_grid(cache, kernels, jobs);
  report::FigureData fig;
  fig.title =
      "Ablation A2 - Store-buffer depth vs drop-in NVM penalty (SRAM "
      "baseline = 100%)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  for (std::size_t i = 0; i < depths.size(); ++i) {
    fig.series.push_back({strprintf("depth %u", depths[i]),
                          penalties(grid[i + 1], grid[0])});
  }
  return report::with_average_row(std::move(fig));
}

report::FigureData ablation_write_mitigation(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const auto grid = run_grid(
      cache, kernels,
      {{make_config(Dl1Organization::kSramBaseline), base},
       {make_config(Dl1Organization::kNvmDropIn), base},
       {make_config(Dl1Organization::kNvmVwb), base},
       {make_config(Dl1Organization::kNvmWriteBuf), base}});
  const auto& sram = grid[0];
  report::FigureData fig;
  fig.title =
      "Ablation A4 - Read-oriented (VWB) vs write-oriented (SRAM write "
      "buffer) mitigation, unoptimized code (SRAM baseline = 100%)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  fig.series.push_back({"Drop-in NVM", penalties(grid[1], sram)});
  fig.series.push_back({"VWB (read-oriented)", penalties(grid[2], sram)});
  fig.series.push_back({"Write buffer [2]-style", penalties(grid[3], sram)});
  return report::with_average_row(std::move(fig));
}

std::string lifetime_report(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const auto stt = reliability::stt_mram_endurance();
  const auto reram = reliability::reram_endurance();
  const auto pram = reliability::pram_endurance();
  const cpu::SystemConfig cfg = make_config(Dl1Organization::kNvmVwb);
  // The RunStats wear counters (hottest frame / total array writes) are
  // enough to rebuild the profile, so this report is a one-job grid and
  // memoizes in the result store like every other figure.
  const auto grid = run_grid(cache, kernels, {{cfg, CodegenOptions::none()}});
  const std::uint64_t frames = cfg.dl1_config().geometry.num_lines();
  report::TableBuilder t({"kernel", "max frame writes/s", "STT-MRAM (1e16)",
                          "ReRAM (1e8)", "PRAM (1e6)",
                          "PRAM + ideal levelling"});
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const sim::RunStats& s = grid[0][i];
    const auto wear = reliability::profile_from_counters(
        s.mem.l1_frame_writes_max, s.mem.l1_frame_writes_total, frames,
        s.core.total_cycles, 1.0);
    t.add_row({kernels[i].name, strprintf("%.3g", wear.max_write_rate_hz()),
               reliability::format_lifetime(
                   reliability::project_lifetime(wear, stt)),
               reliability::format_lifetime(
                   reliability::project_lifetime(wear, reram)),
               reliability::format_lifetime(
                   reliability::project_lifetime(wear, pram)),
               reliability::format_lifetime(
                   reliability::project_lifetime_leveled(wear, pram))});
  }
  return std::string(
             "A5 - Projected DL1 time-to-first-cell-failure under sustained "
             "kernel write pressure\n(Section II's technology triage made "
             "quantitative: STT-MRAM is the only NVM whose\nendurance "
             "survives L1 write rates)\n\n") +
         t.render();
}

report::FigureData energy_report(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const auto grid = run_grid(
      cache, kernels,
      {{make_config(Dl1Organization::kSramBaseline), base},
       {make_config(Dl1Organization::kNvmVwb), base}});
  const auto& sram = grid[0];
  const auto& vwb = grid[1];
  report::FigureData fig;
  fig.title =
      "A3 - DL1 energy per kernel run (dynamic array accesses + leakage)";
  fig.row_header = "kernel";
  fig.value_unit = "uJ";
  fig.row_labels = labels_of(kernels);
  std::vector<double> e_sram;
  std::vector<double> e_vwb;
  const tech::TechnologyParams sram_t = tech::sram_l1d_64kb();
  const tech::TechnologyParams stt_t = tech::stt_mram_l1d_64kb();
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    e_sram.push_back(dl1_energy(sram[i], sram_t).total_nj() / 1e3);
    e_vwb.push_back(dl1_energy(vwb[i], stt_t).total_nj() / 1e3);
  }
  fig.series.push_back({"SRAM baseline", std::move(e_sram)});
  fig.series.push_back({"STT-MRAM + VWB", std::move(e_vwb)});
  return report::with_average_row(std::move(fig));
}

report::FigureData exploration_iso_area(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  // Realistic scaling: the doubled array pays sqrt(2) more latency
  // (3.37 ns -> 4.77 ns quantizes to a 5th read cycle).
  cpu::SystemConfig big = make_config(Dl1Organization::kNvmVwb);
  big.stt = tech::scale_capacity(big.stt, 128 * kKiB);
  // Optimistic bound: capacity doubles at unchanged latency (banked-array
  // designs can approach this by keeping subarray size constant).
  cpu::SystemConfig big_fast = make_config(Dl1Organization::kNvmVwb);
  big_fast.stt.capacity_bytes = 128 * kKiB;
  const auto grid = run_grid(
      cache, kernels,
      {{make_config(Dl1Organization::kSramBaseline), base},
       {make_config(Dl1Organization::kNvmVwb), base},
       {big, base},
       {big_fast, base}});
  const auto& sram = grid[0];
  report::FigureData fig;
  fig.title =
      "X6 - Iso-area capacity: 64 KB vs 128 KB STT-MRAM DL1 (the 64 KB SRAM "
      "macro's footprint), with the VWB, unoptimized code (SRAM baseline = "
      "100%). 'scaled' pays the sqrt(2) array-latency cost; 'subarrayed' "
      "holds latency via constant-size subarrays";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  fig.series.push_back({"VWB 64KB", penalties(grid[1], sram)});
  fig.series.push_back({"VWB 128KB scaled", penalties(grid[2], sram)});
  fig.series.push_back({"VWB 128KB subarrayed", penalties(grid[3], sram)});
  return report::with_average_row(std::move(fig));
}

report::FigureData sensitivity_clock(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const std::vector<double> clocks{1.0, 1.5, 2.0, 3.0};
  // One batch for the whole sweep: (SRAM, NVM) pairs per clock.
  std::vector<SuiteJob> jobs;
  for (const double ghz : clocks) {
    cpu::SystemConfig s_cfg = make_config(Dl1Organization::kSramBaseline);
    s_cfg.clock_ghz = ghz;
    cpu::SystemConfig n_cfg = make_config(Dl1Organization::kNvmDropIn);
    n_cfg.clock_ghz = ghz;
    jobs.push_back({s_cfg, base});
    jobs.push_back({n_cfg, base});
  }
  const auto grid = run_grid(cache, kernels, jobs);
  report::FigureData fig;
  fig.title =
      "X7 - Drop-in penalty vs core clock (the STT read quantizes to more "
      "cycles as the clock rises; SRAM baseline at the same clock = 100%)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  for (std::size_t i = 0; i < clocks.size(); ++i) {
    fig.series.push_back({strprintf("%.1f GHz", clocks[i]),
                          penalties(grid[2 * i + 1], grid[2 * i])});
  }
  return report::with_average_row(std::move(fig));
}

report::FigureData sensitivity_cell(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const auto dual = tech::stt_mram_l1d_64kb();
  const auto mtj1 = tech::stt_mram_l1d_64kb_1t1mtj();
  const auto cfg_with = [&](const tech::TechnologyParams& cell,
                            Dl1Organization org) {
    cpu::SystemConfig cfg = make_config(org);
    cfg.stt = cell;
    return cfg;
  };
  const auto grid = run_grid(
      cache, kernels,
      {{make_config(Dl1Organization::kSramBaseline), base},
       {cfg_with(dual, Dl1Organization::kNvmDropIn), base},
       {cfg_with(mtj1, Dl1Organization::kNvmDropIn), base},
       {cfg_with(dual, Dl1Organization::kNvmVwb), base},
       {cfg_with(mtj1, Dl1Organization::kNvmVwb), base}});
  const auto& sram = grid[0];
  report::FigureData fig;
  fig.title =
      "X8 - Cell-generation sensitivity: the Section III bottleneck flip "
      "(1T-1MTJ reads fast/writes slowly; the dual-MTJ cell is the paper's "
      "read-limited Table I part; SRAM baseline = 100%)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  fig.series.push_back({"dual-MTJ drop-in", penalties(grid[1], sram)});
  fig.series.push_back({"1T-1MTJ drop-in", penalties(grid[2], sram)});
  fig.series.push_back({"dual-MTJ + VWB", penalties(grid[3], sram)});
  fig.series.push_back({"1T-1MTJ + VWB", penalties(grid[4], sram)});
  return report::with_average_row(std::move(fig));
}

namespace {

/// Fixed campaign seed for the pinned reliability figures: the fault
/// schedule is part of the golden contract, so the seed is a constant here
/// rather than a parameter.
constexpr std::uint64_t kReliabilitySeed = 0x5eed;

cpu::SystemConfig faulted_config(Dl1Organization org, std::uint32_t ppm) {
  cpu::SystemConfig cfg = make_config(org);
  cfg.faults.enabled = true;
  cfg.faults.seed = kReliabilitySeed;
  cfg.faults.fail_ppm = ppm;
  return cfg;
}

}  // namespace

report::FigureData fig_reliability_retention(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const std::vector<std::uint32_t> ppms{0, 1000, 10000, 100000};
  std::vector<SuiteJob> jobs;
  jobs.push_back({make_config(Dl1Organization::kSramBaseline), base});
  for (const std::uint32_t ppm : ppms) {
    jobs.push_back({faulted_config(Dl1Organization::kNvmVwb, ppm), base});
  }
  const auto grid = run_grid(cache, kernels, jobs);
  const auto& sram = grid[0];
  report::FigureData fig;
  fig.title =
      "R1 - VWB system penalty vs raw retention-failure rate (SEC-DED ECC: "
      "single-bit flips corrected on read, double-bit flips refill the "
      "line; fault-free SRAM baseline = 100%). The last series is the DL1 "
      "energy overhead of the worst failure rate over the fault-free VWB "
      "system (longer runtime = more leakage)";
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  for (std::size_t i = 0; i < ppms.size(); ++i) {
    fig.series.push_back({strprintf("fail ppm=%u", ppms[i]),
                          penalties(grid[1 + i], sram)});
  }
  const tech::TechnologyParams stt_t = tech::stt_mram_l1d_64kb();
  std::vector<double> energy_overhead;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const double clean = dl1_energy(grid[1][i], stt_t).total_nj();
    const double worst = dl1_energy(grid[ppms.size()][i], stt_t).total_nj();
    energy_overhead.push_back((worst - clean) / clean * 100.0);
  }
  fig.series.push_back(
      {strprintf("energy overhead @ppm=%u", ppms.back()),
       std::move(energy_overhead)});
  return report::with_average_row(std::move(fig));
}

report::FigureData fig_reliability_lifetime(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const auto stt = reliability::stt_mram_endurance();
  const std::vector<Dl1Organization> orgs{Dl1Organization::kNvmDropIn,
                                          Dl1Organization::kNvmVwb,
                                          Dl1Organization::kNvmWriteBuf};
  std::vector<SuiteJob> jobs;
  for (const Dl1Organization org : orgs) {
    jobs.push_back({make_config(org), base});
  }
  const auto grid = run_grid(cache, kernels, jobs);
  // The RunStats wear counters (hottest frame / total array writes) are
  // enough to rebuild the projection, so this figure memoizes in the
  // result store.
  const auto years = [&](const sim::RunStats& s, bool leveled) {
    const std::uint64_t frames =
        make_config(Dl1Organization::kNvmDropIn).dl1_config().geometry
            .num_lines();
    const auto wear = reliability::profile_from_counters(
        s.mem.l1_frame_writes_max, s.mem.l1_frame_writes_total, frames,
        s.core.total_cycles, 1.0);
    const auto est = leveled ? reliability::project_lifetime_leveled(wear, stt)
                             : reliability::project_lifetime(wear, stt);
    return std::log10(est.years());
  };
  report::FigureData fig;
  fig.title =
      "R2 - Projected DL1 lifetime (log10 years to first cell failure, "
      "STT-MRAM 1e16 writes/cell) vs organization under sustained kernel "
      "write pressure; 'leveled' spreads writes evenly over all frames "
      "(the wear-levelling headroom)";
  fig.row_header = "kernel";
  fig.value_unit = "log10(years)";
  fig.row_labels = labels_of(kernels);
  for (std::size_t j = 0; j < orgs.size(); ++j) {
    std::vector<double> v;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      v.push_back(years(grid[j][i], /*leveled=*/false));
    }
    fig.series.push_back({to_string(orgs[j]), std::move(v)});
  }
  std::vector<double> leveled;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    leveled.push_back(years(grid[1][i], /*leveled=*/true));
  }
  fig.series.push_back({"nvm-vwb leveled", std::move(leveled)});
  return report::with_average_row(std::move(fig));
}

report::FigureData fig_reliability_ecc_overhead(const KernelFilter& filter) {
  const std::vector<Kernel> kernels = select_kernels(filter);
  TraceCache cache;
  const CodegenOptions base = CodegenOptions::none();
  const std::vector<double> clocks{1.0, 2.0, 3.0};
  constexpr std::uint32_t kPpm = 100000;
  // (clean, faulted) pairs per clock, like sensitivity_clock.
  std::vector<SuiteJob> jobs;
  for (const double ghz : clocks) {
    cpu::SystemConfig clean = make_config(Dl1Organization::kNvmVwb);
    clean.clock_ghz = ghz;
    cpu::SystemConfig faulted = faulted_config(Dl1Organization::kNvmVwb, kPpm);
    faulted.clock_ghz = ghz;
    jobs.push_back({clean, base});
    jobs.push_back({faulted, base});
  }
  const auto grid = run_grid(cache, kernels, jobs);
  report::FigureData fig;
  fig.title = strprintf(
      "R3 - ECC overhead vs core clock: runtime cost of the SEC-DED read "
      "path (correction + refill penalties at fail ppm=%u) over the "
      "fault-free VWB system at the same clock (=100%%). Retention windows "
      "are cycle-denominated, so a faster clock both shortens the window "
      "wall-time and shrinks the relative cost of each fixed-cycle "
      "correction",
      kPpm);
  fig.row_header = "kernel";
  fig.value_unit = "%";
  fig.row_labels = labels_of(kernels);
  for (std::size_t i = 0; i < clocks.size(); ++i) {
    fig.series.push_back({strprintf("%.1f GHz", clocks[i]),
                          penalties(grid[2 * i + 1], grid[2 * i])});
  }
  return report::with_average_row(std::move(fig));
}

std::string area_report() {
  const tech::TechnologyParams sram = tech::sram_l1d_64kb();
  const tech::TechnologyParams stt = tech::stt_mram_l1d_64kb();
  const tech::AreaEstimate a_sram = tech::compute_area(sram);
  const tech::AreaEstimate a_stt = tech::compute_area(stt);
  const std::uint64_t iso = tech::iso_area_capacity(stt, sram);
  report::TableBuilder t({"Metric", "SRAM", "STT-MRAM"});
  t.add_row({"Cell array area", strprintf("%.4f mm^2", a_sram.cell_area_mm2),
             strprintf("%.4f mm^2", a_stt.cell_area_mm2)});
  t.add_row({"Peripheral area",
             strprintf("%.4f mm^2", a_sram.peripheral_area_mm2),
             strprintf("%.4f mm^2", a_stt.peripheral_area_mm2)});
  t.add_row({"Total area", strprintf("%.4f mm^2", a_sram.total_mm2()),
             strprintf("%.4f mm^2", a_stt.total_mm2())});
  std::string out =
      "A3 - Area model for the 64KB DL1 macros (32nm)\n" + t.render();
  out += strprintf(
      "\nIso-area capacity: an STT-MRAM DL1 in the SRAM macro's footprint "
      "holds %s (%.1fx the SRAM capacity) - the paper's \"around 2-3x\" "
      "area-gain claim.\n",
      format_bytes(iso).c_str(),
      static_cast<double>(iso) / static_cast<double>(sram.capacity_bytes));
  return out;
}

}  // namespace sttsim::experiments
