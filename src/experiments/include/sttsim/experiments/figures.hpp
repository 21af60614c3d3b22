// One driver per paper artifact (Table I, Figs. 1-9, plus the repo's
// ablations). Each returns ready-to-render report data; the artifact table
// (artifacts.hpp) names them, and `sttsim --artifact` prints them.
//
// Every function takes an optional kernel-name filter (empty = full suite)
// so integration tests can reproduce figure rows quickly on a subset.
#pragma once

#include <string>
#include <vector>

#include "sttsim/report/figure.hpp"

namespace sttsim::experiments {

using KernelFilter = std::vector<std::string>;

/// Table I: the 64 KB SRAM vs STT-MRAM macro comparison.
std::string table1_technology();

/// Fig. 1: drop-in NVM DL1 penalty vs the SRAM baseline, unoptimized code.
report::FigureData fig1_dropin_penalty(const KernelFilter& kernels = {});

/// Fig. 3: drop-in vs VWB-equipped NVM DL1 penalty, unoptimized code.
report::FigureData fig3_vwb_penalty(const KernelFilter& kernels = {});

/// Fig. 4: relative read/write contribution to the VWB system's penalty.
report::FigureData fig4_rw_breakdown(const KernelFilter& kernels = {});

/// Fig. 5: VWB system penalty with and without the Section V code
/// transformations (drop-in shown for reference).
report::FigureData fig5_transformations(const KernelFilter& kernels = {});

/// Fig. 6: share of the penalty reduction delivered by prefetching,
/// vectorization and the remaining ("others") transformations.
report::FigureData fig6_contributions(const KernelFilter& kernels = {});

/// Fig. 7: VWB system penalty for 1/2/4 KBit VWBs. Run on unoptimized code,
/// which isolates the capacity effect: with the Section V prefetching
/// enabled, the MSHR fill registers hide most of what extra VWB capacity
/// would otherwise capture (see fig7_vwb_size_optimized).
report::FigureData fig7_vwb_size(const KernelFilter& kernels = {});

/// Supplementary: the same sweep with the code transformations applied.
report::FigureData fig7_vwb_size_optimized(const KernelFilter& kernels = {});

/// Fig. 8: proposal vs EMSHR vs L0 cache (equal 2 KBit front capacity),
/// optimized code on all three.
report::FigureData fig8_alternatives(const KernelFilter& kernels = {});

/// Fig. 9: gain of the code transformations on the SRAM baseline vs on the
/// NVM proposal.
report::FigureData fig9_baseline_gain(const KernelFilter& kernels = {});

/// Ablation A1: effect of NVM banking (1/2/4/8 banks) on the optimized
/// VWB system.
report::FigureData ablation_banking(const KernelFilter& kernels = {});

/// Ablation A2: store-buffer depth sweep on the drop-in NVM system.
report::FigureData ablation_store_buffer(const KernelFilter& kernels = {});

/// Ablation A4: read- vs write-oriented mitigation — the paper's Section II
/// claim that "the write latency oriented techniques do not lead to good
/// results and they do not really mitigate the real latency penalty".
/// Compares the VWB proposal against an equal-capacity SRAM write-absorbing
/// buffer (Sun et al. [2] style) on unoptimized code.
report::FigureData ablation_write_mitigation(const KernelFilter& kernels = {});

/// A5: endurance report — projected time-to-first-cell-failure of the DL1
/// under the paper's cited write-endurance budgets (STT-MRAM 1e16,
/// ReRAM ~1e8, PRAM ~1e6), from the measured per-frame wear of each kernel.
std::string lifetime_report(const KernelFilter& kernels = {});

/// A3: DL1 energy per kernel (SRAM baseline vs VWB proposal), in uJ, plus
/// the iso-area capacity statement of the paper's conclusion.
report::FigureData energy_report(const KernelFilter& kernels = {});
std::string area_report();

/// X6: the conclusion's capacity argument, executed — a 128 KB STT-MRAM DL1
/// (what fits in the 64 KB SRAM macro's footprint, with the sqrt-scaled
/// latency that comes with it) vs the 64 KB proposal, unoptimized code.
report::FigureData exploration_iso_area(const KernelFilter& kernels = {});

/// X7: clock-frequency sensitivity of the drop-in penalty — why the read
/// bottleneck sharpens at advanced nodes (the STT read quantizes to more
/// and more cycles as the clock rises).
report::FigureData sensitivity_clock(const KernelFilter& kernels = {});

/// R1: IPC/energy vs retention-failure rate — VWB system penalty across raw
/// retention-failure rates under SEC-DED ECC (fixed fault seed), plus the
/// DL1 energy overhead of the worst rate.
report::FigureData fig_reliability_retention(const KernelFilter& kernels = {});

/// R2: lifetime vs organization — projected log10 years to first cell
/// failure under the STT-MRAM endurance budget, per write-mitigation
/// organization, from the wear counters the result store memoizes.
report::FigureData fig_reliability_lifetime(const KernelFilter& kernels = {});

/// R3: ECC overhead vs clock — runtime cost of the SEC-DED read path over
/// the fault-free system at the same clock.
report::FigureData fig_reliability_ecc_overhead(
    const KernelFilter& kernels = {});

/// X8: cell-generation sensitivity — the Section III bottleneck flip.
/// The old 1T-1MTJ cell (fast read / slow write) vs the paper's
/// perpendicular dual-MTJ cell (slow read / fast write), as drop-in and
/// with the VWB.
report::FigureData sensitivity_cell(const KernelFilter& kernels = {});

}  // namespace sttsim::experiments
