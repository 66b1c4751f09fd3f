// X-Men baseline (Dulloor et al., "Data Tiering in Heterogeneous Memory
// Systems", EuroSys 2016 — the comparator in the paper's Figs. 9/10).
//
// Per the papers: X-Men uses *offline* PIN profiling to characterize the
// memory behaviour of each data object over the whole run, classifies the
// access pattern as streaming / pointer-chasing / random, estimates the
// benefit of DRAM placement, and installs ONE static placement.  It does
// not model data-movement cost, never migrates at runtime, and "assume[s]
// a homogeneous memory access pattern within a data object" — no per-phase
// adaptation.  The paper reports Unimem matching it on phase-stable NPB
// kernels and beating it on phase-varying codes (Nek5000).  This
// reproduction shows the first half only: on the `fig9` spec Unimem is
// within 4% of X-Men on cg/bt/lu/sp/mg and well ahead on ft (normalized
// time 1.29 vs 1.84), but X-Men is ahead on nek (1.36 vs Unimem's 1.57).
//
// Our implementation grants X-Men exact ground-truth aggregates from the
// offline pass (PIN sees every access), which is *more* information than
// Unimem's sampled counters — the comparison is conservative in X-Men's
// favour.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "baselines/static_context.h"
#include "simmem/tier_config.h"

namespace unimem::baseline {

/// Compute the X-Men static placement from offline object profiles:
/// benefit-per-byte greedy packing of the DRAM budget, with benefit =
/// pattern-dependent estimated stall reduction of moving an object from
/// the backstop `nvm` to the fastest tier `dram`.  X-Men models a 2-tier
/// machine only; run_once rejects it on deeper ladders.
std::vector<std::string> xmen_placement(
    const std::map<std::string, ObjectProfile>& profiles,
    const mem::TierConfig& dram, const mem::TierConfig& nvm,
    std::size_t dram_budget);

}  // namespace unimem::baseline
