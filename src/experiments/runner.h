// Experiment runner: executes one (workload, policy, system configuration)
// combination and reports the virtual execution time and runtime stats.
// Every bench binary in bench/ is a thin sweep over run_once().
//
// Topology: ranks are threads; every `ranks_per_node` consecutive ranks
// share one simulated node = one HeteroMemory (tier arenas) + one
// DramArbiter (the user-level DRAM space service).
//
// Lifetime: everything a run builds (nodes, rank threads, runtimes) dies
// with it, except two process-wide caches of what the paper's runtime sets
// up once per machine.  The tier arenas' host buffers go back to a pool
// keyed by tier name (simmem/arena.h), and calibration results are
// memoized per machine (core/calibration.h).  Neither changes a result:
// every chunk is written before it is read, and calibration is a pure
// function of its key.  Concurrent run_once calls
// share both caches safely.
#pragma once

#include <string>
#include <vector>

#include "core/runtime.h"
#include "minimpi/comm.h"
#include "simmem/hetero_memory.h"
#include "workloads/workload.h"

namespace unimem::exp {

enum class Policy { kDramOnly, kNvmOnly, kUnimem, kXMen, kManual };

struct RunConfig {
  std::string workload = "cg";
  wl::WorkloadConfig wcfg{};
  /// NVM tier relative to DRAM (the paper's sweep axes).
  double nvm_bw_ratio = 0.5;
  double nvm_lat_mult = 1.0;
  /// Node DRAM allowance (paper default 256 MB -> scaled 8 MiB).
  std::size_t dram_capacity = 8 * kMiB;
  /// Explicit N-tier topology spec, e.g. "hbm:1MiB,dram:4MiB,nvm:512MiB"
  /// (parse_topology grammar; capacities are per-node allowances).  Empty
  /// (the default) builds the classic 2-tier DRAM+NVM machine from the
  /// fields above, as the 2-entry ladder {dram_basis(dram_capacity),
  /// nvm_scaled(nvm_bw_ratio, nvm_lat_mult)}; DRAM-only baselines always
  /// ignore this.  Tier speeds
  /// come from the named backend presets, so nvm_bw_ratio/nvm_lat_mult do
  /// not apply to an explicit topology.
  std::string tiers{};
  int ranks_per_node = 1;
  Policy policy = Policy::kUnimem;
  /// DRAM-resident object names for Policy::kManual (Fig. 4).
  std::vector<std::string> manual_dram{};
  /// Adaptive re-planning knobs (Policy::kUnimem): re-profile every
  /// `replan_epoch` enforcing iterations and repair the plan
  /// incrementally when only a few per-unit weights drifted past
  /// `drift_threshold` (see core/replan.h).  0 = off.  When nonzero these
  /// top-level knobs override `unimem.replan_epoch`/`drift_threshold`, so
  /// sweeps can vary them per point without cloning RuntimeOptions.
  int replan_epoch = 0;
  double drift_threshold = 0.25;
  /// Technique switches etc. for Policy::kUnimem.
  rt::RuntimeOptions unimem{};
  mpi::NetworkParams net{};
};

struct RunResult {
  double time_s = 0;          ///< max rank virtual time (the app's time)
  double checksum = 0;        ///< reduced workload checksum
  rt::RuntimeStats stats{};   ///< rank-0 Unimem stats (zero for baselines)
  /// Sum over ranks (Table 4 reports per-run totals).
  std::uint64_t total_migrations = 0;
  std::uint64_t total_bytes_moved = 0;
  double mean_overhead_percent = 0;
  double mean_overlap_percent = 0;
  /// Migration time split across all ranks (seconds of modeled copy time
  /// and the part of it exposed on the critical path).  In-memory only —
  /// not serialized into sweep CSV/JSONL rows, which stay byte-stable.
  double total_copy_s = 0;
  double total_exposed_s = 0;
};

/// Run one configuration to completion.  For Policy::kXMen this runs the
/// offline profiling pass first, then the measured pass; its placement
/// model prices the topology's fastest tier against its backstop, within
/// the fastest tier's allowance.  Throws std::invalid_argument, before any
/// World exists, for Policy::kXMen or Policy::kManual on a topology of
/// more than 2 tiers (manual placement puts manual_dram into tier 0, which
/// is not DRAM there), and for a Policy::kUnimem run that sets a knob the
/// runtime would ignore: a nonzero replan_epoch with enable_chunking=false,
/// or, on a topology of more than 2 tiers, either search technique
/// switched off.
RunResult run_once(const RunConfig& cfg);

}  // namespace unimem::exp
