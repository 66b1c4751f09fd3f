// Sweep specifications: a declarative grid over exp::RunConfig axes that
// expands into a deterministic, stably-indexed list of executable points.
//
// A SweepSpec is the batch-service twin of the hand-rolled loops the
// figure harnesses used to carry: it names the axes (workloads, policies,
// NVM bandwidth/latency ratios, DRAM capacities, Unimem technique sets,
// profiler tiers, topologies) and the shared scalars (input class,
// iterations, rank count), and expand() produces the cartesian
// product in declaration order.  Every point carries a stable index, a
// human-readable label, and its axis values by name so result consumers
// can pivot rows into figure-shaped tables without re-deriving the
// expansion order.
//
// The named-spec registry (specs(), spec_by_name()) is shared between the
// `unimem_sweep` CLI and the ported bench harnesses, so "the fig13 sweep"
// means exactly one thing everywhere.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "experiments/runner.h"

namespace unimem::sweep {

/// A named set of Unimem technique switches (Fig. 11's cumulative
/// ablation axis).  Applied to RunConfig::unimem for kUnimem points only;
/// static-placement policies ignore technique switches, so the axis does
/// not multiply their points.
struct TechniqueSet {
  std::string name = "all";
  bool global_search = true;
  bool local_search = true;
  bool chunking = true;
  bool initial_placement = true;
};

/// One executable grid point.
struct SweepPoint {
  std::size_t index = 0;       ///< position in expansion order (stable)
  std::string label;           ///< "cg/nvm-only/bw0.50/lat1.0/dram8MiB"
  /// Axis values by name ("workload", "policy", "bw", "lat", "dram",
  /// "tech", "prof", "tiers") — the pivot keys for table-shaped
  /// consumers.
  std::map<std::string, std::string> axis;
  exp::RunConfig cfg;
  /// Divide time by the memoized DRAM-only baseline of the same
  /// (workload, size, network) when reporting.
  bool normalize = false;
};

struct SweepSpec {
  std::string name;
  std::string title;  ///< report/table title

  // ---- axes (cartesian product, declaration order; empty = default) ----
  std::vector<std::string> workloads{"cg"};
  std::vector<exp::Policy> policies{exp::Policy::kUnimem};
  std::vector<double> nvm_bw_ratios{0.5};
  std::vector<double> nvm_lat_mults{1.0};
  std::vector<std::size_t> dram_capacities{8 * kMiB};
  std::vector<TechniqueSet> techniques{TechniqueSet{}};
  /// Profiling-tier axis (rt::RuntimeOptions::sample_period): 0 = exact
  /// profiler, N > 0 = sampled profiler with base period N.  Only kUnimem
  /// points are sensitive; static policies never profile.
  std::vector<std::uint64_t> profiler_periods{0};
  /// Memory-topology axis (exp::RunConfig::tiers): each entry is a
  /// parse_topology spec ("hbm:1MiB,dram:4MiB,nvm:512MiB") or "" for the
  /// classic 2-tier machine built from the bw/lat/dram axes.  DRAM-only
  /// points are insensitive (their machine ignores the ladder).
  std::vector<std::string> topologies{""};

  // ---- shared scalars --------------------------------------------------
  char cls = 'C';
  int iterations = 10;
  int nranks = 4;
  /// Base options; the technique and profiler axes overlay their fields.
  rt::RuntimeOptions unimem{};
  bool normalize = true;

  // ---- dynamic-workload scalars (adaptive re-planning sweeps) ----------
  /// Drift injection applied to every grid point's WorkloadConfig (see
  /// wl::DriftSchedule); 0 amplitude = static workloads (default).
  double drift_amplitude = 0.0;
  int drift_period = 4;

  /// Explicit points appended after the grid (label -> config), for
  /// sweeps that are not cartesian: Fig. 4 varies `manual_dram` per row,
  /// Fig. 12 varies `nranks`.  Each point carries its own full RunConfig,
  /// so any per-point field variation works, plus extra axis values (the
  /// pivot keys) merged over the automatic "workload"/"policy" entries.
  /// A spec may be explicit-only: set `workloads = {}` to suppress the
  /// grid entirely.
  struct ExplicitPoint {
    std::string label;
    exp::RunConfig cfg;
    bool normalize = true;
    std::map<std::string, std::string> axis;
  };
  std::vector<ExplicitPoint> explicit_points;

  /// Expand to the deterministic point list.  `filter`, when non-empty,
  /// keeps only points whose label contains it (indices stay those of the
  /// unfiltered expansion, so a filtered run still reports stable ids).
  std::vector<SweepPoint> expand(const std::string& filter = "") const;

  /// Total point count of the unfiltered expansion.
  std::size_t size() const;

  /// Names of the axes this spec actually varies (more than one value, or
  /// contributed by explicit points), in label order — what `unimem_sweep
  /// --list` prints so a reader can tell the sweep's shape from the
  /// registry without expanding it.
  std::vector<std::string> axis_names() const;
};

/// Deterministic shard slice, original order and indices preserved.  The
/// N slices of an expansion partition it exactly (no overlap, no gap),
/// so N processes each running `shard_slice(expand(), i, N)` together
/// cover the spec once.  Assignment is a pure function of the point
/// list: whole baseline groups (points sharing a BaselineService::key)
/// are dealt round-robin so each shard's private baseline cache computes
/// its DRAM-only runs exactly once across the whole fleet; when shards
/// outnumber baseline groups, individual points are dealt round-robin
/// instead so no shard sits idle.  Throws std::invalid_argument unless
/// 0 <= shard < nshards.
std::vector<SweepPoint> shard_slice(const std::vector<SweepPoint>& points,
                                    int shard, int nshards);

/// Shrink a spec to smoke scale (class S, <=3 iterations, <=2 ranks).
/// Applied by the CLI and the figure harnesses when UNIMEM_BENCH_SMOKE is
/// set in the environment.
SweepSpec smoke_clamped(SweepSpec spec);

/// True when UNIMEM_BENCH_SMOKE is set (any value, even empty).
bool smoke_requested();

/// Names of the built-in specs (paper figure sweeps).
std::vector<std::string> spec_names();

/// Look up a built-in spec; nullopt for unknown names.
std::optional<SweepSpec> spec_by_name(const std::string& name);

}  // namespace unimem::sweep
