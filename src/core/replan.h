// Adaptive re-planning (drift-aware incremental DP).
//
// The paper's runtime profiles once and plans once per iteration structure
// (§3.1), re-profiling from scratch only when a phase's time drifts past
// the 10% variation threshold (§3.2).  Long-running workloads drift more
// gently: per-unit access weights shift between iterations while most of
// the working set stays put.  A full O(items x capacity) knapsack re-solve
// for every wobble is wasted work — and a stale plan leaks time.
//
// The ReplanController closes that gap.  On a configurable epoch cadence
// the runtime re-profiles one iteration *while still enforcing the current
// plan*, and the controller compares the fresh per-unit weights against
// the snapshot the current plan was built from:
//
//   * no unit drifted            -> keep the plan (it is still optimal);
//   * a small fraction drifted   -> repair the plan incrementally:
//       keep every non-drifted resident where it is (warm start), free
//       the bytes held by drifted residents, and re-score only the
//       drifted/displaced units with a bounded knapsack over that
//       capacity slice (KnapsackSolver::solve_bounded) — O(drifted)
//       instead of O(all items x full capacity);
//   * too many drifted           -> fall back to the full DP re-solve.
//
// Contract (property-tested): the repaired plan's predicted iteration
// time is never worse than keeping the stale plan — when the bounded
// repair cannot beat "do nothing", the controller says keep.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "core/knapsack.h"
#include "core/models.h"
#include "core/planner.h"
#include "core/profiler.h"
#include "core/registry.h"

namespace unimem::rt {

struct ReplanOptions {
  /// Per-unit relative weight change that counts as drift.
  double drift_threshold = 0.25;
  /// Max fraction of tracked units allowed to drift before the controller
  /// demands a full DP re-solve instead of an incremental repair.
  double drift_budget = 0.25;
  /// DRAM bytes the rank plans with (same budget the Planner packs).
  std::size_t dram_budget = 0;
};

struct DriftReport {
  std::size_t tracked = 0;  ///< units with a usable weight in either profile
  std::size_t drifted = 0;  ///< units past the relative-change threshold
  double max_rel_change = 0;

  double drift_fraction() const {
    return tracked > 0 ? static_cast<double>(drifted) /
                             static_cast<double>(tracked)
                       : 0.0;
  }
};

struct ReplanDecision {
  enum class Path {
    kKeepStale,    ///< current plan still wins; nothing to do
    kIncremental,  ///< `plan` holds the bounded warm-start repair
    kFullSolve     ///< drift past budget: caller re-runs the full planner
  };
  Path path = Path::kKeepStale;
  DriftReport drift;
  Plan plan;  ///< valid for kIncremental only
  /// Predicted next-iteration time of keeping the current placement.
  double stale_predicted_s = 0;
  /// Predicted next-iteration time of the repaired plan (== stale when no
  /// repair was attempted or the repair lost).
  double repaired_predicted_s = 0;
};

class ReplanController {
 public:
  ReplanController(const Registry* registry, const PerformanceModel* model,
                   ReplanOptions opts)
      : registry_(registry), model_(model), opts_(opts) {}

  /// Aggregated DRAM-residence weight per unit of one (folded) iteration
  /// profile: the sum over phases of the Eq. 2/3 benefit — the same number
  /// the global search feeds the knapsack.
  std::map<UnitRef, double> unit_weights(const Profiler& prof) const;

  /// Snapshot the reference weights the next drift check compares against.
  /// Called whenever a plan is adopted (full solve or repair) and after a
  /// keep-stale decision, so drift is always measured against the most
  /// recent accepted knowledge.
  void observe(const Profiler& prof);

  /// The epoch decision: keep the stale plan, adopt the incremental
  /// repair, or demand a full re-solve.  `drift` classifies the per-unit
  /// weight drift of `prof` against the snapshot: a unit counts as drifted
  /// when its weight changed by more than drift_threshold relative to the
  /// larger of the two readings (units appearing or vanishing drift by
  /// definition unless below the noise floor).  On kIncremental the returned
  /// plan's predicted time is <= the stale prediction by construction.
  ReplanDecision decide(const Profiler& prof) const;

  /// The warm-start repair itself, exposed for tests and benches: keeps
  /// the non-drifted residents, re-scores `drifted` over the freed
  /// capacity slice with the bounded solver, and emits the migration diff
  /// as a Plan (evictions before fills at phase 0).
  Plan repair(const Profiler& prof, const std::map<UnitRef, double>& w_new,
              const std::set<UnitRef>& drifted, double* stale_predicted_s,
              double* repaired_predicted_s) const;

  const std::map<UnitRef, double>& baseline_weights() const {
    return baseline_w_;
  }

 private:
  /// Units of the snapshot/fresh pair whose weight changed past the
  /// threshold.
  std::set<UnitRef> drifted_units(const std::map<UnitRef, double>& w_new,
                                  DriftReport* report) const;

  const Registry* registry_;
  const PerformanceModel* model_;
  ReplanOptions opts_;
  KnapsackSolver solver_;
  std::map<UnitRef, double> baseline_w_;
};

}  // namespace unimem::rt
