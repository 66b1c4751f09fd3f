#include "core/replan.h"

#include <algorithm>
#include <cmath>

#include "trace/trace.h"

namespace unimem::rt {

namespace {

/// Weights below this floor (seconds of modeled benefit) are noise and
/// never count as drifted on their own.
constexpr double kMinWeightS = 1e-9;

}  // namespace

std::map<UnitRef, double> ReplanController::unit_weights(
    const Profiler& prof) const {
  std::map<UnitRef, double> w;
  for (const PhaseObservation& ph : prof.phases())
    for (const auto& [u, uprof] : ph.units) w[u] += model_->benefit(uprof);
  return w;
}

void ReplanController::observe(const Profiler& prof) {
  baseline_w_ = unit_weights(prof);
}

std::set<UnitRef> ReplanController::drifted_units(
    const std::map<UnitRef, double>& w_new, DriftReport* report) const {
  std::set<UnitRef> drifted;
  auto consider = [&](UnitRef u, double w_old, double w_cur) {
    const double hi = std::max(w_old, w_cur);
    if (hi < kMinWeightS) return;  // noise floor
    ++report->tracked;
    // Relative to the larger reading: symmetric in direction, and a unit
    // appearing from / vanishing to zero drifts by exactly 1.
    const double rel = std::abs(w_cur - w_old) / hi;
    report->max_rel_change = std::max(report->max_rel_change, rel);
    if (rel > opts_.drift_threshold) drifted.insert(u);
  };
  for (const auto& [u, w_old] : baseline_w_) {
    auto it = w_new.find(u);
    consider(u, w_old, it != w_new.end() ? it->second : 0.0);
  }
  for (const auto& [u, w_cur] : w_new)
    if (baseline_w_.count(u) == 0) consider(u, 0.0, w_cur);
  report->drifted = drifted.size();
  return drifted;
}

DriftReport ReplanController::classify(const Profiler& prof) const {
  DriftReport rep;
  drifted_units(unit_weights(prof), &rep);
  return rep;
}

Plan ReplanController::repair(const Profiler& prof,
                              const std::map<UnitRef, double>& w_new,
                              const std::set<UnitRef>& drifted,
                              double* stale_predicted_s,
                              double* repaired_predicted_s) const {
  const std::size_t P = std::max<std::size_t>(prof.phase_count(), 1);
  const double stale = Planner::no_move_time(prof);

  // Warm start: every non-drifted resident keeps its place and its bytes.
  // Only the drifted units — displaced residents and newly hot outsiders —
  // compete, over exactly the capacity the non-drifted residents leave.
  std::set<UnitRef> resident;
  std::size_t kept_bytes = 0;
  for (const UnitRef& u : registry_->all_units()) {
    if (registry_->unit_tier(u) != mem::Tier::kDram) continue;
    resident.insert(u);
    if (drifted.count(u) == 0) kept_bytes += registry_->unit_bytes(u);
  }
  const std::size_t slice = opts_.dram_budget > kept_bytes
                                ? opts_.dram_budget - kept_bytes
                                : 0;

  const double copy_in_bw =
      registry_->hms().copy_bandwidth(mem::Tier::kNvm, mem::Tier::kDram);

  std::vector<UnitRef> cand;
  std::vector<KnapsackItem> items;
  for (const UnitRef& u : drifted) {
    const std::size_t bytes = registry_->try_unit_bytes(u);
    if (bytes == 0) continue;  // unit vanished since the snapshot
    auto it = w_new.find(u);
    const double w = it != w_new.end() ? it->second : 0.0;
    // A displaced resident re-enters for free; an outsider pays its fill
    // copy once (the global search's accounting, Eq. 4 with no window).
    const double cost = resident.count(u) != 0
                            ? 0.0
                            : static_cast<double>(bytes) / copy_in_bw;
    cand.push_back(u);
    items.push_back(KnapsackItem{w - cost, bytes});
  }

  // Bounded re-score over the affected capacity slice only: O(|drifted|)
  // work instead of the full items x capacity DP.
  KnapsackResult sel = solver_.solve_bounded(items, slice);
  std::set<UnitRef> chosen;
  for (std::size_t idx : sel.selected) chosen.insert(cand[idx]);

  Plan plan;
  plan.kind = Plan::Kind::kIncremental;
  plan.at_phase.assign(P, {});
  plan.dram_sets.assign(P, {});

  auto first_reference = [&](UnitRef u) -> std::size_t {
    for (std::size_t p = 0; p < prof.phase_count(); ++p)
      if (prof.phases()[p].references(u)) return p;
    return 0;
  };

  double predicted = stale;
  // Evictions first (the phase-0 FIFO batch frees space before fills):
  // drifted residents that lost their slot.
  for (const UnitRef& u : resident) {
    if (drifted.count(u) == 0 || chosen.count(u) != 0) continue;
    plan.at_phase[0].push_back(PlannedMigration{u, mem::Tier::kNvm, 0, 0});
    auto it = w_new.find(u);
    if (it != w_new.end()) predicted += it->second;  // its speed is lost
  }
  // Fills: chosen outsiders move in; the knapsack weight already nets the
  // copy cost out of the benefit, so the prediction applies the same pair.
  for (const UnitRef& u : cand) {
    if (chosen.count(u) == 0 || resident.count(u) != 0) continue;
    const std::size_t bytes = registry_->unit_bytes(u);
    plan.at_phase[0].push_back(
        PlannedMigration{u, mem::Tier::kDram, 0, first_reference(u)});
    auto it = w_new.find(u);
    if (it != w_new.end()) predicted -= it->second;
    predicted += static_cast<double>(bytes) / copy_in_bw;
  }

  // Repaired resident set = kept survivors + the re-scored winners.
  std::set<UnitRef> final_set;
  for (const UnitRef& u : resident)
    if (drifted.count(u) == 0 || chosen.count(u) != 0) final_set.insert(u);
  for (const UnitRef& u : chosen) final_set.insert(u);
  for (std::size_t p = 0; p < P; ++p) plan.dram_sets[p] = final_set;

  plan.predicted_iteration_s = predicted;
  if (stale_predicted_s != nullptr) *stale_predicted_s = stale;
  if (repaired_predicted_s != nullptr) *repaired_predicted_s = predicted;
  return plan;
}

ReplanDecision ReplanController::decide(
    const Profiler& prof, const std::set<std::size_t>* critical_phases) const {
  ReplanDecision d;
  const std::map<UnitRef, double> w_new = unit_weights(prof);
  std::set<UnitRef> drifted = drifted_units(w_new, &d.drift);
  if (critical_phases != nullptr) {
    // Per-phase repair scope: drift referenced only off the critical path
    // cannot stretch the makespan — keep those units on the stale plan.
    std::set<UnitRef> on_path;
    for (const UnitRef& u : drifted) {
      bool critical_ref = false;
      for (std::size_t p : *critical_phases) {
        if (p < prof.phase_count() && prof.phases()[p].references(u)) {
          critical_ref = true;
          break;
        }
      }
      if (critical_ref) on_path.insert(u);
    }
    d.drift.off_path = drifted.size() - on_path.size();
    drifted = std::move(on_path);
  }
  // Classification instant: wall-only (vt < 0) — the controller runs at
  // the iteration boundary and owns no virtual timestamp of its own; the
  // adopted path is traced by the runtime with its virtual time.
  UNIMEM_TRACE_INSTANT2("replan", "classify", -1.0, "drifted",
                        d.drift.drifted, "tracked", d.drift.tracked);

  d.stale_predicted_s = Planner::no_move_time(prof);
  d.repaired_predicted_s = d.stale_predicted_s;

  if (d.drift.drift_fraction() > opts_.drift_budget) {
    // The working set reshuffled wholesale; a bounded patch of the old
    // answer is no longer trustworthy — re-run the full DP.  (Checked
    // before the critical-path filter's survivors: a reshuffle that
    // starts off-path still invalidates the whole placement.)
    d.path = ReplanDecision::Path::kFullSolve;
    return d;
  }
  if (drifted.empty()) {
    // Unchanged weights — or drift parked off the critical path: the
    // current plan is still the adopted answer.
    d.path = ReplanDecision::Path::kKeepStale;
    return d;
  }
  if (registry_->hms().num_tiers() > 2) {
    // The warm-start repair reasons in resident-in-DRAM terms; on an
    // N-tier machine any real drift re-runs the multiple-choice solve
    // instead of patching a 2-tier answer onto it.
    d.path = ReplanDecision::Path::kFullSolve;
    return d;
  }

  double stale_pred = 0, repaired_pred = 0;
  UNIMEM_TRACE_BEGIN1("replan", "repair", -1.0, "drifted", drifted.size());
  Plan repaired = repair(prof, w_new, drifted, &stale_pred, &repaired_pred);
  UNIMEM_TRACE_END("replan", "repair", -1.0);
  d.stale_predicted_s = stale_pred;
  if (repaired_pred < stale_pred) {
    d.path = ReplanDecision::Path::kIncremental;
    d.plan = std::move(repaired);
    d.repaired_predicted_s = repaired_pred;
  } else {
    // The contract: never adopt a repair predicted worse than doing
    // nothing.  (Drifted weights with no better packing, e.g. everything
    // got uniformly colder.)
    d.path = ReplanDecision::Path::kKeepStale;
    d.repaired_predicted_s = stale_pred;
  }
  return d;
}

}  // namespace unimem::rt
