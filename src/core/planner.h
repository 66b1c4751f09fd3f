// Data-placement decision (paper §3.1.3, "Step 3").
//
// For every phase, each referenced unit gets a weight
//     w = BFT - COST - extra_COST            (Eq. 5)
// where BFT is the Eq. 2/3 benefit, COST the Eq. 4 migration cost net of
// the overlap window (time between the unit's previous reference and the
// phase), and extra_COST the eviction traffic needed to make room.  A 0-1
// knapsack over the DRAM capacity picks the resident set: the K=2 case of
// KnapsackSolver::solve_mckp, weights {w, 0} over {DRAM budget, unbounded
// NVM}, the same DP every ladder packs with.
//
// On the paper's 2-tier machine two searches are run and the
// predicted-faster plan is used:
//   * phase-local search  — one knapsack per phase, migrations between
//     phases, triggers placed right after the unit's previous reference so
//     the helper thread can overlap the copy;
//   * cross-phase global search — one knapsack over aggregated benefits,
//     a single placement for the whole iteration, no intra-iteration moves.
//
// On a deeper ladder (more than 2 tiers) the search becomes multiple-choice
// instead: every group picks *a* tier, scored against the backstop through
// the pairwise Eq. 2/3 forms, and the MCKP solver packs the constrained
// tiers jointly (plan_tiered).  Planner::plan is the one place that
// branches on the ladder depth; both paths read their per-tier budgets
// from PlannerOptions::tier_budgets.
#pragma once

#include <set>
#include <vector>

#include "core/knapsack.h"
#include "core/models.h"
#include "core/profiler.h"
#include "core/registry.h"

namespace unimem::rt {

class PhaseDag;

struct PlannedMigration {
  UnitRef unit;
  mem::Tier to = mem::Tier::kDram;
  /// Phase at whose start the request is enqueued (proactive trigger).
  std::size_t trigger_phase = 0;
  /// Phase that needs the unit resident (for stats/debug).
  std::size_t needed_phase = 0;
};

struct Plan {
  /// kIncremental: a warm-start repair of the previous plan produced by
  /// the ReplanController (replan.h), not a fresh search.
  /// kTiered: the N-tier multiple-choice placement (more than 2 tiers).
  enum class Kind {
    kNone,
    kLocal,
    kGlobal,
    kIncremental,
    kTiered
  } kind = Kind::kNone;
  /// Migrations to enqueue at the start of each phase, every iteration.
  /// Index: phase; empty vector = nothing to do.
  std::vector<std::vector<PlannedMigration>> at_phase;
  /// Predicted iteration time under this plan (seconds).
  double predicted_iteration_s = 0;
  /// Predicted resident set per phase (diagnostics / tests).
  std::vector<std::set<UnitRef>> dram_sets;

  std::size_t migration_count() const {
    std::size_t n = 0;
    for (const auto& v : at_phase) n += v.size();
    return n;
  }

  /// Slack-scheduling tallies (PlannerOptions::dag != nullptr; else zero):
  /// triggers parked in an off-critical-path phase whose slack covered the
  /// copy vs. fills that fell back to the earliest legal trigger.
  std::size_t slack_scheduled = 0;
  std::size_t fallback_triggers = 0;
};

struct PlannerOptions {
  bool local_search = true;
  bool global_search = true;
  /// May chunks of one object be placed independently?  When false (the
  /// Fig. 11 "partitioning large data objects" ablation), an object's
  /// chunks form one all-or-nothing placement group, so an object larger
  /// than the budget can never migrate — the paper's motivating problem.
  bool chunking = true;
  /// Computed phase DAG for slack-scheduled triggers (dag_schedule=slack);
  /// nullptr keeps the classic JIT trigger walk byte-identical.
  const PhaseDag* dag = nullptr;
  /// This rank's id in the DAG (slack/critical lookups).
  int rank = 0;
  /// Bytes this rank may plan with in each tier (its share of the node
  /// allowance), indexed by tier: {DRAM budget, kUnbounded} on the 2-tier
  /// machine.  KnapsackSolver::kUnbounded entries and missing ones are
  /// unmetered, and the backstop (last tier) always is.
  std::vector<std::size_t> tier_budgets;
};

class Planner {
 public:
  Planner(const Registry* registry, const PerformanceModel* model,
          PlannerOptions opts)
      : registry_(registry), model_(model), opts_(opts) {}

  /// Build the best plan from one profiled iteration, starting from the
  /// tiers the registry reports each unit in now.  2-tier ladders run the
  /// classic local/global searches; deeper ladders run plan_tiered.
  Plan plan(const Profiler& prof) const;

  /// Predicted iteration time if nothing moves (everything stays where the
  /// profiler saw it) — the baseline both searches, and the re-planner's
  /// repairs, must beat.
  static double no_move_time(const Profiler& prof);

 private:
  /// A placement group: one chunk (chunking on) or one whole object
  /// (chunking off).  Units move together.
  struct Group {
    std::vector<UnitRef> units;
    std::size_t bytes = 0;
  };
  /// Aggregated (group, phase) profiles, indexed [phase][group].
  using GroupProfiles = std::vector<std::map<std::size_t, UnitPhaseProfile>>;

  /// First phase of the cycle that references group `g`; 0 when none does.
  static std::size_t first_reference(const GroupProfiles& gp, std::size_t g);

  std::vector<Group> build_groups() const;
  GroupProfiles aggregate(const Profiler& prof,
                          const std::vector<Group>& groups) const;

  /// The MCKP capacity vector: one entry per tier, from tier_budgets,
  /// with missing entries and the backstop unmetered.
  std::vector<std::size_t> capacities() const;

  Plan plan_local(const Profiler& prof, const std::vector<Group>& groups,
                  const GroupProfiles& gp,
                  const std::vector<std::size_t>& caps) const;
  Plan plan_global(const Profiler& prof, const std::vector<Group>& groups,
                   const GroupProfiles& gp,
                   const std::vector<std::size_t>& caps) const;
  /// N-tier placement (more than 2 tiers): one MCKP over the aggregated
  /// per-(group, tier) benefits, every referenced group choosing a tier;
  /// demotions enqueue before promotions in the phase-0 FIFO batch.
  Plan plan_tiered(const Profiler& prof, const std::vector<Group>& groups,
                   const GroupProfiles& gp,
                   const std::vector<std::size_t>& caps) const;

  /// Overlap window before `phase` available for moving group `g`: the
  /// summed duration of phases since its previous reference.
  double overlap_window(const GroupProfiles& gp,
                        const std::vector<double>& phase_times,
                        std::size_t phase, std::size_t g,
                        std::size_t* trigger) const;

  /// Slack-mode trigger chooser (opts_.dag set): walk candidates from the
  /// latest phase before `needed` back to `earliest` and pick the first
  /// (= latest) off-critical-path phase whose accumulated window and DAG
  /// slack both cover `copy_s`.  Falls back to `earliest` with the full
  /// window — maximal overlap — when no phase qualifies.  Returns the
  /// trigger, stores the trigger->needed window in *window, and reports
  /// whether slack (vs fallback) won in *scheduled.
  std::size_t slack_trigger(const std::vector<double>& phase_times,
                            std::size_t needed, std::size_t earliest,
                            double copy_s, double* window,
                            bool* scheduled) const;

  /// Slack-mode trigger chooser for a global plan's one-time fill.  Unlike
  /// the per-iteration rotation case, a one-time NVM->DRAM fill is legal in
  /// ANY phase that does not reference the group: phases before the copy
  /// lands simply keep reading NVM, and a referencing phase blocks on
  /// in-flight copies before touching the data.  So the whole cycle is
  /// searchable — enumerate the maximal cyclic runs of non-referencing
  /// phases and ride the one that hides the most copy time, preferring a
  /// DAG-endorsed (off-critical, slack-covered) run.  Returns the trigger;
  /// stores the phase the fill must beat in *needed, the overlap window in
  /// *window, and whether DAG slack endorsed the spot in *scheduled.
  std::size_t global_slack_trigger(const GroupProfiles& gp,
                                   const std::vector<double>& phase_times,
                                   std::size_t g, std::size_t first_ref,
                                   double copy_s, std::size_t* needed,
                                   double* window, bool* scheduled) const;

  bool group_in_dram(const Group& g) const;

  const Registry* registry_;
  const PerformanceModel* model_;
  PlannerOptions opts_;
};

}  // namespace unimem::rt
