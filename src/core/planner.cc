#include "core/planner.h"

#include <algorithm>
#include <map>

#include "core/phase_dag.h"

namespace unimem::rt {

double Planner::no_move_time(const Profiler& prof) {
  double t = 0;
  for (const auto& ph : prof.phases()) t += ph.phase_time_s;
  return t;
}

std::size_t Planner::first_reference(const GroupProfiles& gp, std::size_t g) {
  for (std::size_t p = 0; p < gp.size(); ++p)
    if (gp[p].count(g) != 0) return p;
  return 0;
}

std::vector<Planner::Group> Planner::build_groups() const {
  std::vector<Group> out;
  if (opts_.chunking) {
    for (const UnitRef& u : registry_->all_units())
      out.push_back(Group{{u}, registry_->unit_bytes(u)});
  } else {
    std::map<ObjectId, std::size_t> index;
    for (const UnitRef& u : registry_->all_units()) {
      auto [it, fresh] = index.emplace(u.object, out.size());
      if (fresh) out.push_back(Group{});
      Group& g = out[it->second];
      g.units.push_back(u);
      g.bytes += registry_->unit_bytes(u);
    }
  }
  return out;
}

Planner::GroupProfiles Planner::aggregate(
    const Profiler& prof, const std::vector<Group>& groups) const {
  // unit -> group index.
  std::map<UnitRef, std::size_t> owner;
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (const UnitRef& u : groups[g].units) owner[u] = g;

  GroupProfiles gp(prof.phase_count());
  for (std::size_t p = 0; p < prof.phase_count(); ++p) {
    for (const auto& [u, uprof] : prof.phases()[p].units) {
      auto it = owner.find(u);
      if (it == owner.end()) continue;
      UnitPhaseProfile& agg = gp[p][it->second];
      agg.est_accesses += uprof.est_accesses;
      agg.time_fraction = std::min(1.0, agg.time_fraction + uprof.time_fraction);
      agg.phase_time_s = uprof.phase_time_s;
    }
  }
  return gp;
}

bool Planner::group_in_dram(const Group& g) const {
  for (const UnitRef& u : g.units)
    if (registry_->unit_tier(u) != mem::Tier::kDram) return false;
  return true;
}

double Planner::overlap_window(const GroupProfiles& gp,
                               const std::vector<double>& phase_times,
                               std::size_t phase, std::size_t g,
                               std::size_t* trigger) const {
  const std::size_t P = gp.size();
  int last = -1;
  for (std::size_t back = 1; back < P; ++back) {
    std::size_t idx = (phase + P - back) % P;
    if (gp[idx].count(g) != 0) {
      last = static_cast<int>(idx);
      break;
    }
  }
  *trigger = last < 0 ? (phase + 1) % P
                      : (static_cast<std::size_t>(last) + 1) % P;
  double window = 0;
  for (std::size_t i = *trigger; i != phase; i = (i + 1) % P)
    window += phase_times[i];
  return window;
}

std::size_t Planner::slack_trigger(const std::vector<double>& phase_times,
                                   std::size_t needed, std::size_t earliest,
                                   double copy_s, double* window,
                                   bool* scheduled) const {
  const std::size_t P = phase_times.size();
  double w = 0;
  if (earliest != needed) {
    for (std::size_t cand = (needed + P - 1) % P;; cand = (cand + P - 1) % P) {
      w += phase_times[cand];
      if (w >= copy_s && !opts_.dag->critical(opts_.rank, cand) &&
          opts_.dag->slack(opts_.rank, cand) >= copy_s) {
        // Latest off-critical-path phase with room: the copy hides in its
        // slack instead of delaying critical work.
        *window = w;
        *scheduled = true;
        return cand;
      }
      if (cand == earliest) break;
    }
  }
  // Every candidate is critical (the SPMD-symmetric common case) or too
  // tight: enqueue at the earliest legal trigger with the full window —
  // maximal overlap headroom for the serial copy engine.
  *window = w;
  *scheduled = false;
  return earliest;
}

std::size_t Planner::global_slack_trigger(
    const GroupProfiles& gp, const std::vector<double>& phase_times,
    std::size_t g, std::size_t first_ref, double copy_s, std::size_t* needed,
    double* window, bool* scheduled) const {
  const std::size_t P = phase_times.size();
  *needed = first_ref;
  *window = 0;
  *scheduled = false;
  if (P == 0 || first_ref >= P || gp[first_ref].count(g) == 0)
    return first_ref;

  std::vector<bool> refs(P, false);
  for (std::size_t p = 0; p < P; ++p) refs[p] = gp[p].count(g) != 0;

  // Walk the cycle once starting after first_ref; every maximal run of
  // non-referencing phases closes at a referencing phase (first_ref at the
  // latest, since it is referenced), yielding one candidate: enqueue at
  // the run's first phase, overlap its whole duration, land before the
  // closing phase.
  std::size_t best_trigger = first_ref;
  double best_window = -1.0;
  std::size_t run_start = P;
  double run_window = 0;
  bool run_in_slack = true;
  for (std::size_t step = 1; step <= P; ++step) {
    const std::size_t p = (first_ref + step) % P;
    if (!refs[p]) {
      if (run_start == P) {
        run_start = p;
        run_window = 0;
        run_in_slack = true;
      }
      run_window += phase_times[p];
      run_in_slack = run_in_slack && !opts_.dag->critical(opts_.rank, p) &&
                     opts_.dag->slack(opts_.rank, p) >= copy_s;
      continue;
    }
    if (run_start != P) {
      // Hidden time is capped at the copy itself; among equally-hiding
      // runs the first found (soonest after first_ref) wins
      // deterministically.
      if (std::min(run_window, copy_s) > std::min(best_window, copy_s)) {
        best_trigger = run_start;
        best_window = run_window;
        *needed = p;
        *scheduled = run_in_slack && run_window >= copy_s;
      }
      run_start = P;
    }
  }
  if (best_window < 0) return first_ref;  // referenced every phase
  *window = best_window;
  return best_trigger;
}

std::vector<std::size_t> Planner::capacities() const {
  const std::size_t T = registry_->hms().num_tiers();
  std::vector<std::size_t> caps(T, KnapsackSolver::kUnbounded);
  for (std::size_t k = 0; k + 1 < T && k < opts_.tier_budgets.size(); ++k)
    caps[k] = opts_.tier_budgets[k];
  return caps;
}

Plan Planner::plan_local(const Profiler& prof,
                         const std::vector<Group>& groups,
                         const GroupProfiles& gp,
                         const std::vector<std::size_t>& caps) const {
  const std::size_t P = gp.size();
  const std::size_t dram_budget = caps[0];
  Plan plan;
  plan.kind = Plan::Kind::kLocal;
  plan.at_phase.assign(P, {});
  plan.dram_sets.assign(P, {});

  std::vector<double> phase_times;
  phase_times.reserve(P);
  for (const auto& ph : prof.phases()) phase_times.push_back(ph.phase_time_s);

  const double copy_in_bw =
      registry_->hms().copy_bandwidth(mem::Tier::kNvm, mem::Tier::kDram);
  const double copy_out_bw =
      registry_->hms().copy_bandwidth(mem::Tier::kDram, mem::Tier::kNvm);

  // Group-resident set entering the iteration.  `profile_dram` freezes the
  // placement the profiled times were measured under: a profiled phase time
  // already includes the speed of its then-resident objects, so predictions
  // subtract a benefit only for *newly* promoted groups and add it back as
  // a loss for groups that were resident and get evicted.
  std::set<std::size_t> dram_set;
  for (std::size_t g = 0; g < groups.size(); ++g)
    if (group_in_dram(groups[g])) dram_set.insert(g);
  const std::set<std::size_t> profile_dram = dram_set;

  auto bytes_of = [&](const std::set<std::size_t>& s) {
    std::size_t sum = 0;
    for (std::size_t g : s) sum += groups[g].bytes;
    return sum;
  };

  // The helper thread is one serial copy engine: it cannot overlap an
  // unbounded volume of migrations per iteration.  Once the planned copy
  // time exceeds this share of the iteration, further candidates must
  // justify their full (unoverlapped) copy cost.
  const double copy_budget_s = 0.4 * no_move_time(prof);
  double planned_copy_s = 0;

  double predicted = 0;
  for (std::size_t p = 0; p < P; ++p) {
    predicted += phase_times[p];
    if (gp[p].empty()) {
      plan.dram_sets[p] = {};
      for (std::size_t g : dram_set)
        for (const UnitRef& u : groups[g].units) plan.dram_sets[p].insert(u);
      continue;
    }

    // Knapsack items: groups referenced in this phase, weighted by Eq. 5.
    std::vector<std::size_t> refs;
    std::vector<MckpItem> items;
    std::vector<double> benefits, costs;
    std::vector<std::size_t> triggers;
    for (const auto& [g, uprof] : gp[p]) {
      const std::size_t bytes = groups[g].bytes;
      double benefit = model_->benefit(uprof);
      double cost = 0;
      std::size_t trigger = p;
      if (dram_set.count(g) == 0) {
        // Earliest legal trigger: right after the previous reference.
        double window = overlap_window(gp, phase_times, p, g, &trigger);
        const double copy_s = static_cast<double>(bytes) / copy_in_bw;
        if (opts_.dag != nullptr) {
          // Slack mode: park the fill in the latest off-critical-path
          // phase whose slack covers the copy (fallback: earliest trigger
          // with the full window).
          bool scheduled = false;
          trigger =
              slack_trigger(phase_times, p, trigger, copy_s, &window,
                            &scheduled);
          (scheduled ? plan.slack_scheduled : plan.fallback_triggers) += 1;
        } else {
          // Just-in-time refinement: a fill parked in DRAM phases before
          // it is needed blocks the rotation of other hot sets through
          // the budget.  Walk the trigger forward (shrinking the window)
          // while the remaining window still covers the copy twice over.
          while (trigger != p) {
            double next_window = window - phase_times[trigger];
            if (next_window < 2.0 * copy_s) break;
            window = next_window;
            trigger = (trigger + 1) % P;
          }
        }
        if (planned_copy_s > copy_budget_s) window = 0;  // engine saturated
        cost = model_->migration_cost(bytes, copy_in_bw, window);
        // extra_COST: eviction traffic if the incoming group overflows
        // DRAM.  The victim is chosen among units not referenced in this
        // phase, so its copy-out rides the same helper-thread window as
        // the fill and earns the same overlap credit (Eq. 4), after the
        // fill's own copy time is deducted from the window.
        if (bytes_of(dram_set) + bytes > dram_budget) {
          double window_left =
              std::max(0.0, window - static_cast<double>(bytes) / copy_in_bw);
          cost += model_->migration_cost(bytes, copy_out_bw, window_left);
        }
      }
      refs.push_back(g);
      benefits.push_back(benefit);
      costs.push_back(cost);
      triggers.push_back(trigger);
      items.push_back(MckpItem{{benefit - cost, 0.0}, bytes});
    }

    const MckpResult sel = KnapsackSolver().solve_mckp(items, caps);
    std::set<std::size_t> selected;
    for (std::size_t i = 0; i < refs.size(); ++i)
      if (sel.choice[i] == 0) selected.insert(refs[i]);

    // Evictions: non-selected residents leave when space is needed,
    // preferring victims not referenced in this phase; they are enqueued at
    // the earliest incoming trigger so the FIFO frees space before fills.
    std::size_t earliest_trigger = p;
    for (std::size_t i = 0; i < refs.size(); ++i)
      if (selected.count(refs[i]) != 0 && dram_set.count(refs[i]) == 0)
        earliest_trigger = std::min(earliest_trigger, triggers[i]);

    std::size_t incoming = 0;
    for (std::size_t g : selected)
      if (dram_set.count(g) == 0) incoming += groups[g].bytes;
    std::size_t resident = bytes_of(dram_set);
    std::size_t free_space =
        dram_budget > resident ? dram_budget - resident : 0;
    std::size_t to_free = incoming > free_space ? incoming - free_space : 0;

    std::vector<std::size_t> victims;
    for (std::size_t g : dram_set)
      if (selected.count(g) == 0) victims.push_back(g);
    std::stable_sort(victims.begin(), victims.end(),
                     [&](std::size_t a, std::size_t b) {
                       return gp[p].count(a) < gp[p].count(b);
                     });
    std::set<std::size_t> survivors;
    for (std::size_t v : victims) {
      if (to_free == 0) {
        survivors.insert(v);
        continue;
      }
      // Dependency: the victim may only start moving out after its own
      // last reference before this phase — evicting a set while the phase
      // that uses it is still running would stall that phase on its own
      // eviction.  (The FIFO retry absorbs any fill that lands first.)
      std::size_t victim_trigger = earliest_trigger;
      overlap_window(gp, phase_times, p, v, &victim_trigger);
      for (const UnitRef& u : groups[v].units)
        plan.at_phase[victim_trigger].push_back(
            PlannedMigration{u, mem::Tier::kNvm, victim_trigger, p});
      // The eviction's copy-out cost is already accounted inside the
      // incoming groups' extra_COST (they share the fill window); charging
      // it here again would double-count and bias against rotation plans.
      planned_copy_s += static_cast<double>(groups[v].bytes) / copy_out_bw;
      to_free = groups[v].bytes >= to_free ? 0 : to_free - groups[v].bytes;
    }

    // Fills + predicted accounting, relative to the profiled placement.
    for (std::size_t i = 0; i < refs.size(); ++i) {
      std::size_t g = refs[i];
      if (selected.count(g) == 0) {
        // Referenced here but not resident during this phase: if it was
        // resident when profiled, its speed is lost.
        if (profile_dram.count(g) != 0) predicted += benefits[i];
        continue;
      }
      if (profile_dram.count(g) == 0) predicted -= benefits[i];
      if (dram_set.count(g) == 0) {
        predicted += costs[i];
        planned_copy_s += static_cast<double>(groups[g].bytes) / copy_in_bw;
        for (const UnitRef& u : groups[g].units)
          plan.at_phase[triggers[i]].push_back(
              PlannedMigration{u, mem::Tier::kDram, triggers[i], p});
      }
    }

    dram_set = selected;
    dram_set.insert(survivors.begin(), survivors.end());
    for (std::size_t g : dram_set)
      for (const UnitRef& u : groups[g].units) plan.dram_sets[p].insert(u);
  }

  plan.predicted_iteration_s = predicted;
  return plan;
}

Plan Planner::plan_global(const Profiler& prof,
                          const std::vector<Group>& groups,
                          const GroupProfiles& gp,
                          const std::vector<std::size_t>& caps) const {
  const std::size_t P = gp.size();
  Plan plan;
  plan.kind = Plan::Kind::kGlobal;
  plan.at_phase.assign(std::max<std::size_t>(P, 1), {});
  plan.dram_sets.assign(std::max<std::size_t>(P, 1), {});

  // All phases combined into one: aggregate benefit per group.
  std::map<std::size_t, double> benefit;
  for (std::size_t p = 0; p < P; ++p)
    for (const auto& [g, uprof] : gp[p]) benefit[g] += model_->benefit(uprof);

  const double copy_in_bw =
      registry_->hms().copy_bandwidth(mem::Tier::kNvm, mem::Tier::kDram);
  std::vector<std::size_t> refs;
  std::vector<MckpItem> items;
  for (const auto& [g, b] : benefit) {
    // One migration per run at most, usually overlapped; charge it once.
    double cost = group_in_dram(groups[g])
                      ? 0.0
                      : static_cast<double>(groups[g].bytes) / copy_in_bw;
    refs.push_back(g);
    items.push_back(MckpItem{{b - cost, 0.0}, groups[g].bytes});
  }

  const MckpResult sel = KnapsackSolver().solve_mckp(items, caps);
  std::set<std::size_t> selected;
  for (std::size_t i = 0; i < refs.size(); ++i)
    if (sel.choice[i] == 0) selected.insert(refs[i]);

  double predicted = no_move_time(prof);
  // Make room first: evict residents that were not selected (enqueued at
  // phase 0, ahead of every fill in the FIFO).
  for (std::size_t g = 0; g < groups.size(); ++g)
    if (group_in_dram(groups[g]) && selected.count(g) == 0)
      for (const UnitRef& u : groups[g].units)
        plan.at_phase[0].push_back(PlannedMigration{u, mem::Tier::kNvm, 0, 0});
  // Fills trigger right after the group's last referencing phase so the
  // one-time migration overlaps the tail of the first enforcing iteration
  // instead of stalling its first phase.
  std::vector<double> phase_times;
  for (const auto& ph : prof.phases()) phase_times.push_back(ph.phase_time_s);
  // Symmetric accounting against the profiled placement: resident groups
  // that stay contribute no delta; evicted residents lose their speed.
  for (const auto& [g, b] : benefit)
    if (group_in_dram(groups[g]) && selected.count(g) == 0) predicted += b;
  for (std::size_t g : selected) {
    if (!group_in_dram(groups[g])) predicted -= benefit[g];
    if (!group_in_dram(groups[g])) {
      const std::size_t first_ref = first_reference(gp, g);
      std::size_t trigger = first_ref;
      std::size_t needed = first_ref;
      double window = overlap_window(gp, phase_times, first_ref, g, &trigger);
      if (opts_.dag != nullptr) {
        // The one-time fill may ride any non-referencing run of phases in
        // the cycle, not just the gap ending at the first reference: pick
        // the run that hides the most copy time (DAG-endorsed if one is).
        bool scheduled = false;
        const double copy_s =
            static_cast<double>(groups[g].bytes) / copy_in_bw;
        trigger = global_slack_trigger(gp, phase_times, g, first_ref, copy_s,
                                       &needed, &window, &scheduled);
        (scheduled ? plan.slack_scheduled : plan.fallback_triggers) += 1;
      }
      (void)window;
      for (const UnitRef& u : groups[g].units)
        plan.at_phase[trigger].push_back(
            PlannedMigration{u, mem::Tier::kDram, trigger, needed});
    }
  }
  for (std::size_t p = 0; p < plan.dram_sets.size(); ++p)
    for (std::size_t g : selected)
      for (const UnitRef& u : groups[g].units) plan.dram_sets[p].insert(u);

  plan.predicted_iteration_s = predicted;
  return plan;
}

Plan Planner::plan_tiered(const Profiler& prof,
                          const std::vector<Group>& groups,
                          const GroupProfiles& gp,
                          const std::vector<std::size_t>& caps) const {
  const std::size_t P = gp.size();
  Plan plan;
  plan.kind = Plan::Kind::kTiered;
  plan.at_phase.assign(std::max<std::size_t>(P, 1), {});
  plan.dram_sets.assign(std::max<std::size_t>(P, 1), {});

  const mem::HeteroMemory& hms = registry_->hms();
  const std::size_t T = hms.num_tiers();
  const mem::Tier backstop = hms.backstop_tier();
  const mem::TierConfig& back_cfg = hms.tier_config(backstop);

  // Aggregated per-(group, tier) benefit over the whole iteration, every
  // tier scored against the backstop through the pairwise Eq. 2/3 forms
  // (the backstop's own column is 0 by construction).
  std::map<std::size_t, std::vector<double>> benefit;
  for (std::size_t p = 0; p < P; ++p)
    for (const auto& [g, uprof] : gp[p]) {
      auto [it, fresh] = benefit.emplace(g, std::vector<double>(T, 0.0));
      for (std::size_t k = 0; k + 1 < T; ++k)
        it->second[k] += model_->benefit_between(
            uprof, hms.tier_config(mem::tier(static_cast<int>(k))), back_cfg);
    }

  // A group's current tier: units move together, so a (transiently) mixed
  // group counts as its slowest member's.
  auto group_tier = [&](const Group& g) {
    int t = 0;
    for (const UnitRef& u : g.units)
      t = std::max(t, mem::tier_index(registry_->unit_tier(u)));
    return t;
  };

  // MCKP items: every referenced group chooses a tier; each weight nets the
  // one-time fill copy out of the benefit (charged once, exactly the global
  // search's accounting), and staying put is free.
  std::vector<std::size_t> refs;
  std::vector<MckpItem> items;
  for (const auto& [g, ben] : benefit) {
    const int cur = group_tier(groups[g]);
    MckpItem item;
    item.bytes = groups[g].bytes;
    item.weights.assign(T, 0.0);
    for (std::size_t k = 0; k < T; ++k) {
      double cost = 0;
      if (static_cast<int>(k) != cur)
        cost = static_cast<double>(groups[g].bytes) /
               hms.copy_bandwidth(mem::tier(cur), mem::tier(static_cast<int>(k)));
      item.weights[k] = ben[k] - cost;
    }
    refs.push_back(g);
    items.push_back(std::move(item));
  }

  const MckpResult sel = KnapsackSolver().solve_mckp(items, caps);

  double predicted = no_move_time(prof);
  // Unreferenced groups vacate constrained tiers (the global search's
  // eviction scan, generalized) so the chosen packing actually fits.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (benefit.count(g) != 0) continue;
    if (group_tier(groups[g]) != static_cast<int>(T) - 1)
      for (const UnitRef& u : groups[g].units)
        plan.at_phase[0].push_back(PlannedMigration{u, backstop, 0, 0});
  }
  // Demotions enqueue before promotions: the phase-0 FIFO batch frees
  // constrained space before filling it (same discipline as plan_global).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const std::size_t g = refs[i];
      const int cur = group_tier(groups[g]);
      const int to = sel.choice[i];
      if (to == cur) continue;
      if ((to > cur) != (pass == 0)) continue;
      for (const UnitRef& u : groups[g].units)
        plan.at_phase[0].push_back(
            PlannedMigration{u, mem::tier(to), 0, first_reference(gp, g)});
      // Symmetric accounting against the profiled placement: moving from
      // `cur` to `to` changes the iteration by benefit lost minus the
      // (cost-netted) weight gained.
      predicted += benefit.at(g)[cur] - items[i].weights[to];
    }
  }
  for (std::size_t i = 0; i < refs.size(); ++i)
    if (sel.choice[i] == 0)
      for (std::size_t p = 0; p < plan.dram_sets.size(); ++p)
        for (const UnitRef& u : groups[refs[i]].units)
          plan.dram_sets[p].insert(u);

  plan.predicted_iteration_s = predicted;
  return plan;
}

Plan Planner::plan(const Profiler& prof) const {
  if (prof.phase_count() == 0) return Plan{};
  std::vector<Group> groups = build_groups();
  GroupProfiles gp = aggregate(prof, groups);
  const std::vector<std::size_t> caps = capacities();
  if (caps.size() > 2) return plan_tiered(prof, groups, gp, caps);

  Plan best;
  best.predicted_iteration_s = no_move_time(prof);
  if (opts_.global_search) {
    Plan g = plan_global(prof, groups, gp, caps);
    if (best.kind == Plan::Kind::kNone ||
        g.predicted_iteration_s < best.predicted_iteration_s)
      best = std::move(g);
  }
  if (opts_.local_search) {
    Plan l = plan_local(prof, groups, gp, caps);
    // The local model credits overlap optimistically (the helper thread is
    // one serial engine and enforcement interleaving is imperfect), so a
    // rotation plan must beat the global plan by a clear margin before it
    // is adopted.
    double margin = l.migration_count() > best.migration_count() ? 0.70 : 1.0;
    if (best.kind == Plan::Kind::kNone ||
        l.predicted_iteration_s < margin * best.predicted_iteration_s)
      best = std::move(l);
  }
  return best;
}

}  // namespace unimem::rt
