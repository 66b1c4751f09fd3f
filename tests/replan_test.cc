// Tests for the adaptive re-planning controller (core/replan.h): drift
// detection boundaries, incremental-vs-full-DP plan equivalence when
// nothing drifted, fallback to the full solve past the drift budget, and
// the repair contract — the repaired plan's predicted time is never worse
// than keeping the stale plan (property-tested over random instances).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/planner.h"
#include "core/profiler.h"
#include "core/registry.h"
#include "core/replan.h"

namespace unimem::rt {
namespace {

constexpr double kT = 0.01;  ///< phase duration used in synthetic profiles

class ReplanTest : public ::testing::Test {
 protected:
  ReplanTest()
      : hms_(mem::HmsConfig::scaled(0.5, 1.0, 32 * kMiB, 128 * kMiB)),
        reg_(&hms_, nullptr) {
    ModelParams p;
    p.bw_peak = hms_.tier_config(mem::Tier::kNvm).read_bw;
    model_ = std::make_unique<PerformanceModel>(
        p, hms_.tier_config(mem::Tier::kDram),
        hms_.tier_config(mem::Tier::kNvm));
  }

  DataObject* obj(const char* name, std::size_t bytes) {
    return reg_.create(name, bytes, ObjectTraits{false, -1}, mem::Tier::kNvm,
                       chunk_bytes_for(false, bytes));
  }

  /// Record a synthetic computation phase into `prof` where each listed
  /// object is observed with the given miss count (the planner_test
  /// scaffolding: samples proportional to each object's share).
  static void phase(
      Profiler& prof,
      std::initializer_list<std::pair<DataObject*, std::uint64_t>> hot) {
    perf::PhaseSamples s;
    s.total_samples = 10000;
    std::uint64_t total = 0;
    for (auto& [o, misses] : hot) total += misses;
    s.total_miss_count = total;
    for (auto& [o, misses] : hot) {
      std::uint64_t n = misses * 8000 / std::max<std::uint64_t>(total, 1);
      for (std::uint64_t i = 0; i < n; i += 10) {
        std::uint32_t c = static_cast<std::uint32_t>(i % o->chunk_count());
        s.miss_addresses.push_back(
            reinterpret_cast<std::uint64_t>(o->chunk(c).data()) +
            (i * 64) % o->chunk(c).bytes);
      }
    }
    prof.record_phase(s, kT);
  }

  ReplanController controller(std::size_t budget, double threshold = 0.25,
                              double drift_budget = 0.25) {
    ReplanOptions o;
    o.drift_threshold = threshold;
    o.drift_budget = drift_budget;
    o.dram_budget = budget;
    return ReplanController(&reg_, model_.get(), o);
  }

  std::size_t dram_bytes() const {
    return reg_.resident_bytes(mem::Tier::kDram);
  }

  mem::HeteroMemory hms_;
  Registry reg_;
  std::unique_ptr<PerformanceModel> model_;
};

TEST_F(ReplanTest, ZeroDriftKeepsStalePlanAndMatchesFullDp) {
  DataObject* hot = obj("hot", 2 * kMiB);
  DataObject* warm = obj("warm", 2 * kMiB);
  DataObject* cold = obj("cold", 2 * kMiB);

  Profiler before(&reg_);
  phase(before, {{hot, 500000}, {warm, 300000}, {cold, 1000}});
  before.record_comm_phase(kT / 10);

  // Adopt the full DP's answer and make the registry reflect it (global
  // search only: the aggregate path the controller's repair mirrors).
  PlannerOptions po;
  po.local_search = false;
  po.tier_budgets = {5 * kMiB, KnapsackSolver::kUnbounded};
  Planner planner(&reg_, model_.get(), po);
  Plan full = planner.plan(before);
  ASSERT_NE(full.kind, Plan::Kind::kNone);
  for (const UnitRef& u : full.dram_sets[0])
    ASSERT_TRUE(reg_.migrate(u, mem::Tier::kDram));

  ReplanController ctl = controller(5 * kMiB);
  ctl.observe(before);

  // An identical second profile: nothing drifted, the stale plan stays —
  // which is exactly what a full DP re-solve would decide too.
  Profiler after(&reg_);
  phase(after, {{hot, 500000}, {warm, 300000}, {cold, 1000}});
  after.record_comm_phase(kT / 10);

  ReplanDecision d = ctl.decide(after);
  EXPECT_EQ(d.drift.drifted, 0u);
  EXPECT_GT(d.drift.tracked, 0u);
  EXPECT_EQ(d.path, ReplanDecision::Path::kKeepStale);
  EXPECT_DOUBLE_EQ(d.repaired_predicted_s, d.stale_predicted_s);

  // Full-DP equivalence at zero drift: re-running the planner on the
  // unchanged profile picks the residency the registry already has.
  Plan again = planner.plan(after);
  ASSERT_NE(again.kind, Plan::Kind::kNone);
  std::set<UnitRef> now_resident;
  for (const UnitRef& u : reg_.all_units())
    if (reg_.unit_tier(u) == mem::Tier::kDram) now_resident.insert(u);
  EXPECT_EQ(again.dram_sets[0], now_resident);
  EXPECT_EQ(again.migration_count(), 0u);
}

TEST_F(ReplanTest, DriftDetectionBoundaries) {
  DataObject* steady = obj("steady", kMiB);
  DataObject* creeping = obj("creeping", kMiB);
  DataObject* jumping = obj("jumping", kMiB);

  // Single-object phases so each unit's estimated accesses track its miss
  // count exactly (no cross-object sample apportioning).
  Profiler before(&reg_);
  phase(before, {{steady, 400000}});
  phase(before, {{creeping, 400000}});
  phase(before, {{jumping, 400000}});

  ReplanController ctl = controller(4 * kMiB, /*threshold=*/0.25);
  ctl.observe(before);
  ASSERT_EQ(ctl.baseline_weights().size(), 3u);

  // +10% is rel 0.1/1.1 ~ 0.091 (relative to the larger reading): under
  // the 0.25 threshold.  2x is rel 0.5: over it.
  Profiler after(&reg_);
  phase(after, {{steady, 400000}});
  phase(after, {{creeping, 440000}});
  phase(after, {{jumping, 800000}});

  const DriftReport rep = ctl.decide(after).drift;
  EXPECT_EQ(rep.tracked, 3u);
  EXPECT_EQ(rep.drifted, 1u);
  EXPECT_NEAR(rep.max_rel_change, 0.5, 0.05);

  // A vanished unit drifts by definition (rel = 1): drop the jumping
  // phase entirely.
  Profiler gone(&reg_);
  phase(gone, {{steady, 400000}});
  phase(gone, {{creeping, 400000}});
  const DriftReport rep2 = ctl.decide(gone).drift;
  EXPECT_EQ(rep2.drifted, 1u);
  EXPECT_NEAR(rep2.max_rel_change, 1.0, 1e-9);
}

TEST_F(ReplanTest, FallbackTriggersAtTheDriftBudget) {
  std::vector<DataObject*> objs;
  for (int i = 0; i < 8; ++i) {
    std::string name("o");
    name += std::to_string(i);
    objs.push_back(obj(name.c_str(), kMiB));
  }
  Profiler before(&reg_);
  for (DataObject* o : objs) phase(before, {{o, 400000}});

  ReplanController ctl =
      controller(4 * kMiB, /*threshold=*/0.25, /*drift_budget=*/0.25);
  ctl.observe(before);

  // 6 of 8 units double: drift fraction 0.75 > 0.25 -> full re-solve.
  Profiler big(&reg_);
  for (std::size_t i = 0; i < objs.size(); ++i)
    phase(big, {{objs[i], i < 6 ? 800000u : 400000u}});
  ReplanDecision d = ctl.decide(big);
  EXPECT_EQ(d.path, ReplanDecision::Path::kFullSolve);
  EXPECT_NEAR(d.drift.drift_fraction(), 0.75, 1e-9);

  // 1 of 8 drifts: within budget, the bounded repair path answers (the
  // newly hot outsider is worth promoting, so the repair wins).
  Profiler small(&reg_);
  for (std::size_t i = 0; i < objs.size(); ++i)
    phase(small, {{objs[i], i == 0 ? 800000u : 400000u}});
  ReplanDecision d2 = ctl.decide(small);
  EXPECT_NE(d2.path, ReplanDecision::Path::kFullSolve);
  EXPECT_NEAR(d2.drift.drift_fraction(), 0.125, 1e-9);
}

TEST_F(ReplanTest, IncrementalRepairSwapsDriftedResidentForNewlyHotUnit) {
  DataObject* fading = obj("fading", 2 * kMiB);
  DataObject* rising = obj("rising", 2 * kMiB);
  DataObject* steady = obj("steady", kMiB);

  // Baseline: fading is the hot resident, steady rides along.
  Profiler before(&reg_);
  phase(before, {{fading, 800000}});
  phase(before, {{steady, 300000}});
  phase(before, {{rising, 1000}});
  ASSERT_TRUE(reg_.migrate(UnitRef{fading->id(), 0}, mem::Tier::kDram));
  ASSERT_TRUE(reg_.migrate(UnitRef{steady->id(), 0}, mem::Tier::kDram));

  // Budget fits only one of the 2 MiB objects next to steady.
  ReplanController ctl =
      controller(3 * kMiB + kMiB / 2, /*threshold=*/0.25, /*budget=*/0.9);
  ctl.observe(before);

  // The hot set flips: fading collapses, rising explodes; steady steady.
  Profiler after(&reg_);
  phase(after, {{fading, 1000}});
  phase(after, {{steady, 300000}});
  phase(after, {{rising, 800000}});

  ReplanDecision d = ctl.decide(after);
  ASSERT_EQ(d.path, ReplanDecision::Path::kIncremental);
  EXPECT_LT(d.repaired_predicted_s, d.stale_predicted_s);
  ASSERT_EQ(d.plan.kind, Plan::Kind::kIncremental);

  bool evicts_fading = false, fills_rising = false, touches_steady = false;
  for (const auto& v : d.plan.at_phase)
    for (const PlannedMigration& m : v) {
      if (m.unit.object == fading->id() && m.to == mem::Tier::kNvm)
        evicts_fading = true;
      if (m.unit.object == rising->id() && m.to == mem::Tier::kDram)
        fills_rising = true;
      if (m.unit.object == steady->id()) touches_steady = true;
    }
  EXPECT_TRUE(evicts_fading);
  EXPECT_TRUE(fills_rising);
  // Warm start: the non-drifted resident is never touched.
  EXPECT_FALSE(touches_steady);
  // The repaired resident set keeps steady and holds the budget.
  const std::set<UnitRef>& final_set = d.plan.dram_sets[0];
  EXPECT_TRUE(final_set.count(UnitRef{steady->id(), 0}));
  EXPECT_TRUE(final_set.count(UnitRef{rising->id(), 0}));
  EXPECT_FALSE(final_set.count(UnitRef{fading->id(), 0}));
}

TEST_F(ReplanTest, PropertyRepairedPlanNeverWorseThanStaleAndFitsBudget) {
  // Random instances: N objects with random sizes and miss counts, a
  // random subset resident, random per-unit perturbations.  Whatever path
  // the controller picks, the adopted prediction must never exceed the
  // stale prediction, and a repaired resident set must fit the budget.
  Rng rng(20260730);
  std::vector<DataObject*> objs;
  for (int i = 0; i < 12; ++i) {
    std::string name("p");
    name += std::to_string(i);
    objs.push_back(obj(name.c_str(), (1 + rng.below(4)) * (kMiB / 2)));
  }
  const std::size_t budget = 4 * kMiB;

  for (int round = 0; round < 40; ++round) {
    // Reset residency to a random subset that fits.
    std::size_t used = 0;
    for (DataObject* o : objs) {
      UnitRef u{o->id(), 0};
      if (reg_.unit_tier(u) == mem::Tier::kDram) {
        ASSERT_TRUE(reg_.migrate(u, mem::Tier::kNvm));
      }
      if (rng.uniform() < 0.4 && used + o->bytes() <= budget) {
        ASSERT_TRUE(reg_.migrate(u, mem::Tier::kDram));
        used += o->bytes();
      }
    }

    std::vector<std::uint64_t> misses;
    Profiler before(&reg_);
    for (DataObject* o : objs) {
      misses.push_back(100000 + rng.below(900000));
      phase(before, {{o, misses.back()}});
    }

    ReplanController ctl = controller(budget, 0.25, /*drift_budget=*/1.1);
    ctl.observe(before);

    Profiler after(&reg_);
    for (std::size_t i = 0; i < objs.size(); ++i) {
      double f = rng.uniform(0.25, 3.0);  // heavy random drift
      phase(after, {{objs[i], static_cast<std::uint64_t>(
                                  static_cast<double>(misses[i]) * f)}});
    }

    ReplanDecision d = ctl.decide(after);
    EXPECT_LE(d.repaired_predicted_s, d.stale_predicted_s + 1e-12)
        << "round " << round;
    if (d.path == ReplanDecision::Path::kIncremental) {
      std::size_t bytes = 0;
      for (const UnitRef& u : d.plan.dram_sets[0]) bytes += reg_.unit_bytes(u);
      EXPECT_LE(bytes, budget) << "round " << round;
    } else {
      EXPECT_EQ(d.plan.kind, Plan::Kind::kNone) << "round " << round;
    }
  }
}

TEST_F(ReplanTest, SolveBoundedPublicEntryAgreesWithSolveOnEasyInstances) {
  // All-fit and filtering behavior match the exact DP (the 2-tier MCKP,
  // weights {w, 0}: tier 0 = selected), so the repair path cannot select a
  // non-fitting or worthless item.
  KnapsackSolver s;
  auto exact_dp = [&](const std::vector<KnapsackItem>& items,
                      std::size_t cap) {
    std::vector<MckpItem> two_tier;
    for (const KnapsackItem& it : items)
      two_tier.push_back(MckpItem{{it.weight, 0.0}, it.bytes});
    const MckpResult m =
        s.solve_mckp(two_tier, {cap, KnapsackSolver::kUnbounded});
    KnapsackResult out;
    for (std::size_t i = 0; i < items.size(); ++i)
      if (m.choice[i] == 0) {
        out.selected.push_back(i);
        out.total_weight += items[i].weight;
      }
    return out;
  };
  std::vector<KnapsackItem> items{{1.0, kMiB},
                                  {-0.5, kMiB},        // never selected
                                  {2.0, 10 * kMiB},    // larger than capacity
                                  {0.5, 2 * kMiB}};
  KnapsackResult exact = exact_dp(items, 4 * kMiB);
  KnapsackResult bounded = s.solve_bounded(items, 4 * kMiB);
  EXPECT_EQ(exact.selected, bounded.selected);
  EXPECT_DOUBLE_EQ(exact.total_weight, bounded.total_weight);

  // Oversubscribed: the bounded answer is at least half the DP optimum
  // (1/2-approximation guarantee).
  Rng rng(7);
  std::vector<KnapsackItem> big;
  for (int i = 0; i < 64; ++i)
    big.push_back(KnapsackItem{rng.uniform(0.1, 1.0),
                               (1 + rng.below(32)) * (kMiB / 8)});
  KnapsackResult opt = exact_dp(big, 8 * kMiB);
  KnapsackResult approx = s.solve_bounded(big, 8 * kMiB);
  EXPECT_GE(approx.total_weight, 0.5 * opt.total_weight);
  EXPECT_LE(approx.total_weight, opt.total_weight + 1e-12);
}

}  // namespace
}  // namespace unimem::rt
