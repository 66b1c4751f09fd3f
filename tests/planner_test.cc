// Tests for the placement planner: knapsack-driven selection, budget
// safety, local vs global search, dependency-respecting triggers, and the
// chunking-granularity switch.
#include <gtest/gtest.h>

#include "core/phase_dag.h"
#include "core/planner.h"
#include "core/profiler.h"
#include "core/registry.h"

namespace unimem::rt {
namespace {

constexpr double kT = 0.01;  ///< phase duration used in synthetic profiles

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : hms_(mem::HmsConfig::scaled(0.5, 1.0, 32 * kMiB, 128 * kMiB)),
        reg_(&hms_, nullptr),
        prof_(&reg_) {
    ModelParams p;
    p.bw_peak = hms_.tier_config(mem::Tier::kNvm).read_bw;
    model_ = std::make_unique<PerformanceModel>(
        p, hms_.tier_config(mem::Tier::kDram),
        hms_.tier_config(mem::Tier::kNvm));
  }

  DataObject* obj(const char* name, std::size_t bytes, bool chunkable = false) {
    return reg_.create(name, bytes, ObjectTraits{chunkable, -1},
                       mem::Tier::kNvm, chunk_bytes_for(chunkable, bytes));
  }

  /// Record a synthetic computation phase where each listed object is
  /// "observed" with the given miss count (bandwidth-heavy profile).
  void phase(std::initializer_list<std::pair<DataObject*, std::uint64_t>> hot) {
    perf::PhaseSamples s;
    s.total_samples = 10000;
    std::uint64_t total = 0;
    for (auto& [o, misses] : hot) total += misses;
    s.total_miss_count = total;
    for (auto& [o, misses] : hot) {
      // Samples proportional to each object's share, spread over chunks.
      std::uint64_t n = misses * 8000 / std::max<std::uint64_t>(total, 1);
      for (std::uint64_t i = 0; i < n; i += 10) {
        std::uint32_t c = static_cast<std::uint32_t>(i % o->chunk_count());
        s.miss_addresses.push_back(
            reinterpret_cast<std::uint64_t>(o->chunk(c).data()) +
            (i * 64) % o->chunk(c).bytes);
      }
    }
    prof_.record_phase(s, kT);
  }

  void comm_phase() { prof_.record_comm_phase(kT / 10); }

  Plan plan(std::size_t budget, bool local = true, bool global = true,
            bool chunking = true) {
    PlannerOptions o;
    o.local_search = local;
    o.global_search = global;
    o.chunking = chunking;
    o.tier_budgets = {budget, KnapsackSolver::kUnbounded};
    Planner p(&reg_, model_.get(), o);
    return p.plan(prof_);
  }

  mem::HeteroMemory hms_;
  Registry reg_;
  Profiler prof_;
  std::unique_ptr<PerformanceModel> model_;
};

TEST_F(PlannerTest, EmptyProfileGivesNoPlan) {
  Plan p = plan(8 * kMiB);
  EXPECT_EQ(p.kind, Plan::Kind::kNone);
  EXPECT_EQ(p.migration_count(), 0u);
}

TEST_F(PlannerTest, GlobalSelectsHottestWithinBudget) {
  DataObject* hot = obj("hot", 2 * kMiB);
  DataObject* cold = obj("cold", 2 * kMiB);
  DataObject* big_hot = obj("big_hot", 2 * kMiB);
  phase({{hot, 500000}, {cold, 1000}, {big_hot, 400000}});
  comm_phase();
  Plan p = plan(5 * kMiB, /*local=*/false, /*global=*/true);
  ASSERT_EQ(p.kind, Plan::Kind::kGlobal);
  // hot and big_hot fit together (4 MiB <= 5 MiB) and dominate benefit.
  std::set<UnitRef> in_dram = p.dram_sets[0];
  EXPECT_TRUE(in_dram.count(UnitRef{hot->id(), 0}));
  EXPECT_TRUE(in_dram.count(UnitRef{big_hot->id(), 0}));
  EXPECT_FALSE(in_dram.count(UnitRef{cold->id(), 0}));
}

TEST_F(PlannerTest, BudgetNeverExceeded) {
  std::vector<DataObject*> objs;
  for (int i = 0; i < 8; ++i) {
    // Built with append (not operator+) to dodge GCC 12's -Wrestrict
    // false positive at -O3, which broke Release builds.
    std::string name("o");
    name += std::to_string(i);
    objs.push_back(obj(name.c_str(), kMiB));
  }
  phase({{objs[0], 100000},
         {objs[1], 90000},
         {objs[2], 80000},
         {objs[3], 70000},
         {objs[4], 60000}});
  phase({{objs[5], 100000}, {objs[6], 90000}, {objs[7], 80000}});
  for (std::size_t budget : {kMiB, 2 * kMiB, 3 * kMiB, 5 * kMiB}) {
    Plan p = plan(budget);
    for (const auto& s : p.dram_sets) {
      std::size_t bytes = 0;
      for (const UnitRef& u : s) bytes += reg_.unit_bytes(u);
      EXPECT_LE(bytes, budget);
    }
  }
}

TEST_F(PlannerTest, LocalSearchRotatesDisjointHotSets) {
  // Two phases with disjoint hot objects, each ~ the whole budget: a
  // global placement can hold only one; the local plan should migrate.
  DataObject* a = obj("a", 3 * kMiB);
  DataObject* b = obj("b", 3 * kMiB);
  phase({{a, 800000}});
  comm_phase();
  phase({{b, 800000}});
  comm_phase();
  Plan local = plan(4 * kMiB, true, false);
  ASSERT_EQ(local.kind, Plan::Kind::kLocal);
  EXPECT_GE(local.migration_count(), 2u);
  // Phase 0's resident set holds a, phase 2's holds b.
  EXPECT_TRUE(local.dram_sets[0].count(UnitRef{a->id(), 0}));
  EXPECT_TRUE(local.dram_sets[2].count(UnitRef{b->id(), 0}));
  EXPECT_FALSE(local.dram_sets[2].count(UnitRef{a->id(), 0}));
}

TEST_F(PlannerTest, PlanPicksPredictedBetterSearch) {
  // Same stable object hot in every phase: local and global agree on the
  // placement and the chosen plan must not schedule recurring migrations.
  DataObject* a = obj("a", 2 * kMiB);
  for (int i = 0; i < 3; ++i) {
    phase({{a, 500000}});
    comm_phase();
  }
  Plan p = plan(4 * kMiB);
  EXPECT_LE(p.migration_count(), 1u);
  EXPECT_LT(p.predicted_iteration_s, 6 * kT + 3 * kT / 10);
}

TEST_F(PlannerTest, TriggerRespectsDependencyWindow) {
  // Object b is needed in phase 2 and referenced nowhere else: its fill
  // must trigger strictly after phase 2's previous use (i.e. not in the
  // phases where it is busy) and be marked as needed at phase 2.
  DataObject* a = obj("a", 3 * kMiB);
  DataObject* b = obj("b", 3 * kMiB);
  phase({{a, 800000}});
  comm_phase();
  phase({{b, 800000}});
  comm_phase();
  Plan p = plan(4 * kMiB, true, false);
  bool found = false;
  for (std::size_t ph = 0; ph < p.at_phase.size(); ++ph) {
    for (const PlannedMigration& m : p.at_phase[ph]) {
      if (m.unit.object == b->id() && m.to == mem::Tier::kDram) {
        found = true;
        EXPECT_EQ(m.needed_phase, 2u);
        EXPECT_NE(ph, 2u);  // proactive, not synchronous
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PlannerTest, ChunkingAllowsPartialPlacement) {
  // A 12 MiB chunkable object against a 6 MiB budget: with chunking the
  // planner places some chunks; without, the object is all-or-nothing and
  // cannot be placed at all.
  DataObject* big = obj("big", 12 * kMiB, /*chunkable=*/true);
  ASSERT_GT(big->chunk_count(), 1u);
  phase({{big, 1500000}});
  comm_phase();
  Plan with = plan(6 * kMiB, false, true, /*chunking=*/true);
  std::size_t placed = 0;
  for (const UnitRef& u : with.dram_sets[0])
    if (u.object == big->id()) ++placed;
  EXPECT_GT(placed, 0u);
  EXPECT_LT(placed, big->chunk_count());

  Plan without = plan(6 * kMiB, false, true, /*chunking=*/false);
  for (const UnitRef& u : without.dram_sets[0])
    EXPECT_NE(u.object, big->id());
}

TEST_F(PlannerTest, EvictionMakesRoomForHotterObject) {
  DataObject* stale = obj("stale", 3 * kMiB);
  DataObject* hot = obj("hot", 3 * kMiB);
  // stale starts resident in DRAM.
  ASSERT_TRUE(reg_.migrate(UnitRef{stale->id(), 0}, mem::Tier::kDram));
  phase({{hot, 900000}, {stale, 1000}});
  comm_phase();
  Plan p = plan(4 * kMiB);
  bool evicts_stale = false, fills_hot = false;
  for (const auto& v : p.at_phase)
    for (const PlannedMigration& m : v) {
      if (m.unit.object == stale->id() && m.to == mem::Tier::kNvm)
        evicts_stale = true;
      if (m.unit.object == hot->id() && m.to == mem::Tier::kDram)
        fills_hot = true;
    }
  EXPECT_TRUE(evicts_stale);
  EXPECT_TRUE(fills_hot);
}

TEST_F(PlannerTest, GlobalFillTriggersRightAfterThePreviousReference) {
  // x is hot in phases 0 and 4 with a three-phase gap between the
  // references.  The global plan's one-time fill triggers right after the
  // previous reference in cycle order (phase 4 wraps to phase 0), which
  // here is the first reference itself: zero window, due at phase 0.
  DataObject* x = obj("x", 3 * kMiB);
  DataObject* y = obj("y", 3 * kMiB);
  phase({{x, 800000}});
  phase({{y, 100000}});
  phase({{y, 100000}});
  phase({{y, 100000}});
  phase({{x, 800000}});

  PlannerOptions o;
  o.local_search = false;
  o.tier_budgets = {4 * kMiB, KnapsackSolver::kUnbounded};
  Plan p = Planner(&reg_, model_.get(), o).plan(prof_);
  ASSERT_EQ(p.kind, Plan::Kind::kGlobal);
  const PlannedMigration* fill = nullptr;
  std::size_t fill_trigger = 0;
  for (std::size_t ph = 0; ph < p.at_phase.size(); ++ph)
    for (const PlannedMigration& m : p.at_phase[ph])
      if (m.unit.object == x->id() && m.to == mem::Tier::kDram) {
        fill = &m;
        fill_trigger = ph;
      }
  ASSERT_NE(fill, nullptr);
  EXPECT_EQ(fill_trigger, 0u);
  EXPECT_EQ(fill->needed_phase, 0u);
}

TEST_F(PlannerTest, NoMoveTimeSumsPhases) {
  DataObject* a = obj("a", kMiB);
  phase({{a, 1000}});
  comm_phase();
  PlannerOptions o;
  o.tier_budgets = {kMiB, KnapsackSolver::kUnbounded};
  Planner p(&reg_, model_.get(), o);
  EXPECT_NEAR(p.no_move_time(prof_), kT + kT / 10, 1e-12);
}

}  // namespace
}  // namespace unimem::rt
