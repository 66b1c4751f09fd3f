// Scenario-matrix end-to-end test: the full paper §3 loop (online
// profiling -> model + knapsack planning -> proactive migration) driven
// through the real Runtime on a multi-rank World for EVERY workload
// (NPB bt/cg/ft/lu/mg/sp + Nek) x planner strategy (local+global,
// local-only, global-only).  Each cell asserts:
//   * the loop ran: iterations complete, phases discovered, plan adopted
//     where the strategy allows one;
//   * DRAM-allowance respect, both modeled (every per-phase planned DRAM
//     set fits the rank budget) and enforced (the arbiter never
//     over-grants, final residency fits the allowance);
//   * non-negative modeled benefit (a plan never predicts a slowdown);
//   * migration integrity: checksums agree across strategies.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/runtime.h"
#include "minimpi/comm.h"
#include "simmem/dram_arbiter.h"
#include "simmem/hetero_memory.h"
#include "workloads/workload.h"

namespace unimem {
namespace {

constexpr int kRanks = 2;
constexpr int kIterations = 6;
constexpr std::size_t kDramAllowance = 2 * kMiB;

struct Strategy {
  const char* name;
  bool local;
  bool global;
};

constexpr Strategy kStrategies[] = {
    {"local_and_global", true, true},
    {"local_only", true, false},
    {"global_only", false, true},
};

struct RankOutcome {
  rt::RuntimeStats stats;
  rt::Plan plan;
  double checksum = 0;
  double no_move_estimate_s = 0;
  std::size_t dram_resident = 0;
  std::size_t arbiter_granted = 0;
  std::size_t arbiter_allowance = 0;
  std::vector<std::size_t> planned_phase_bytes;  ///< per-phase DRAM-set size
};

std::vector<RankOutcome> run_matrix_cell(const std::string& workload,
                                         const Strategy& strategy,
                                         int nranks = kRanks,
                                         int ranks_per_node = 1,
                                         double drift_amplitude = 0.0,
                                         int replan_epoch = 0,
                                         int iterations = kIterations) {
  wl::WorkloadConfig wcfg;
  wcfg.cls = 'S';
  wcfg.iterations = iterations;
  wcfg.nranks = nranks;
  wcfg.drift_amplitude = drift_amplitude;
  wcfg.drift_period = 3;

  // Every `ranks_per_node` consecutive ranks share one simulated node —
  // one HeteroMemory + one DramArbiter: NVM holds every sharing rank's
  // footprint with churn headroom; the DRAM allowance is far below the
  // working set so the planner must choose and the migration engine must
  // move data (and, with sharing, the ranks must split the allowance).
  const int nnodes = (nranks + ranks_per_node - 1) / ranks_per_node;
  const std::size_t nvm_cap =
      static_cast<std::size_t>(ranks_per_node) *
      (2 * wcfg.rank_bytes() + 32 * kMiB);
  const std::size_t dram_arena = 2 * kDramAllowance + 4 * kMiB;
  struct Node {
    std::unique_ptr<mem::HeteroMemory> hms;
    std::unique_ptr<mem::DramArbiter> arbiter;
  };
  std::vector<Node> nodes(static_cast<std::size_t>(nnodes));
  for (auto& n : nodes) {
    n.hms = std::make_unique<mem::HeteroMemory>(
        mem::HmsConfig{mem::TierConfig::dram_basis(dram_arena),
                       mem::TierConfig::nvm_scaled(nvm_cap, 0.5, 1.0)});
    n.arbiter = std::make_unique<mem::DramArbiter>(kDramAllowance);
  }

  std::vector<RankOutcome> out(static_cast<std::size_t>(nranks));
  mpi::World world(nranks, mpi::NetworkParams{}, ranks_per_node);
  world.run([&](mpi::Comm& comm) {
    const int r = comm.rank();
    Node& node = nodes[static_cast<std::size_t>(comm.node())];
    rt::RuntimeOptions opts;
    opts.ranks_per_node = ranks_per_node;
    opts.enable_local_search = strategy.local;
    opts.enable_global_search = strategy.global;
    opts.replan_epoch = replan_epoch;
    opts.drift_threshold = 0.15;
    opts.drift_budget = 0.5;
    rt::Runtime runtime(opts, node.hms.get(), node.arbiter.get(), &comm);
    auto wl_impl = wl::make_workload(workload);
    out[r].checksum = wl_impl->run_rank(runtime, wcfg);
    out[r].stats = runtime.stats();
    out[r].plan = runtime.current_plan();
    for (const auto& dram_set : out[r].plan.dram_sets) {
      std::size_t bytes = 0;
      // try_unit_bytes: the workload has already freed its objects by the
      // time the plan is inspected, so some unit refs may be stale.
      for (const rt::UnitRef& u : dram_set)
        bytes += runtime.registry().try_unit_bytes(u);
      out[r].planned_phase_bytes.push_back(bytes);
    }
    out[r].dram_resident = runtime.registry().resident_bytes(mem::Tier::kDram);
    out[r].arbiter_granted = node.arbiter->granted_tier(0);
    out[r].arbiter_allowance = node.arbiter->allowance_tier(0);
  });
  return out;
}

class E2EMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(E2EMatrix, LoopCompletesRespectsDramAndNeverPlansASlowdown) {
  const std::string workload = std::get<0>(GetParam());
  const Strategy& strategy = kStrategies[std::get<1>(GetParam())];
  std::vector<RankOutcome> ranks = run_matrix_cell(workload, strategy);
  ASSERT_EQ(ranks.size(), static_cast<std::size_t>(kRanks));

  for (const RankOutcome& r : ranks) {
    // The loop ran to completion on every rank.
    EXPECT_EQ(r.stats.iterations, static_cast<std::uint64_t>(kIterations));
    EXPECT_GT(r.stats.phases_executed, 0u);

    // One-shot configuration: the adaptive machinery must stay dormant.
    EXPECT_EQ(r.stats.replan_checks, 0u);
    EXPECT_EQ(r.stats.incremental_repairs, 0u);
    EXPECT_EQ(r.stats.full_replans, 0u);

    // The adopted plan honours the strategy's search switches.
    if (!strategy.local) {
      EXPECT_NE(r.plan.kind, rt::Plan::Kind::kLocal);
    }
    if (!strategy.global) {
      EXPECT_NE(r.plan.kind, rt::Plan::Kind::kGlobal);
    }

    // Non-negative modeled benefit: a plan's predicted iteration time is a
    // real, finite prediction — the planner only adopts a plan predicted
    // to be no slower than leaving everything in place.
    EXPECT_GE(r.plan.predicted_iteration_s, 0.0);
    EXPECT_TRUE(std::isfinite(r.plan.predicted_iteration_s));

    // Modeled DRAM respect: every per-phase planned resident set fits the
    // rank's budget.
    for (std::size_t phase = 0; phase < r.planned_phase_bytes.size(); ++phase)
      EXPECT_LE(r.planned_phase_bytes[phase], kDramAllowance)
          << workload << "/" << strategy.name << " phase " << phase;

    // Enforced DRAM respect: the arbiter never over-granted and the final
    // residency fits the node allowance.
    EXPECT_LE(r.arbiter_granted, r.arbiter_allowance);
    EXPECT_LE(r.dram_resident, r.arbiter_allowance);
  }

  // With both searches available, the allowance is far below the working
  // set on every workload: an empty plan would be a planner bug.  Runtime
  // migrations must have happened whenever the adopted plan schedules any
  // (a plan can legitimately schedule none when the initial placement
  // already realizes its resident sets, e.g. MG).
  if (strategy.local && strategy.global) {
    EXPECT_NE(ranks[0].plan.kind, rt::Plan::Kind::kNone) << workload;
    std::uint64_t total_migrations = 0;
    std::size_t planned = 0;
    for (const RankOutcome& r : ranks) {
      total_migrations += r.stats.migration.migrations;
      planned += r.plan.migration_count();
    }
    if (planned > 0) {
      EXPECT_GT(total_migrations, 0u) << workload;
    }
  }

  // Migration integrity: any two strategies must produce identical
  // numerics for the same workload (placement never changes arithmetic).
  static std::map<std::string, std::vector<double>> checksums;
  std::vector<double> sums;
  for (const RankOutcome& r : ranks) sums.push_back(r.checksum);
  auto [it, inserted] = checksums.emplace(workload, sums);
  if (!inserted) {
    EXPECT_EQ(it->second, sums)
        << workload << "/" << strategy.name
        << ": checksum diverged from a previously run strategy";
  }
}

// ---- ranks_per_node > 1: multiple ranks sharing one simulated node --------
//
// The ROADMAP coverage gap: every matrix cell above runs one rank per
// node.  Here 4 ranks run 2-per-node — two ranks share one HeteroMemory
// and one DramArbiter — so the planner must pack against a per-rank share
// of the node allowance and the arbiter arbitrates real contention.
class E2EMultiRankNode : public ::testing::TestWithParam<std::string> {};

TEST_P(E2EMultiRankNode, SharedNodeSplitsAllowanceAndKeepsNumerics) {
  const std::string workload = GetParam();
  const Strategy& strategy = kStrategies[0];  // local+global
  constexpr int kNr = 4;
  std::vector<RankOutcome> shared =
      run_matrix_cell(workload, strategy, kNr, /*ranks_per_node=*/2);
  std::vector<RankOutcome> owned =
      run_matrix_cell(workload, strategy, kNr, /*ranks_per_node=*/1);
  ASSERT_EQ(shared.size(), static_cast<std::size_t>(kNr));
  ASSERT_EQ(owned.size(), static_cast<std::size_t>(kNr));

  for (int r = 0; r < kNr; ++r) {
    // The loop ran on every rank and the node topology never changes the
    // arithmetic: rank r's checksum is identical under both mappings.
    EXPECT_EQ(shared[r].stats.iterations,
              static_cast<std::uint64_t>(kIterations));
    EXPECT_GT(shared[r].stats.phases_executed, 0u);
    EXPECT_DOUBLE_EQ(shared[r].checksum, owned[r].checksum)
        << workload << " rank " << r;

    // Modeled respect of the per-rank share: with 2 ranks per node each
    // rank plans against allowance/2.
    for (std::size_t phase = 0; phase < shared[r].planned_phase_bytes.size();
         ++phase)
      EXPECT_LE(shared[r].planned_phase_bytes[phase], kDramAllowance / 2)
          << workload << " rank " << r << " phase " << phase;
    EXPECT_LE(shared[r].arbiter_granted, shared[r].arbiter_allowance);
  }

  // Enforced respect per node: the two sharing ranks' final DRAM
  // residency fits the single node allowance they share.
  for (int node = 0; node < kNr / 2; ++node) {
    const std::size_t resident = shared[2 * node].dram_resident +
                                 shared[2 * node + 1].dram_resident;
    EXPECT_LE(resident, kDramAllowance) << workload << " node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(CgFt, E2EMultiRankNode,
                         ::testing::Values("cg", "ft"));

// ---- drift injection + adaptive re-planning -------------------------------
//
// The dynamic-workload scenario: per-phase access weights drift on a
// seeded schedule (wl::DriftSchedule) and the runtime re-plans on an
// epoch cadence (core/replan.h).  Drift perturbs only the modeled
// traffic, so the adaptive and one-shot runs must agree bit-for-bit on
// the numerics while differing in placement behavior.
class E2EAdaptiveReplan
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(E2EAdaptiveReplan, DriftedRunReplansKeepsNumericsAndDram) {
  const std::string workload = std::get<0>(GetParam());
  // Whether a repair/re-solve must actually be adopted at this tiny test
  // scale: on nek the S-class repair candidates never beat "keep stale"
  // (the contract: a repair is adopted only when predicted better), so
  // only the checks themselves are required there.
  const bool expect_adoption = std::get<1>(GetParam());
  const Strategy& strategy = kStrategies[0];  // local+global
  constexpr int kIters = 14;
  constexpr double kAmp = 0.35;
  std::vector<RankOutcome> adaptive = run_matrix_cell(
      workload, strategy, kRanks, 1, kAmp, /*replan_epoch=*/3, kIters);
  std::vector<RankOutcome> oneshot = run_matrix_cell(
      workload, strategy, kRanks, 1, kAmp, /*replan_epoch=*/0, kIters);
  ASSERT_EQ(adaptive.size(), oneshot.size());

  std::uint64_t checks = 0, adaptions = 0;
  for (std::size_t r = 0; r < adaptive.size(); ++r) {
    const RankOutcome& a = adaptive[r];
    // The loop ran, epoch checks fired, and every decision was one of the
    // three paths (counters never exceed the checks that produced them).
    EXPECT_EQ(a.stats.iterations, static_cast<std::uint64_t>(kIters));
    EXPECT_GT(a.stats.replan_checks, 0u) << workload << " rank " << r;
    EXPECT_LE(a.stats.incremental_repairs + a.stats.full_replans,
              a.stats.replan_checks);
    EXPECT_GE(a.stats.last_drift_fraction, 0.0);
    EXPECT_LE(a.stats.last_drift_fraction, 1.0);
    checks += a.stats.replan_checks;
    adaptions += a.stats.incremental_repairs + a.stats.full_replans;

    // Drift injection never changes the arithmetic: the adaptive and
    // one-shot runs see identical payloads.
    EXPECT_DOUBLE_EQ(a.checksum, oneshot[r].checksum)
        << workload << " rank " << r;

    // An adopted repair keeps the budget: modeled and enforced DRAM
    // respect hold exactly as in the static matrix.
    for (std::size_t phase = 0; phase < a.planned_phase_bytes.size(); ++phase)
      EXPECT_LE(a.planned_phase_bytes[phase], kDramAllowance)
          << workload << " phase " << phase;
    EXPECT_LE(a.arbiter_granted, a.arbiter_allowance);
    EXPECT_LE(a.dram_resident, a.arbiter_allowance);

    // The one-shot control must not have touched the adaptive machinery.
    EXPECT_EQ(oneshot[r].stats.replan_checks, 0u);
  }
  // Under 35% injected drift at least one epoch across the ranks must
  // have found the weights moved enough to act on.
  EXPECT_GT(checks, 0u);
  if (expect_adoption) {
    EXPECT_GT(adaptions, 0u) << workload << ": drift never acted on";
  }
}

INSTANTIATE_TEST_SUITE_P(
    CgMgNek, E2EAdaptiveReplan,
    ::testing::Values(std::tuple{std::string("cg"), true},
                      std::tuple{std::string("mg"), true},
                      std::tuple{std::string("nek"), false}),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      return std::get<0>(info.param);
    });

// ---- migration-trigger placement -----------------------------------------
//
// Every workload runs once with the local+global strategy (phase-local
// plans rotate units through DRAM on just-in-time triggers) and once
// global-only (one-time fills triggered right after the previous
// reference).  Where a copy is triggered must never change arithmetic or
// break the allowance, and the exposed/hidden split must partition the
// copy time exactly.  (The suite keeps its historical name, from when it
// also compared a second trigger policy, so its test IDs stay stable.)
class E2ESlackSchedule : public ::testing::TestWithParam<std::string> {};

TEST_P(E2ESlackSchedule, ChecksumParityDramRespectAndExposedHiddenSplit) {
  const std::string workload = GetParam();
  std::vector<RankOutcome> jit = run_matrix_cell(workload, kStrategies[0]);
  std::vector<RankOutcome> global = run_matrix_cell(workload, kStrategies[2]);
  ASSERT_EQ(jit.size(), global.size());

  for (std::size_t r = 0; r < jit.size(); ++r) {
    // Checksum parity: trigger placement never changes arithmetic.
    EXPECT_DOUBLE_EQ(jit[r].checksum, global[r].checksum)
        << workload << " rank " << r;

    for (const RankOutcome* o : {&jit[r], &global[r]}) {
      EXPECT_EQ(o->stats.iterations, static_cast<std::uint64_t>(kIterations));

      // DRAM-allowance respect, modeled and enforced, exactly as in the
      // static matrix.
      for (std::size_t phase = 0; phase < o->planned_phase_bytes.size();
           ++phase)
        EXPECT_LE(o->planned_phase_bytes[phase], kDramAllowance)
            << workload << " phase " << phase;
      EXPECT_LE(o->arbiter_granted, o->arbiter_allowance);
      EXPECT_LE(o->dram_resident, o->arbiter_allowance);

      // The exposed/hidden split partitions the copy time.
      const rt::MigrationStats& m = o->stats.migration;
      EXPECT_GE(m.exposed_migration_s(), 0.0);
      EXPECT_GE(m.hidden_migration_s(), 0.0);
      EXPECT_NEAR(m.exposed_migration_s() + m.hidden_migration_s(),
                  m.copy_time_s, 1e-12 + 1e-9 * m.copy_time_s)
          << workload << " rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, E2ESlackSchedule,
                         ::testing::Values("bt", "cg", "ft", "lu", "mg",
                                           "nek", "sp"));

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllStrategies, E2EMatrix,
    ::testing::Combine(::testing::Values("bt", "cg", "ft", "lu", "mg", "nek",
                                         "sp"),
                       ::testing::Range(0, 3)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_" +
             kStrategies[std::get<1>(info.param)].name;
    });

}  // namespace
}  // namespace unimem
