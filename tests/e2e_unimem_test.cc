// End-to-end smoke test of the full paper §3 loop on the CG workload:
// online profiling -> model + knapsack planning -> proactive migration,
// driven through the real Runtime on a multi-rank World (not through the
// experiment runner), so the final placement can be inspected before the
// runtime is torn down.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/runtime.h"
#include "experiments/runner.h"
#include "minimpi/comm.h"
#include "simmem/dram_arbiter.h"
#include "simmem/hetero_memory.h"
#include "workloads/workload.h"

namespace unimem {
namespace {

constexpr int kRanks = 2;
constexpr int kIterations = 8;
constexpr std::size_t kDramAllowance = 2 * kMiB;

struct RankOutcome {
  rt::RuntimeStats stats;
  rt::Plan::Kind plan_kind = rt::Plan::Kind::kNone;
  double checksum = 0;
  std::size_t dram_resident = 0;   ///< registry bytes in DRAM at the end
  std::size_t arbiter_granted = 0; ///< node DRAM granted at the end
  std::size_t arbiter_allowance = 0;
};

/// Run CG under the Unimem runtime, one node per rank, and capture what
/// each rank's runtime looked like at unimem_end.
std::vector<RankOutcome> run_cg_under_unimem() {
  wl::WorkloadConfig wcfg;
  wcfg.cls = 'S';
  wcfg.iterations = kIterations;
  wcfg.nranks = kRanks;

  // One node per rank: NVM holds the whole footprint with churn headroom,
  // DRAM allowance is ~a quarter of the rank's objects so the planner must
  // actually choose and the migration engine must actually move data.
  const std::size_t nvm_cap = 2 * wcfg.rank_bytes() + 32 * kMiB;
  const std::size_t dram_arena = 2 * kDramAllowance + 4 * kMiB;
  struct Node {
    std::unique_ptr<mem::HeteroMemory> hms;
    std::unique_ptr<mem::DramArbiter> arbiter;
  };
  std::vector<Node> nodes(kRanks);
  for (auto& n : nodes) {
    n.hms = std::make_unique<mem::HeteroMemory>(
        mem::HmsConfig{mem::TierConfig::dram_basis(dram_arena),
                       mem::TierConfig::nvm_scaled(nvm_cap, 0.5, 1.0)});
    n.arbiter = std::make_unique<mem::DramArbiter>(kDramAllowance);
  }

  std::vector<RankOutcome> out(kRanks);
  mpi::World world(kRanks, mpi::NetworkParams{}, /*ranks_per_node=*/1);
  world.run([&](mpi::Comm& comm) {
    const int r = comm.rank();
    Node& node = nodes[static_cast<std::size_t>(comm.node())];
    rt::RuntimeOptions opts;
    opts.ranks_per_node = 1;
    rt::Runtime runtime(opts, node.hms.get(), node.arbiter.get(), &comm);
    auto workload = wl::make_workload("cg");
    out[r].checksum = workload->run_rank(runtime, wcfg);
    out[r].stats = runtime.stats();
    out[r].plan_kind = runtime.current_plan().kind;
    out[r].dram_resident = runtime.registry().resident_bytes(mem::Tier::kDram);
    out[r].arbiter_granted = node.arbiter->granted_tier(0);
    out[r].arbiter_allowance = node.arbiter->allowance_tier(0);
  });
  return out;
}

TEST(E2EUnimem, FullLoopProfilesPlansAndMigratesOnCg) {
  std::vector<RankOutcome> ranks = run_cg_under_unimem();
  ASSERT_EQ(ranks.size(), static_cast<std::size_t>(kRanks));

  std::uint64_t total_migrations = 0;
  for (const RankOutcome& r : ranks) {
    // The loop ran to completion: every iteration executed, phases were
    // discovered through the PMPI hooks, and a plan was adopted.
    EXPECT_EQ(r.stats.iterations, static_cast<std::uint64_t>(kIterations));
    EXPECT_GT(r.stats.phases_executed, 0u);
    EXPECT_NE(r.plan_kind, rt::Plan::Kind::kNone);
    total_migrations += r.stats.migration.migrations;
  }
  // Proactive enforcement actually moved data (the DRAM allowance is far
  // below the working set, so an empty plan would be a planner bug).
  EXPECT_GT(total_migrations, 0u);
}

TEST(E2EUnimem, FinalPlacementRespectsDramCapacity) {
  std::vector<RankOutcome> ranks = run_cg_under_unimem();
  for (const RankOutcome& r : ranks) {
    // The arbiter never over-granted, and the bytes the registry holds in
    // DRAM fit inside the node allowance (1 rank/node here).
    EXPECT_LE(r.arbiter_granted, r.arbiter_allowance);
    EXPECT_LE(r.dram_resident, r.arbiter_allowance);
  }
}

TEST(E2EUnimem, RunnerPathMatchesAndMigrationsAreCounted) {
  // The same loop through the experiment runner: Unimem must preserve the
  // DRAM-only checksum and report its migrations in the run summary.
  exp::RunConfig cfg;
  cfg.workload = "cg";
  cfg.wcfg.cls = 'S';
  cfg.wcfg.iterations = kIterations;
  cfg.wcfg.nranks = kRanks;
  cfg.dram_capacity = kDramAllowance;
  cfg.policy = exp::Policy::kDramOnly;
  exp::RunResult dram = exp::run_once(cfg);
  cfg.policy = exp::Policy::kUnimem;
  exp::RunResult uni = exp::run_once(cfg);
  EXPECT_DOUBLE_EQ(uni.checksum, dram.checksum);
  EXPECT_GT(uni.total_migrations, 0u);
  EXPECT_GT(uni.total_bytes_moved, 0u);
}

}  // namespace
}  // namespace unimem
