// Integration tests: every workload runs under every policy with identical
// numerics (checksums must match — migrations may never corrupt data), and
// the policy ordering the paper reports must hold:
//   DRAM-only <= Unimem <= NVM-only   (in execution time).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/runner.h"
#include "simmem/tier_config.h"

namespace unimem::exp {
namespace {

class WorkloadIntegration : public ::testing::TestWithParam<std::string> {};

RunConfig base_cfg(const std::string& wl) {
  RunConfig cfg;
  cfg.workload = wl;
  cfg.wcfg.cls = 'S';
  cfg.wcfg.iterations = 6;
  cfg.wcfg.nranks = 2;
  cfg.dram_capacity = 2 * kMiB;
  cfg.nvm_bw_ratio = 0.5;
  cfg.nvm_lat_mult = 1.0;
  return cfg;
}

TEST_P(WorkloadIntegration, ChecksumsIdenticalAcrossPolicies) {
  RunConfig cfg = base_cfg(GetParam());
  cfg.policy = Policy::kDramOnly;
  RunResult dram = run_once(cfg);
  cfg.policy = Policy::kNvmOnly;
  RunResult nvm = run_once(cfg);
  cfg.policy = Policy::kUnimem;
  RunResult uni = run_once(cfg);
  cfg.policy = Policy::kXMen;
  RunResult xmen = run_once(cfg);
  EXPECT_DOUBLE_EQ(dram.checksum, nvm.checksum);
  EXPECT_DOUBLE_EQ(dram.checksum, uni.checksum);
  EXPECT_DOUBLE_EQ(dram.checksum, xmen.checksum);
}

TEST_P(WorkloadIntegration, PolicyTimeOrdering) {
  RunConfig cfg = base_cfg(GetParam());
  cfg.policy = Policy::kDramOnly;
  RunResult dram = run_once(cfg);
  cfg.policy = Policy::kNvmOnly;
  RunResult nvm = run_once(cfg);
  cfg.policy = Policy::kUnimem;
  RunResult uni = run_once(cfg);
  EXPECT_GT(nvm.time_s, dram.time_s);          // the NVM gap exists
  EXPECT_LE(uni.time_s, nvm.time_s * 1.02);    // Unimem never loses much
  EXPECT_GE(uni.time_s, dram.time_s * 0.98);   // and cannot beat DRAM-only
}

TEST_P(WorkloadIntegration, UnimemOverheadBounded) {
  RunConfig cfg = base_cfg(GetParam());
  cfg.policy = Policy::kUnimem;
  RunResult r = run_once(cfg);
  EXPECT_LT(r.mean_overhead_percent, 5.0);
  EXPECT_GE(r.mean_overlap_percent, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadIntegration,
                         ::testing::Values("cg", "ft", "bt", "lu", "sp", "mg",
                                           "nek"));

TEST(Integration, DeterministicAcrossRuns) {
  RunConfig cfg = base_cfg("cg");
  cfg.policy = Policy::kUnimem;
  RunResult a = run_once(cfg);
  RunResult b = run_once(cfg);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
}

TEST(Integration, StrongScalingReducesPerRankTime) {
  RunConfig cfg = base_cfg("cg");
  cfg.wcfg.cls = 'A';
  cfg.policy = Policy::kNvmOnly;
  cfg.wcfg.nranks = 1;
  RunResult one = run_once(cfg);
  cfg.wcfg.nranks = 4;
  RunResult four = run_once(cfg);
  EXPECT_LT(four.time_s, one.time_s);
}

TEST(Integration, LatencyConfigHurtsLatencySensitiveWorkloads) {
  // SP's lhs is latency-sensitive: a 4x latency NVM must slow NVM-only SP
  // more than the bandwidth-halved NVM does (Fig. 4's lhs panel).
  RunConfig cfg = base_cfg("sp");
  cfg.policy = Policy::kNvmOnly;
  cfg.nvm_bw_ratio = 0.5;
  cfg.nvm_lat_mult = 1.0;
  RunResult bw = run_once(cfg);
  cfg.nvm_bw_ratio = 1.0;
  cfg.nvm_lat_mult = 4.0;
  RunResult lat = run_once(cfg);
  EXPECT_GT(lat.time_s, bw.time_s);
}

TEST(Integration, MultipleRanksPerNodeShareTheArbiter) {
  RunConfig cfg = base_cfg("lu");
  cfg.wcfg.nranks = 4;
  cfg.ranks_per_node = 4;  // all ranks on one node share 2 MiB of DRAM
  cfg.policy = Policy::kUnimem;
  RunResult shared = run_once(cfg);
  cfg.ranks_per_node = 1;  // each rank gets its own 2 MiB node
  RunResult owned = run_once(cfg);
  EXPECT_DOUBLE_EQ(shared.checksum, owned.checksum);
  // Less DRAM per rank cannot make things faster.
  EXPECT_GE(shared.time_s, owned.time_s * 0.999);
}

TEST(Integration, XMenPlacementIsStatic) {
  RunConfig cfg = base_cfg("bt");
  cfg.policy = Policy::kXMen;
  RunResult r = run_once(cfg);
  // The measured pass runs under a manual placement: no Unimem stats.
  EXPECT_EQ(r.total_migrations, 0u);
  EXPECT_GT(r.time_s, 0.0);
}

TEST(Integration, UnimemCompetitiveWithXMenOnPhaseVaryingNek) {
  RunConfig cfg = base_cfg("nek");
  cfg.wcfg.cls = 'A';
  cfg.wcfg.iterations = 20;
  cfg.policy = Policy::kXMen;
  RunResult xmen = run_once(cfg);
  cfg.policy = Policy::kUnimem;
  RunResult uni = run_once(cfg);
  cfg.policy = Policy::kNvmOnly;
  RunResult nvm = run_once(cfg);
  // Paper §5 reports Unimem 10% better than X-Men on Nek5000.  This
  // reproduction does not show that win: at this class-A, 20-iteration
  // scale Unimem stays within 5% of X-Men, and on the full-scale `fig9`
  // nek point X-Men is ahead (normalized time 1.36 vs 1.57; see
  // baselines/xmen.h).  Both beat NVM-only decisively.  Note X-Men here is
  // granted exact (PIN-grade) profiles; Unimem works from sampled ones.
  EXPECT_LT(uni.time_s, xmen.time_s * 1.05);
  EXPECT_LT(uni.time_s, nvm.time_s);
}

TEST(Integration, ThreeTierTopologyRunsDeterministicallyWithSameChecksum) {
  // An explicit HBM+DRAM+NVM ladder through the full runtime: the MCKP
  // placement and multi-tier migration chains may never corrupt data
  // (checksums match the classic 2-tier run) and must be deterministic
  // across repeated runs.
  RunConfig cfg = base_cfg("cg");
  cfg.policy = Policy::kUnimem;
  RunResult classic = run_once(cfg);
  cfg.tiers = "hbm:1MiB,dram:2MiB,nvm:64MiB";
  RunResult a = run_once(cfg);
  RunResult b = run_once(cfg);
  EXPECT_DOUBLE_EQ(a.checksum, classic.checksum);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_GT(a.time_s, 0.0);
}

TEST(Integration, TierLadderNeverSlowerThanBackstopOnly) {
  // Giving the planner fast rungs cannot make things slower than leaving
  // everything in the backstop (the NVM-only reading of the same ladder).
  RunConfig cfg = base_cfg("mg");
  cfg.tiers = "hbm:1MiB,dram:2MiB,nvm:64MiB";
  cfg.policy = Policy::kNvmOnly;
  RunResult backstop = run_once(cfg);
  cfg.policy = Policy::kUnimem;
  RunResult uni = run_once(cfg);
  EXPECT_DOUBLE_EQ(uni.checksum, backstop.checksum);
  EXPECT_LE(uni.time_s, backstop.time_s * 1.02);
}

/// Every field of a RunResult, doubles as bit patterns, so EXPECT_EQ on
/// two fingerprints is bitwise equality.
std::vector<std::uint64_t> fingerprint(const RunResult& r) {
  auto bits = [](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };
  const rt::RuntimeStats& s = r.stats;
  return {bits(r.time_s), bits(r.checksum), r.total_migrations,
          r.total_bytes_moved, bits(r.mean_overhead_percent),
          bits(r.mean_overlap_percent), bits(r.total_copy_s),
          bits(r.total_exposed_s), bits(r.dag_critical_path_s),
          s.migration.migrations, s.migration.failed, s.migration.bytes_moved,
          bits(s.migration.copy_time_s), bits(s.migration.exposed_wait_s),
          bits(s.overhead_s), bits(s.total_time_s), s.phases_executed,
          s.iterations, s.reprofiles, static_cast<std::uint64_t>(s.plan_kind),
          s.planned_migrations_per_iteration, s.profile_samples,
          s.profile_attributed};
}

TEST(Integration, ClassicMachineIsTheTwoTierLadder) {
  // The classic fields (NVM ratios + DRAM allowance) and an explicit
  // 2-entry ladder with the same tiers build one machine: every policy
  // that plans or places on it gives a bitwise-equal result.
  mem::register_tier_backend("integration-nvm-half-bw", [](std::size_t c) {
    return mem::TierConfig::nvm_scaled(c, 0.5, 1.0);
  });
  for (const char* wl : {"cg", "nek"}) {
    for (Policy policy : {Policy::kUnimem, Policy::kNvmOnly}) {
      RunConfig classic = base_cfg(wl);
      classic.wcfg.cls = 'A';
      classic.policy = policy;
      classic.dram_capacity = 4 * kMiB;
      RunConfig ladder = classic;
      ladder.tiers = "dram:4MiB,integration-nvm-half-bw:1MiB";
      const RunResult a = run_once(classic);
      EXPECT_EQ(fingerprint(a), fingerprint(run_once(ladder)))
          << wl << " " << policy_name(policy);
      if (policy == Policy::kUnimem) {
        EXPECT_GT(a.total_migrations, 0u) << wl;
      }
    }
  }
}

TEST(Integration, XMenRejectedOnLadderDeeperThanTwoTiers) {
  // X-Men prices only the fastest tier against the backstop; on a 3-tier
  // ladder it would place into HBM with a DRAM+NVM model, so run_once
  // refuses the run.  Two tiers stay legal.
  RunConfig cfg = base_cfg("cg");
  cfg.policy = Policy::kXMen;
  cfg.tiers = "hbm:1MiB,dram:4MiB,nvm:512MiB";
  try {
    run_once(cfg);
    ADD_FAILURE() << "X-Men was accepted on a 3-tier ladder";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("X-Men"), std::string::npos)
        << e.what();
  }
  cfg.tiers = "dram:2MiB,nvm:64MiB";
  EXPECT_NO_THROW(run_once(cfg));
}

TEST(Integration, ManualRejectedOnLadderDeeperThanTwoTiers) {
  // Manual placement puts the manual_dram objects into tier 0; on a 3-tier
  // ladder that is HBM, so rows labelled as DRAM placements would describe
  // HBM ones.  run_once refuses the run; two tiers stay legal.
  RunConfig cfg = base_cfg("cg");
  cfg.policy = Policy::kManual;
  cfg.manual_dram = {"x"};
  cfg.tiers = "hbm:1MiB,dram:4MiB,nvm:512MiB";
  try {
    run_once(cfg);
    ADD_FAILURE() << "manual placement was accepted on a 3-tier ladder";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("manual_dram"), std::string::npos)
        << e.what();
  }
  cfg.tiers = "dram:2MiB,nvm:64MiB";
  EXPECT_NO_THROW(run_once(cfg));
}

TEST(Integration, TierLadderRejectsKnobsTheTieredPlannerIgnores) {
  // On more than 2 tiers every plan comes from the MCKP placement, which
  // reads neither the slack scheduler nor the Fig. 11 search switches:
  // run_once refuses them up front instead of running a World that
  // silently ignores them.
  RunConfig cfg = base_cfg("cg");
  cfg.policy = Policy::kUnimem;
  cfg.tiers = "hbm:1MiB,dram:2MiB,nvm:64MiB";
  auto expect_rejected = [](const RunConfig& c, const std::string& knob) {
    try {
      run_once(c);
      ADD_FAILURE() << knob << " was accepted on a 3-tier ladder";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
          << e.what();
    }
  };
  RunConfig slack = cfg;
  slack.unimem.dag_schedule = rt::DagSchedule::kSlack;
  expect_rejected(slack, "dag_schedule");
  RunConfig no_global = cfg;
  no_global.unimem.enable_global_search = false;
  expect_rejected(no_global, "enable_global_search");
  RunConfig no_local = cfg;
  no_local.unimem.enable_local_search = false;
  expect_rejected(no_local, "enable_local_search");

  // The same knobs stay legal where they act (2 tiers) or where no
  // planner runs (a static policy), and replan_epoch is honoured on any
  // ladder, so none of these throw.
  RunConfig two = slack;
  two.tiers = "dram:2MiB,nvm:64MiB";
  EXPECT_NO_THROW(run_once(two));
  RunConfig nvm = slack;
  nvm.policy = Policy::kNvmOnly;
  EXPECT_NO_THROW(run_once(nvm));
  RunConfig replan = cfg;
  replan.replan_epoch = 2;
  EXPECT_NO_THROW(run_once(replan));
}

TEST(Integration, ReplanWithChunkingOffIsRejected) {
  // The runtime never arms the re-planner under the chunking ablation, so
  // run_once refuses the pair instead of running a one-shot plan that
  // looks like an adaptive one — whichever field carries the epoch.
  RunConfig cfg = base_cfg("cg");
  cfg.policy = Policy::kUnimem;
  cfg.unimem.enable_chunking = false;
  auto expect_rejected = [](const RunConfig& c) {
    try {
      run_once(c);
      ADD_FAILURE() << "replan_epoch was accepted with chunking off";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("replan_epoch"), std::string::npos) << what;
      EXPECT_NE(what.find("enable_chunking"), std::string::npos) << what;
    }
  };
  RunConfig top = cfg;
  top.replan_epoch = 2;
  expect_rejected(top);
  RunConfig nested = cfg;
  nested.unimem.replan_epoch = 2;
  expect_rejected(nested);

  // Either knob alone acts, and a static policy never re-plans.
  EXPECT_NO_THROW(run_once(cfg));
  RunConfig chunked = top;
  chunked.unimem.enable_chunking = true;
  EXPECT_NO_THROW(run_once(chunked));
  RunConfig nvm = top;
  nvm.policy = Policy::kNvmOnly;
  EXPECT_NO_THROW(run_once(nvm));
}

}  // namespace
}  // namespace unimem::exp
