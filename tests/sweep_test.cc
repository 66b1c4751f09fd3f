// Sweep subsystem tests: spec expansion (cartesian order, axis collapse,
// filtering, smoke clamp), baseline memoization (key coverage,
// single-flight under concurrency), engine semantics (deterministic
// ordering, rank-bounded admission liveness, failure isolation), result
// serialization (JSONL/CSV), and the determinism regression the ISSUE
// demands: the same spec run with 1 and 8 jobs produces bitwise-identical
// time_s/checksum per point.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "experiments/report.h"
#include "sweep/baseline_cache.h"
#include "sweep/engine.h"
#include "sweep/result_store.h"
#include "sweep/spec.h"

namespace unimem::sweep {
namespace {

SweepSpec tiny_spec() {
  SweepSpec s;
  s.name = "tiny";
  s.workloads = {"cg", "ft"};
  s.policies = {exp::Policy::kNvmOnly, exp::Policy::kUnimem};
  s.nvm_bw_ratios = {0.5};
  s.cls = 'S';
  s.iterations = 2;
  s.nranks = 2;
  s.dram_capacities = {2 * kMiB};
  return s;
}

// ---- spec expansion -------------------------------------------------------

TEST(SweepSpec, CartesianExpansionIsStableAndLabeled) {
  SweepSpec s = *spec_by_name("fig13");
  const auto points = s.expand();
  // 7 workloads x (1 NVM-only with the DRAM axis collapsed + 3 Unimem
  // DRAM capacities).
  EXPECT_EQ(points.size(), 7u * 4u);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i);
  std::set<std::string> labels;
  for (const auto& p : points) labels.insert(p.label);
  EXPECT_EQ(labels.size(), points.size()) << "labels must be unique";
}

TEST(SweepSpec, InsensitiveAxesCollapsePerPolicy) {
  SweepSpec s = *spec_by_name("fig13");
  const auto points = s.expand();
  std::size_t nvm_points = 0;
  for (const auto& p : points) {
    if (p.axis.at("policy") == "nvm-only") {
      ++nvm_points;
      EXPECT_EQ(p.axis.at("dram"), "*");  // capacity-invariant timing
    } else {
      EXPECT_NE(p.axis.at("dram"), "*");
    }
  }
  EXPECT_EQ(nvm_points, 7u);
}

TEST(SweepSpec, TechniqueAxisOnlyMultipliesUnimemPoints) {
  SweepSpec s = *spec_by_name("fig11");
  const auto points = s.expand();
  EXPECT_EQ(points.size(), 7u * (1u + 4u));
  for (const auto& p : points) {
    if (p.axis.at("policy") == "unimem") {
      EXPECT_NE(p.axis.at("tech"), "*");
    } else {
      EXPECT_EQ(p.axis.at("tech"), "*");
    }
  }
}

TEST(SweepSpec, ProfilerAxisOnlyMultipliesUnimemPoints) {
  SweepSpec s = *spec_by_name("profiler_fidelity");
  const auto points = s.expand();
  // 7 workloads x 4 profiler periods, Unimem-only.
  EXPECT_EQ(points.size(), 7u * 4u);
  std::set<std::string> labels;
  for (const auto& p : points) {
    labels.insert(p.label);
    ASSERT_EQ(p.axis.at("policy"), "unimem");
    const std::string& prof = p.axis.at("prof");
    if (prof == "exact") {
      EXPECT_EQ(p.cfg.unimem.sample_period, 0u);
    } else {
      ASSERT_EQ(prof[0], 's') << prof;
      EXPECT_EQ(p.cfg.unimem.sample_period,
                static_cast<std::uint64_t>(std::stoull(prof.substr(1))));
    }
  }
  EXPECT_EQ(labels.size(), points.size()) << "labels must be unique";

  // A policy that never profiles must collapse the axis instead of
  // multiplying its points.
  SweepSpec mixed = s;
  mixed.workloads = {"cg"};
  mixed.policies = {exp::Policy::kNvmOnly, exp::Policy::kUnimem};
  std::size_t nvm_points = 0;
  for (const auto& p : mixed.expand()) {
    if (p.axis.at("policy") == "nvm-only") {
      ++nvm_points;
      EXPECT_EQ(p.axis.at("prof"), "*");
    } else {
      EXPECT_NE(p.axis.at("prof"), "*");
    }
  }
  EXPECT_EQ(nvm_points, 1u);
}

TEST(SweepSpec, TopologyAxisExpandsAndCollapses) {
  SweepSpec s = *spec_by_name("tier_ladder");
  const auto points = s.expand();
  // 2 workloads x 2 policies x 3 topologies; both policies are
  // tier-sensitive, so nothing collapses.
  EXPECT_EQ(points.size(), 2u * 2u * 3u);
  std::set<std::string> slugs;
  for (const auto& p : points) {
    slugs.insert(p.axis.at("tiers"));
    if (p.axis.at("tiers") == "classic") {
      EXPECT_TRUE(p.cfg.tiers.empty());
    } else {
      EXPECT_FALSE(p.cfg.tiers.empty());
    }
  }
  EXPECT_EQ(slugs, (std::set<std::string>{"classic", "hbm2M-dram8M-nvm512M",
                                          "hbm2M-dram8M-cxl32M-nvm512M"}));

  // A DRAM-only policy ignores the ladder entirely (its machine runs at
  // DRAM speed everywhere): the axis collapses to the first topology.
  SweepSpec mixed = s;
  mixed.workloads = {"cg"};
  mixed.policies = {exp::Policy::kDramOnly, exp::Policy::kUnimem};
  std::size_t dram_points = 0;
  for (const auto& p : mixed.expand()) {
    if (p.axis.at("policy") == "dram-only") {
      ++dram_points;
      EXPECT_EQ(p.axis.at("tiers"), "*");
      EXPECT_EQ(p.cfg.tiers, mixed.topologies.front());
    } else {
      EXPECT_NE(p.axis.at("tiers"), "*");
    }
  }
  EXPECT_EQ(dram_points, 1u);
}

TEST(SweepSpec, TierSensitivity3IsAFig13ShapedGrid) {
  SweepSpec s = *spec_by_name("tier_sensitivity3");
  const auto points = s.expand();
  EXPECT_EQ(points.size(), 3u * 2u * 3u);
  for (const auto& p : points) {
    // Every point runs an explicit 3-tier ladder (no classic rung here).
    ASSERT_FALSE(p.cfg.tiers.empty()) << p.label;
    EXPECT_EQ(p.cfg.tiers.find("hbm:"), 0u) << p.label;
  }
}

TEST(SweepSpec, AxisNamesReportTheVariedAxes) {
  EXPECT_EQ(spec_by_name("fig13")->axis_names(),
            (std::vector<std::string>{"workload", "policy", "dram"}));
  EXPECT_EQ(spec_by_name("tier_ladder")->axis_names(),
            (std::vector<std::string>{"workload", "policy", "tiers"}));
  EXPECT_EQ(spec_by_name("table4")->axis_names(),
            (std::vector<std::string>{"workload"}));
  // Explicit-only specs report their per-point pivot keys, sorted.
  EXPECT_EQ(spec_by_name("fig12")->axis_names(),
            (std::vector<std::string>{"ranks"}));
  EXPECT_EQ(spec_by_name("fig4")->axis_names(),
            (std::vector<std::string>{"cls", "nvm", "placement"}));
}

TEST(SweepSpec, FilterKeepsOriginalIndices) {
  SweepSpec s = *spec_by_name("fig2");
  const auto all = s.expand();
  const auto filtered = s.expand("lu/");
  ASSERT_FALSE(filtered.empty());
  EXPECT_LT(filtered.size(), all.size());
  for (const auto& p : filtered) {
    EXPECT_NE(p.label.find("lu/"), std::string::npos);
    EXPECT_EQ(all[p.index].label, p.label);  // index survives filtering
  }
}

TEST(SweepSpec, SmokeClampShrinksTheProblem) {
  SweepSpec s = *spec_by_name("fig11");
  SweepSpec clamped = smoke_clamped(s);
  EXPECT_EQ(clamped.cls, 'S');
  EXPECT_LE(clamped.iterations, 3);
  EXPECT_LE(clamped.nranks, 2);
  EXPECT_EQ(clamped.size(), s.size()) << "smoke shrinks points, not the grid";
}

TEST(SweepSpec, SmokeClampAlsoClampsExplicitPoints) {
  // The explicit-points specs carry per-point configs (fig4's manual
  // placements, fig12's 16-rank rows) that bypass the spec-level scalars;
  // the smoke clamp must reach into each of them or sweep-smoke runs the
  // full problem.
  for (const char* name : {"fig4", "fig12"}) {
    SweepSpec clamped = smoke_clamped(*spec_by_name(name));
    ASSERT_FALSE(clamped.explicit_points.empty()) << name;
    for (const auto& e : clamped.explicit_points) {
      EXPECT_EQ(e.cfg.wcfg.cls, 'S') << e.label;
      EXPECT_LE(e.cfg.wcfg.iterations, 3) << e.label;
      EXPECT_LE(e.cfg.wcfg.nranks, 2) << e.label;
    }
    EXPECT_EQ(clamped.size(), spec_by_name(name)->size())
        << "smoke shrinks points, not the table shape";
  }
}

TEST(SweepSpec, EveryRegisteredSpecExpands) {
  EXPECT_EQ(spec_names().size(), 14u);
  for (const std::string& name : spec_names()) {
    auto s = spec_by_name(name);
    ASSERT_TRUE(s.has_value()) << name;
    // Smallest real figure sweep is table4's 7 Unimem points.
    EXPECT_GE(s->size(), 7u) << name;
  }
  EXPECT_FALSE(spec_by_name("no-such-spec").has_value());
}

TEST(SweepSpec, ExplicitPointsAppendAfterGridWithUniqueLabels) {
  SweepSpec s = tiny_spec();  // 4 grid points
  SweepSpec::ExplicitPoint e;
  e.cfg.workload = "mg";
  e.cfg.wcfg.cls = 'S';
  e.cfg.policy = exp::Policy::kManual;
  e.cfg.manual_dram = {"u"};
  e.label = "mg/manual/extra1";
  e.axis = {{"placement", "u"}, {"policy", "overridden"}};
  s.explicit_points.push_back(e);
  e.label = "mg/manual/extra2";
  e.axis = {{"placement", "v"}};
  s.explicit_points.push_back(e);

  const auto points = s.expand();
  ASSERT_EQ(points.size(), 6u);
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(points[i].index, i) << "explicit indices continue the grid's";
  std::set<std::string> labels;
  for (const auto& p : points) labels.insert(p.label);
  EXPECT_EQ(labels.size(), points.size()) << "labels must be unique";

  // Explicit points land after every grid point, carry their full config,
  // and merge custom axis values over the automatic workload/policy keys.
  const SweepPoint& x = points[4];
  EXPECT_EQ(x.label, "mg/manual/extra1");
  EXPECT_EQ(x.cfg.workload, "mg");
  EXPECT_EQ(x.cfg.manual_dram, std::vector<std::string>{"u"});
  EXPECT_EQ(x.axis.at("workload"), "mg");
  EXPECT_EQ(x.axis.at("placement"), "u");
  EXPECT_EQ(x.axis.at("policy"), "overridden") << "custom axis wins";
  EXPECT_EQ(points[5].axis.at("policy"), "manual") << "auto key by default";
}

TEST(SweepSpec, Fig4SpecVariesManualPlacementsPerPoint) {
  SweepSpec s = *spec_by_name("fig4");
  const auto points = s.expand();
  // {C,D} x {bw0.5,lat4} x (3 placements + nvm-only), explicit-only.
  ASSERT_EQ(points.size(), 16u);
  EXPECT_TRUE(s.workloads.empty()) << "no grid points";
  std::size_t manual = 0;
  for (const auto& p : points) {
    EXPECT_EQ(p.cfg.workload, "sp");
    EXPECT_TRUE(p.normalize);
    ASSERT_TRUE(p.axis.count("cls") && p.axis.count("nvm") &&
                p.axis.count("placement"))
        << p.label;
    if (p.axis.at("policy") == "manual") {
      ++manual;
      EXPECT_FALSE(p.cfg.manual_dram.empty()) << p.label;
    } else {
      EXPECT_EQ(p.axis.at("policy"), "nvm-only");
      EXPECT_TRUE(p.cfg.manual_dram.empty()) << p.label;
    }
  }
  EXPECT_EQ(manual, 12u);
}

TEST(SweepSpec, Fig12SpecVariesRanksPerPoint) {
  SweepSpec s = *spec_by_name("fig12");
  const auto points = s.expand();
  ASSERT_EQ(points.size(), 8u);
  std::set<int> ranks;
  for (const auto& p : points) {
    EXPECT_EQ(p.cfg.workload, "cg");
    EXPECT_EQ(p.cfg.wcfg.cls, 'D');
    EXPECT_EQ(p.axis.at("ranks"), std::to_string(p.cfg.wcfg.nranks));
    ranks.insert(p.cfg.wcfg.nranks);
  }
  EXPECT_EQ(ranks, (std::set<int>{2, 4, 8, 16}));
}

TEST(SweepSpec, FilterKeepsOriginalIndicesForExplicitPoints) {
  SweepSpec s = *spec_by_name("fig4");
  const auto all = s.expand();
  const auto filtered = s.expand("/lhs");
  ASSERT_EQ(filtered.size(), 4u);  // one per (cls, nvm) group
  for (const auto& p : filtered) {
    EXPECT_NE(p.label.find("/lhs"), std::string::npos);
    EXPECT_EQ(all[p.index].label, p.label) << "index survives filtering";
  }
}

TEST(SweepSpec, ShardSlicesPartitionTheExpansionExactly) {
  for (const char* name : {"fig4", "fig12", "fig13", "table4"}) {
    const auto all = spec_by_name(name)->expand();
    for (int n : {1, 2, 3, 4, 7, 16}) {
      std::vector<std::size_t> seen;
      for (int i = 0; i < n; ++i) {
        const auto slice = shard_slice(all, i, n);
        std::size_t prev_index = 0;
        for (std::size_t k = 0; k < slice.size(); ++k) {
          // Slices preserve expansion order and original indices/labels.
          if (k > 0) {
            EXPECT_GT(slice[k].index, prev_index);
          }
          prev_index = slice[k].index;
          EXPECT_EQ(all[slice[k].index].label, slice[k].label);
          seen.push_back(slice[k].index);
        }
      }
      // No overlap, no gap: the N slices are exactly the expansion.
      std::sort(seen.begin(), seen.end());
      ASSERT_EQ(seen.size(), all.size()) << name << " N=" << n;
      for (std::size_t k = 0; k < seen.size(); ++k)
        EXPECT_EQ(seen[k], all[k].index);
    }
  }
  const auto all = spec_by_name("fig12")->expand();
  EXPECT_THROW(shard_slice(all, 0, 0), std::invalid_argument);
  EXPECT_THROW(shard_slice(all, -1, 2), std::invalid_argument);
  EXPECT_THROW(shard_slice(all, 2, 2), std::invalid_argument);
}

TEST(SweepSpec, ShardSlicesKeepBaselineGroupsTogether) {
  // As long as there are at least as many baseline groups as shards,
  // every group lands whole on one shard, so no shard recomputes a
  // neighbor's DRAM-only baseline (fig12: the nvm-only and unimem rows
  // of one rank count travel together).
  const auto all = spec_by_name("fig12")->expand();
  for (int n : {2, 4}) {
    std::map<std::string, int> shard_of_key;
    for (int i = 0; i < n; ++i)
      for (const auto& p : shard_slice(all, i, n)) {
        const std::string key = BaselineService::key(p.cfg);
        auto [it, fresh] = shard_of_key.emplace(key, i);
        EXPECT_EQ(it->second, i) << p.label << " split its baseline group";
      }
    EXPECT_EQ(shard_of_key.size(), 4u) << "one group per rank count";
  }
  // More shards than groups: falls back to per-point dealing so shards
  // do not sit idle (fig12 has 4 groups; 8 shards still all get a point).
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(shard_slice(all, i, 8).size(), 1u);
}

// ---- baseline service -----------------------------------------------------

TEST(BaselineService, KeyCoversTimingFieldsAndIgnoresNvmAxes) {
  exp::RunConfig a;
  a.workload = "cg";
  const std::string base = BaselineService::key(a);

  // Invariant axes: a DRAM-only run's time does not depend on these.
  exp::RunConfig b = a;
  b.nvm_bw_ratio = 0.125;
  b.nvm_lat_mult = 8.0;
  b.dram_capacity = 4 * kMiB;
  b.policy = exp::Policy::kUnimem;
  b.unimem.enable_chunking = false;
  EXPECT_EQ(BaselineService::key(b), base);

  // Sensitive fields: each must produce a distinct key.
  auto differs = [&](auto&& mutate) {
    exp::RunConfig c = a;
    mutate(c);
    return BaselineService::key(c) != base;
  };
  EXPECT_TRUE(differs([](exp::RunConfig& c) { c.workload = "ft"; }));
  EXPECT_TRUE(differs([](exp::RunConfig& c) { c.wcfg.cls = 'A'; }));
  EXPECT_TRUE(differs([](exp::RunConfig& c) { c.wcfg.iterations = 3; }));
  EXPECT_TRUE(differs([](exp::RunConfig& c) { c.wcfg.nranks = 8; }));
  EXPECT_TRUE(differs([](exp::RunConfig& c) { c.ranks_per_node = 2; }));
  EXPECT_TRUE(differs([](exp::RunConfig& c) { c.net.alpha_s = 5e-6; }));
  EXPECT_TRUE(differs([](exp::RunConfig& c) { c.net.beta_bps = 1e9; }));
  EXPECT_TRUE(
      differs([](exp::RunConfig& c) { c.unimem.timing.cpu_freq_hz = 3e9; }));
  EXPECT_TRUE(
      differs([](exp::RunConfig& c) { c.unimem.cache.size_bytes = 1 << 19; }));
  EXPECT_TRUE(differs([](exp::RunConfig& c) { c.unimem.use_exact_cache = true; }));
}

TEST(BaselineService, KeyIsShardStableAcrossPolicyVariants) {
  // Shard stability: every point of a figure group must resolve to the
  // same baseline key no matter which shard (process) computes it, so
  // normalization never depends on the expansion's partition.  fig4: a
  // manual-placement point and its nvm-only reference share one key;
  // fig12: the nvm-only and unimem points of one rank count share one
  // key, and different rank counts do not.
  const auto fig4 = spec_by_name("fig4")->expand();
  ASSERT_EQ(fig4.size(), 16u);
  for (std::size_t i = 1; i < 4; ++i)
    EXPECT_EQ(BaselineService::key(fig4[i].cfg), BaselineService::key(fig4[0].cfg))
        << fig4[i].label;

  const auto fig12 = spec_by_name("fig12")->expand();
  ASSERT_EQ(fig12.size(), 8u);
  EXPECT_EQ(BaselineService::key(fig12[0].cfg), BaselineService::key(fig12[1].cfg));
  EXPECT_NE(BaselineService::key(fig12[0].cfg), BaselineService::key(fig12[2].cfg))
      << "distinct rank counts need distinct baselines";
}

TEST(BaselineService, SingleFlightUnderConcurrentRequests) {
  std::atomic<int> runs{0};
  BaselineService svc([&](const exp::RunConfig& cfg) {
    runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    exp::RunResult r;
    r.time_s = 1.0 + cfg.nvm_bw_ratio;  // any deterministic value
    return r;
  });

  exp::RunConfig cfg;
  cfg.workload = "cg";
  std::vector<std::thread> threads;
  std::vector<double> seen(8, 0.0);
  for (int i = 0; i < 8; ++i)
    threads.emplace_back(
        [&, i] { seen[i] = svc.dram_baseline(cfg).time_s; });
  for (auto& t : threads) t.join();

  EXPECT_EQ(runs.load(), 1) << "one computation serves all waiters";
  EXPECT_EQ(svc.computed(), 1u);
  EXPECT_EQ(svc.requests(), 8u);
  for (double v : seen) EXPECT_EQ(v, seen[0]);

  exp::RunConfig other = cfg;
  other.workload = "ft";
  svc.dram_baseline(other);
  EXPECT_EQ(svc.computed(), 2u);
}

TEST(BaselineService, PropagatesFailuresToEveryWaiter) {
  BaselineService svc([](const exp::RunConfig&) -> exp::RunResult {
    throw std::runtime_error("baseline boom");
  });
  exp::RunConfig cfg;
  cfg.workload = "cg";
  EXPECT_THROW(svc.dram_baseline(cfg), std::runtime_error);
  // The failure is cached; a second request rethrows without recomputing.
  EXPECT_THROW(svc.dram_baseline(cfg), std::runtime_error);
  EXPECT_EQ(svc.computed(), 1u);
}

// ---- engine ---------------------------------------------------------------

TEST(SweepEngine, RunsABatchInPointOrderWithMemoizedBaselines) {
  SweepSpec s = tiny_spec();
  const auto points = s.expand();
  ASSERT_EQ(points.size(), 4u);  // {cg,ft} x {nvm-only,unimem}

  std::vector<std::size_t> completion_order;
  EngineOptions opts;
  opts.jobs = 4;
  opts.on_result = [&](const SweepRow& row) {
    completion_order.push_back(row.index);
  };
  SweepEngine engine(opts);
  const SweepOutcome out = engine.run(points);

  ASSERT_EQ(out.rows.size(), points.size());
  EXPECT_EQ(out.failed, 0u);
  EXPECT_EQ(completion_order.size(), points.size());
  for (std::size_t i = 0; i < out.rows.size(); ++i) {
    const SweepRow& r = out.rows[i];
    EXPECT_TRUE(r.ok) << r.label << ": " << r.error;
    EXPECT_EQ(r.index, points[i].index) << "rows land in point order";
    EXPECT_EQ(r.label, points[i].label);
    EXPECT_GT(r.result.time_s, 0.0);
    EXPECT_GT(r.baseline_time_s, 0.0);
    EXPECT_GT(r.normalized, 0.0);
    // Nothing meaningfully beats the DRAM-only machine (Unimem is allowed
    // the same 2% modeling slack integration_test grants it).
    EXPECT_GE(r.normalized, 0.98) << r.label;
  }
  // One DRAM-only baseline per workload, shared by both policies.
  EXPECT_EQ(out.baseline_requests, 4u);
  EXPECT_EQ(out.baseline_computed, 2u);
  EXPECT_EQ(out.worlds_executed, 4u + 2u);
}

TEST(SweepEngine, JobWiderThanTheRankBudgetStillRuns) {
  SweepSpec s = tiny_spec();
  s.workloads = {"cg"};
  s.policies = {exp::Policy::kNvmOnly};
  s.nranks = 4;  // wider than the 2-rank budget below
  EngineOptions opts;
  opts.jobs = 4;
  opts.max_inflight_ranks = 2;
  SweepEngine engine(opts);
  const SweepOutcome out = engine.run(s.expand());
  ASSERT_EQ(out.rows.size(), 1u);
  EXPECT_TRUE(out.rows[0].ok) << out.rows[0].error;
}

TEST(SweepEngine, FailingPointsAreIsolated) {
  SweepSpec s = tiny_spec();
  s.policies = {exp::Policy::kNvmOnly};
  SweepSpec::ExplicitPoint bad;
  bad.label = "bogus/point";
  bad.cfg.workload = "bogus";
  bad.cfg.wcfg.cls = 'S';
  bad.cfg.wcfg.iterations = 1;
  bad.cfg.wcfg.nranks = 1;
  bad.normalize = true;  // the baseline itself throws -> isolated too
  s.explicit_points.push_back(bad);

  EngineOptions opts;
  opts.jobs = 3;
  SweepEngine engine(opts);
  const SweepOutcome out = engine.run(s.expand());

  ASSERT_EQ(out.rows.size(), 3u);  // cg, ft, bogus
  EXPECT_EQ(out.failed, 1u);
  EXPECT_TRUE(out.rows[0].ok);
  EXPECT_TRUE(out.rows[1].ok);
  EXPECT_FALSE(out.rows[2].ok);
  EXPECT_NE(out.rows[2].error.find("unknown workload"), std::string::npos)
      << out.rows[2].error;
}

// The determinism regression: the same SweepSpec run with --jobs 1 and
// --jobs 8 produces bitwise-identical time_s/checksum per point.  This is
// what flushes out hidden shared mutable state between concurrent Worlds.
TEST(SweepEngine, SweepDeterminismAcrossJobCounts) {
  SweepSpec s = tiny_spec();
  s.workloads = {"cg", "mg"};
  s.nvm_bw_ratios = {0.5, 0.25};
  s.iterations = 3;
  const auto points = s.expand();
  ASSERT_EQ(points.size(), 8u);

  EngineOptions serial;
  serial.jobs = 1;
  SweepEngine e1(serial);
  const SweepOutcome a = e1.run(points);

  EngineOptions wide;
  wide.jobs = 8;
  SweepEngine e8(wide);
  const SweepOutcome b = e8.run(points);

  ASSERT_EQ(a.rows.size(), b.rows.size());
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    SCOPED_TRACE(a.rows[i].label);
    // Bitwise, not approximate: placement decisions, migration schedules
    // and virtual-time accounting must not feel neighboring Worlds.
    EXPECT_EQ(a.rows[i].result.time_s, b.rows[i].result.time_s);
    EXPECT_EQ(a.rows[i].result.checksum, b.rows[i].result.checksum);
    EXPECT_EQ(a.rows[i].baseline_time_s, b.rows[i].baseline_time_s);
    EXPECT_EQ(a.rows[i].normalized, b.rows[i].normalized);
    EXPECT_EQ(a.rows[i].result.total_migrations,
              b.rows[i].result.total_migrations);
  }
}

// The exact cache model is address-sensitive (set indexing by line
// address), so this config would catch any arena offset that depends on
// host timing rather than migration decision order.  Tight DRAM
// maximizes churn.
TEST(SweepEngine, DeterministicWithExactCacheAndTightDram) {
  SweepSpec s = tiny_spec();
  s.workloads = {"nek", "cg"};
  s.policies = {exp::Policy::kUnimem};
  s.iterations = 4;
  s.dram_capacities = {kMiB};
  s.unimem.use_exact_cache = true;
  const auto points = s.expand();
  ASSERT_EQ(points.size(), 2u);

  auto run_with_jobs = [&](int jobs) {
    EngineOptions o;
    o.jobs = jobs;
    SweepEngine e(o);
    return e.run(points);
  };
  const SweepOutcome a = run_with_jobs(1);
  const SweepOutcome b = run_with_jobs(4);
  const SweepOutcome c = run_with_jobs(1);  // cross-run, not just cross-jobs

  for (std::size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE(points[i].label);
    EXPECT_TRUE(a.rows[i].ok) << a.rows[i].error;
    EXPECT_EQ(a.rows[i].result.time_s, b.rows[i].result.time_s);
    EXPECT_EQ(a.rows[i].result.time_s, c.rows[i].result.time_s);
    EXPECT_EQ(a.rows[i].result.checksum, b.rows[i].result.checksum);
    EXPECT_EQ(a.rows[i].result.total_migrations,
              b.rows[i].result.total_migrations);
    EXPECT_EQ(a.rows[i].result.total_migrations,
              c.rows[i].result.total_migrations);
  }
}

// ---- golden determinism across execution topologies -----------------------

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Run `points` through one engine into CSV + point-ordered JSONL files;
/// returns {csv, jsonl} contents.
std::pair<std::string, std::string> run_to_files(
    const std::vector<SweepPoint>& points, int jobs, const std::string& tag) {
  const std::string dir = ::testing::TempDir();
  const std::string csv = dir + "/golden_" + tag + ".csv";
  const std::string jsonl = dir + "/golden_" + tag + ".jsonl";
  SweepResultStore store;
  store.write_csv_at_finish(csv);
  store.write_jsonl_at_finish(jsonl);
  EngineOptions opts;
  opts.jobs = jobs;
  opts.on_result = [&](const SweepRow& row) { store.add(row); };
  SweepEngine engine(opts);
  engine.run(points);
  store.finish();
  return {slurp(csv), slurp(jsonl)};
}

}  // namespace

// The archetype headline: PR 3's determinism invariant as a ctest, not a
// promise.  The fig12 and fig4 specs (explicit points with per-point
// nranks / manual_dram) run three ways — serial, 4-way threaded, and as a
// 2-way shard partition whose JSONL halves are merged back — and all
// three must produce byte-identical CSV/JSONL artifacts.
TEST(SweepGoldenDeterminism, Fig12AndFig4AcrossJobsAndShards) {
  for (const char* name : {"fig12", "fig4"}) {
    SCOPED_TRACE(name);
    const SweepSpec spec = smoke_clamped(*spec_by_name(name));
    const auto points = spec.expand();

    const auto [csv1, jsonl1] = run_to_files(points, 1, std::string(name) + "_j1");
    const auto [csv4, jsonl4] = run_to_files(points, 4, std::string(name) + "_j4");
    EXPECT_EQ(csv1, csv4);
    EXPECT_EQ(jsonl1, jsonl4);

    // 2-way sharded: each shard gets its own engine AND its own baseline
    // service (as separate processes would), streams its slice to JSONL;
    // the merge stitches the halves back into point order.
    const std::string dir = ::testing::TempDir();
    std::vector<std::string> shard_files;
    for (int shard = 0; shard < 2; ++shard) {
      const std::string path = dir + "/golden_" + name + "_shard" +
                               std::to_string(shard) + ".jsonl";
      SweepResultStore store;
      store.stream_jsonl(path);
      EngineOptions opts;
      opts.jobs = 2;
      opts.on_result = [&](const SweepRow& row) { store.add(row); };
      SweepEngine engine(opts);
      engine.run(shard_slice(points, shard, 2));
      store.finish();
      shard_files.push_back(path);
    }
    const std::string csv_m = dir + "/golden_" + name + "_merged.csv";
    const std::string jsonl_m = dir + "/golden_" + name + "_merged.jsonl";
    SweepResultStore merged;
    merged.write_csv_at_finish(csv_m);
    merged.write_jsonl_at_finish(jsonl_m);
    for (const SweepRow& r : merge_shards(shard_files)) merged.add(r);
    merged.finish();
    EXPECT_EQ(csv1, slurp(csv_m));
    EXPECT_EQ(jsonl1, slurp(jsonl_m));
  }
}

// Sampled profiling's determinism contract (sampling schedules seeded per
// (rank, phase, epoch), adaptive-rate updates only at iteration
// boundaries) must keep sweep artifacts a pure function of the spec.  One exact + one sampled point per workload of
// the smoke-clamped profiler_fidelity spec, run serial / 4-way threaded /
// 2-way sharded-and-merged — byte-identical every way.
TEST(SweepGoldenDeterminism, SampledProfilerAcrossJobsAndShards) {
  SweepSpec spec = smoke_clamped(*spec_by_name("profiler_fidelity"));
  spec.profiler_periods = {0, 64};  // exact + one sampled period per workload
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 7u * 2u);

  const auto [csv1, jsonl1] = run_to_files(points, 1, "proffid_j1");
  const auto [csv4, jsonl4] = run_to_files(points, 4, "proffid_j4");
  EXPECT_EQ(csv1, csv4);
  EXPECT_EQ(jsonl1, jsonl4);

  const std::string dir = ::testing::TempDir();
  std::vector<std::string> shard_files;
  for (int shard = 0; shard < 2; ++shard) {
    const std::string path =
        dir + "/golden_proffid_shard" + std::to_string(shard) + ".jsonl";
    SweepResultStore store;
    store.stream_jsonl(path);
    EngineOptions opts;
    opts.jobs = 2;
    opts.on_result = [&](const SweepRow& row) { store.add(row); };
    SweepEngine engine(opts);
    engine.run(shard_slice(points, shard, 2));
    store.finish();
    shard_files.push_back(path);
  }
  const std::string csv_m = dir + "/golden_proffid_merged.csv";
  const std::string jsonl_m = dir + "/golden_proffid_merged.jsonl";
  SweepResultStore merged;
  merged.write_csv_at_finish(csv_m);
  merged.write_jsonl_at_finish(jsonl_m);
  for (const SweepRow& r : merge_shards(shard_files)) merged.add(r);
  merged.finish();
  EXPECT_EQ(csv1, slurp(csv_m));
  EXPECT_EQ(jsonl1, slurp(jsonl_m));
}

// ---- result store ---------------------------------------------------------

SweepRow make_row(std::size_t index, bool ok) {
  SweepRow r;
  r.index = index;
  r.label = "cg/nvm-only/bw0.5#" + std::to_string(index);
  r.axis = {{"workload", "cg"}, {"policy", "nvm-only"}};
  r.ok = ok;
  if (!ok) r.error = "boom, with \"quotes\"";
  r.result.time_s = 0.125 * static_cast<double>(index + 1);
  r.result.checksum = 42.5;
  r.baseline_time_s = 0.125;
  r.normalized = static_cast<double>(index + 1);
  return r;
}

TEST(SweepResultStore, StreamsJsonlAndWritesSortedCsv) {
  const std::string dir = ::testing::TempDir();
  const std::string jsonl = dir + "/sweep_test_rows.jsonl";
  const std::string csv = dir + "/sweep_test_rows.csv";
  {
    SweepResultStore store;
    store.stream_jsonl(jsonl);
    store.write_csv_at_finish(csv);
    store.add(make_row(2, true));  // completion order != point order
    store.add(make_row(0, true));
    store.add(make_row(1, false));
    store.finish();
    ASSERT_EQ(store.rows().size(), 3u);
    EXPECT_EQ(store.rows()[0].index, 0u);  // finish() sorts by index
    EXPECT_EQ(store.rows()[2].index, 2u);
  }

  std::ifstream jf(jsonl);
  ASSERT_TRUE(jf.good());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(jf, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  // JSONL preserves completion order but carries the index.
  EXPECT_NE(lines[0].find("\"index\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"index\":0"), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[2].find("\\\"quotes\\\""), std::string::npos);

  std::ifstream cf(csv);
  ASSERT_TRUE(cf.good());
  std::vector<std::string> csv_lines;
  while (std::getline(cf, line)) csv_lines.push_back(line);
  ASSERT_EQ(csv_lines.size(), 4u);  // header + 3 rows in index order
  EXPECT_EQ(csv_lines[0].rfind("index,label,ok", 0), 0u);
  EXPECT_EQ(csv_lines[1].rfind("0,", 0), 0u);
  EXPECT_EQ(csv_lines[3].rfind("2,", 0), 0u);
  // The failed row's error was sanitized into a single record.
  EXPECT_EQ(std::count(csv_lines[2].begin(), csv_lines[2].end(), ','), 11);
}

TEST(SweepResultStore, JsonlRoundTripsExactly) {
  // parse_jsonl_line is the merge path's foundation: every row shape the
  // store can emit must reconstruct bit-identically (doubles included —
  // %.17g round-trips through strtod) and re-serialize to the same bytes.
  SweepRow normalized = make_row(3, true);
  SweepRow failed = make_row(7, false);  // error with escaped quotes
  failed.error += "\nsecond line\tand tab";
  SweepRow raw = make_row(0, true);  // no baseline -> fields omitted
  raw.baseline_time_s = 0;
  raw.normalized = 0;
  raw.axis.clear();
  for (const SweepRow& r : {normalized, failed, raw}) {
    const std::string line = SweepResultStore::jsonl_line(r);
    const SweepRow back = parse_jsonl_line(line);
    EXPECT_EQ(back.index, r.index);
    EXPECT_EQ(back.label, r.label);
    EXPECT_EQ(back.axis, r.axis);
    EXPECT_EQ(back.ok, r.ok);
    EXPECT_EQ(back.error, r.error);
    EXPECT_EQ(back.result.time_s, r.result.time_s);
    EXPECT_EQ(back.result.checksum, r.result.checksum);
    EXPECT_EQ(back.baseline_time_s, r.baseline_time_s);
    EXPECT_EQ(back.normalized, r.normalized);
    EXPECT_EQ(SweepResultStore::jsonl_line(back), line) << "byte round-trip";
  }
  EXPECT_THROW(parse_jsonl_line(""), std::runtime_error);
  EXPECT_THROW(parse_jsonl_line("{\"index\":oops"), std::runtime_error);
  EXPECT_THROW(
      parse_jsonl_line(SweepResultStore::jsonl_line(raw) + "trailing"),
      std::runtime_error);
  // Integers are digits only: no sign, no leading whitespace, no overflow
  // clamped to ULLONG_MAX.
  const std::string line = SweepResultStore::jsonl_line(raw);
  auto with = [&](const std::string& from, const std::string& to) {
    std::string s = line;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return s.replace(at, from.size(), to);
  };
  EXPECT_THROW(parse_jsonl_line(with("\"index\":0", "\"index\":-1")),
               std::runtime_error);
  EXPECT_THROW(
      parse_jsonl_line(with("\"migrations\":0", "\"migrations\":-3")),
      std::runtime_error);
  EXPECT_THROW(parse_jsonl_line(with("\"index\":0",
                                     "\"index\":99999999999999999999999")),
               std::runtime_error);
  EXPECT_THROW(parse_jsonl_line(with("\"index\":0", "\"index\": 7")),
               std::runtime_error);
  // Doubles only in the writer's own %.17g form: no leading whitespace,
  // no hex float, no other spelling of the same value.
  for (const char* time_s :
       {"\"time_s\": 0.5", "\"time_s\":0x1p-1", "\"time_s\":5e-1"})
    EXPECT_THROW(parse_jsonl_line(with("\"time_s\":0.125", time_s)),
                 std::runtime_error)
        << time_s;
}

TEST(SweepResultStore, FailureRowsStreamMergeAndStayPointOrdered) {
  // A point whose run throws must still produce a well-formed JSONL
  // record that survives the shard merge, and the merged CSV must keep
  // the failed row at its point position.
  SweepSpec s = tiny_spec();
  s.workloads = {"cg", "bogus", "ft"};  // point 1 of 3 fails
  s.policies = {exp::Policy::kNvmOnly};
  s.normalize = false;
  const auto points = s.expand();
  ASSERT_EQ(points.size(), 3u);

  const std::string dir = ::testing::TempDir();
  std::vector<std::string> shard_files;
  for (int shard = 0; shard < 2; ++shard) {
    const std::string path =
        dir + "/failrow_shard" + std::to_string(shard) + ".jsonl";
    SweepResultStore store;
    store.stream_jsonl(path);
    EngineOptions opts;
    opts.jobs = 2;
    opts.on_result = [&](const SweepRow& row) { store.add(row); };
    SweepEngine engine(opts);
    engine.run(shard_slice(points, shard, 2));
    store.finish();
    shard_files.push_back(path);
  }

  const std::vector<SweepRow> rows = merge_shards(shard_files);
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(rows[i].index, i) << "merged rows are point-ordered";
  EXPECT_TRUE(rows[0].ok);
  EXPECT_FALSE(rows[1].ok);
  EXPECT_NE(rows[1].error.find("unknown workload"), std::string::npos);
  EXPECT_TRUE(rows[2].ok);

  const std::string csv_path = dir + "/failrow_merged.csv";
  SweepResultStore merged;
  merged.write_csv_at_finish(csv_path);
  for (const SweepRow& r : rows) merged.add(r);
  merged.finish();
  std::ifstream cf(csv_path);
  ASSERT_TRUE(cf.good());
  std::string line;
  std::vector<std::string> csv_lines;
  while (std::getline(cf, line)) csv_lines.push_back(line);
  ASSERT_EQ(csv_lines.size(), 4u);
  EXPECT_EQ(csv_lines[2].rfind("1,", 0), 0u) << "failed row keeps its slot";
  EXPECT_NE(csv_lines[2].find(",0,"), std::string::npos);  // ok=0

  // Overlapping shard inputs (not a partition) are rejected loudly.
  EXPECT_THROW(merge_shards({shard_files[0], shard_files[0]}),
               std::runtime_error);
}

TEST(SweepResultStore, FindRowMatchesAxisSubsets) {
  std::vector<SweepRow> rows{make_row(0, true), make_row(1, true)};
  rows[1].axis["policy"] = "unimem";
  EXPECT_EQ(find_row(rows, {{"policy", "unimem"}}), &rows[1]);
  EXPECT_EQ(find_row(rows, {{"workload", "cg"}}), &rows[0]);
  EXPECT_EQ(find_row(rows, {{"workload", "ft"}}), nullptr);
  EXPECT_EQ(find_row(rows, {{"no-such-axis", "x"}}), nullptr);
}

// ---- exp::Report serialization (the satellite this PR adds) ---------------

TEST(Report, CsvAndJsonlSerialization) {
  exp::Report rep("Sweep Report: unit");
  rep.set_header({"benchmark", "value"});
  rep.add_row({"cg", "1.25"});
  rep.add_row({"ft", "2.50"});
  EXPECT_EQ(rep.to_csv(), "benchmark,value\ncg,1.25\nft,2.50\n");
  const std::string jsonl = rep.to_jsonl();
  EXPECT_NE(jsonl.find("{\"report\":\"Sweep Report: unit\",\"benchmark\":"
                       "\"cg\",\"value\":\"1.25\"}"),
            std::string::npos);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

TEST(Report, SlugsAreFilesystemSafeAndUniquePerProcess) {
  exp::Report a("Fig. X: some sweep (1/2 BW)");
  EXPECT_EQ(a.slug(), "fig-x-some-sweep-1-2-bw");
  EXPECT_EQ(a.slug(), a.slug()) << "stable per report";
  exp::Report b("Fig. X: some sweep (1/2 BW)");
  EXPECT_EQ(b.slug(), "fig-x-some-sweep-1-2-bw-2") << "no clobbering";
}

TEST(Report, EnvDrivenPerReportFiles) {
  const std::string dir = ::testing::TempDir();
  const std::string prefix = dir + "/report_env_test";
  ASSERT_EQ(setenv("UNIMEM_CSV", prefix.c_str(), 1), 0);
  ASSERT_EQ(setenv("UNIMEM_JSONL", prefix.c_str(), 1), 0);
  std::FILE* sink = std::fopen("/dev/null", "w");
  ASSERT_NE(sink, nullptr);
  {
    exp::Report rep("Env Report One");
    rep.set_header({"k"});
    rep.add_row({"v1"});
    rep.print(sink);
    exp::Report rep2("Env Report Two");
    rep2.set_header({"k"});
    rep2.add_row({"v2"});
    rep2.print(sink);
  }
  std::fclose(sink);
  unsetenv("UNIMEM_CSV");
  unsetenv("UNIMEM_JSONL");

  // Two reports, four files, nobody overwrote anybody.
  std::ifstream c1(prefix + "-env-report-one.csv");
  std::ifstream c2(prefix + "-env-report-two.csv");
  std::ifstream j1(prefix + "-env-report-one.jsonl");
  std::ifstream j2(prefix + "-env-report-two.jsonl");
  ASSERT_TRUE(c1.good());
  ASSERT_TRUE(c2.good());
  ASSERT_TRUE(j1.good());
  ASSERT_TRUE(j2.good());
  std::stringstream ss;
  ss << c1.rdbuf();
  EXPECT_EQ(ss.str(), "k\nv1\n");
  ss.str("");
  ss << j2.rdbuf();
  EXPECT_NE(ss.str().find("\"k\":\"v2\""), std::string::npos);
}

TEST(Report, EmptyEnvValueIsReportedNotHonoured) {
  // An empty value names no file prefix: one stderr line, and nothing but
  // the aligned table reaches the output stream.
  ASSERT_EQ(setenv("UNIMEM_CSV", "", 1), 0);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  ::testing::internal::CaptureStderr();
  {
    exp::Report rep("Empty Env Report");
    rep.set_header({"k"});
    rep.add_row({"v"});
    rep.print(out);
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  unsetenv("UNIMEM_CSV");
  EXPECT_NE(err.find("UNIMEM_CSV is empty"), std::string::npos) << err;
  EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  std::rewind(out);
  std::string printed;
  for (int c; (c = std::fgetc(out)) != EOF;) printed += static_cast<char>(c);
  std::fclose(out);
  EXPECT_EQ(printed.find("csv"), std::string::npos) << printed;
}

}  // namespace
}  // namespace unimem::sweep
