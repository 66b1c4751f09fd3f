#include "experiments/runner.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "baselines/static_context.h"
#include "baselines/xmen.h"
#include "trace/metrics.h"

namespace unimem::exp {

namespace {

struct Node {
  std::unique_ptr<mem::HeteroMemory> hms;
  std::unique_ptr<mem::DramArbiter> arbiter;
};

/// The machine a run describes, fastest tier first, with the spec'd
/// capacities of the constrained tiers as per-node allowances: the
/// explicit ladder, or the classic DRAM+NVM machine as its 2-entry ladder
/// (the backstop capacity is grown to fit by make_nodes).  The DRAM-only
/// machine runs its "NVM" tier at DRAM speed and ignores any ladder.
mem::TopologyConfig machine_topology(const RunConfig& cfg,
                                     bool dram_speed_everywhere) {
  if (!cfg.tiers.empty() && !dram_speed_everywhere)
    return mem::parse_topology(cfg.tiers);
  return mem::TopologyConfig::dram_nvm(
      mem::TierConfig::dram_basis(cfg.dram_capacity),
      dram_speed_everywhere
          ? mem::TierConfig::nvm_scaled(0, 1.0, 1.0)
          : mem::TierConfig::nvm_scaled(0, cfg.nvm_bw_ratio,
                                        cfg.nvm_lat_mult));
}

/// Build the per-node memory systems for a run.  The arbiter meters
/// exactly the allowances; every constrained tier's arena carries 2x
/// slack, because real allocations go through paged virtual memory and
/// are not defeated by physical contiguity at object granularity; the
/// backstop is grown to hold every rank's footprint with headroom for
/// migration churn.
std::vector<Node> make_nodes(const RunConfig& cfg, bool dram_speed_everywhere) {
  const int nnodes =
      (cfg.wcfg.nranks + cfg.ranks_per_node - 1) / cfg.ranks_per_node;
  const std::size_t nvm_cap =
      static_cast<std::size_t>(cfg.ranks_per_node) *
      (2 * cfg.wcfg.rank_bytes() + 32 * kMiB);
  mem::TopologyConfig topo = machine_topology(cfg, dram_speed_everywhere);
  std::vector<std::size_t> allowances(topo.num_tiers(),
                                      mem::DramArbiter::kUnbounded);
  for (std::size_t k = 0; k + 1 < topo.num_tiers(); ++k) {
    allowances[k] = topo.tiers[k].capacity_bytes;
    topo.tiers[k].capacity_bytes = 2 * topo.tiers[k].capacity_bytes + 4 * kMiB;
  }
  topo.tiers.back().capacity_bytes =
      std::max(topo.tiers.back().capacity_bytes, nvm_cap);
  std::vector<Node> nodes(static_cast<std::size_t>(nnodes));
  for (auto& n : nodes) {
    n.hms = std::make_unique<mem::HeteroMemory>(topo);
    n.arbiter = std::make_unique<mem::DramArbiter>(allowances);
  }
  return nodes;
}

struct PassResult {
  double time_s = 0;
  double checksum = 0;
  std::vector<rt::RuntimeStats> stats;
  std::map<std::string, baseline::ObjectProfile> profiles;  // offline pass
};

/// One full SPMD execution under a given placement mode.
PassResult run_pass(const RunConfig& cfg, Policy policy,
                    const std::vector<std::string>& manual_dram,
                    bool record_profile) {
  auto nodes = make_nodes(cfg, policy == Policy::kDramOnly);
  mpi::World world(cfg.wcfg.nranks, cfg.net, cfg.ranks_per_node);

  PassResult out;
  out.stats.resize(static_cast<std::size_t>(cfg.wcfg.nranks));
  std::vector<double> times(static_cast<std::size_t>(cfg.wcfg.nranks), 0.0);
  std::vector<double> sums(static_cast<std::size_t>(cfg.wcfg.nranks), 0.0);

  world.run([&](mpi::Comm& comm) {
    const int r = comm.rank();
    Node& node = nodes[static_cast<std::size_t>(comm.node())];
    auto workload = wl::make_workload(cfg.workload);

    if (policy == Policy::kUnimem) {
      rt::RuntimeOptions opts = cfg.unimem;
      opts.ranks_per_node = cfg.ranks_per_node;
      if (cfg.replan_epoch != 0) {
        opts.replan_epoch = cfg.replan_epoch;
        opts.drift_threshold = cfg.drift_threshold;
      }
      rt::Runtime runtime(opts, node.hms.get(), node.arbiter.get(), &comm);
      sums[r] = workload->run_rank(runtime, cfg.wcfg);
      out.stats[r] = runtime.stats();
      times[r] = comm.clock().now();
    } else {
      baseline::StaticContextOptions sopts;
      sopts.timing = cfg.unimem.timing;
      sopts.cache = cfg.unimem.cache;
      sopts.use_exact_cache = cfg.unimem.use_exact_cache;
      sopts.record_profile = record_profile;
      baseline::PlacementFn place;
      switch (policy) {
        case Policy::kDramOnly:
        case Policy::kNvmOnly:
          place = baseline::nvm_only();  // DRAM-only differs via tier speed
          break;
        default:
          place = baseline::manual(manual_dram);
          break;
      }
      baseline::StaticContext ctx(sopts, node.hms.get(), node.arbiter.get(),
                                  &comm, place);
      sums[r] = workload->run_rank(ctx, cfg.wcfg);
      times[r] = comm.clock().now();
      // Only rank 0 writes, and World::run joins every rank before the
      // caller reads it.
      if (record_profile && r == 0) out.profiles = ctx.profiles();
    }
  });

  out.time_s = *std::max_element(times.begin(), times.end());
  for (double s : sums) out.checksum += s;
  return out;
}

/// Name the first knob the run would ignore rather than run without it.
/// X-Men's placement model prices only the fastest tier against the
/// backstop, so on a deeper ladder it would place into the top rung with a
/// 2-tier model.  Manual placement puts its manual_dram objects into tier
/// 0, which on a deeper ladder is not DRAM.  The re-planner re-scores
/// single units, so the Runtime leaves it off when chunking is off (a
/// unit-level repair could split an all-or-nothing object group).
/// Planner::plan sends every >2-tier plan to plan_tiered, which reads none
/// of the search/DAG knobs.  (replan_epoch is fine on any ladder: the
/// re-planner re-solves there.)
void reject_ignored_knobs(const RunConfig& cfg) {
  if ((cfg.policy == Policy::kXMen || cfg.policy == Policy::kManual) &&
      !cfg.tiers.empty()) {
    const std::size_t tiers = mem::parse_topology(cfg.tiers).num_tiers();
    if (tiers > 2)
      throw std::invalid_argument(
          std::string("run_once: ") +
          (cfg.policy == Policy::kXMen
               ? "X-Men models a 2-tier machine only"
               : "manual placement puts manual_dram into tier 0, not DRAM,") +
          " on the " + std::to_string(tiers) + "-tier topology '" +
          cfg.tiers + "'; use 2 tiers");
  }
  if (cfg.policy != Policy::kUnimem) return;
  const rt::RuntimeOptions& u = cfg.unimem;
  const int epoch = cfg.replan_epoch != 0 ? cfg.replan_epoch : u.replan_epoch;
  if (epoch > 0 && !u.enable_chunking)
    throw std::invalid_argument(
        "run_once: replan_epoch=" + std::to_string(epoch) +
        " has no effect with enable_chunking=false (the re-planner stays "
        "off under the chunking ablation); drop one of the two knobs");
  if (cfg.tiers.empty()) return;
  const char* knob = !u.enable_global_search ? "enable_global_search=false"
                     : !u.enable_local_search ? "enable_local_search=false"
                                              : nullptr;
  if (knob == nullptr) return;
  const std::size_t tiers = mem::parse_topology(cfg.tiers).num_tiers();
  if (tiers <= 2) return;
  throw std::invalid_argument(
      std::string("run_once: ") + knob + " has no effect on the " +
      std::to_string(tiers) + "-tier topology '" + cfg.tiers +
      "' (the N-tier planner ignores it); drop the knob or use 2 tiers");
}

}  // namespace

RunResult run_once(const RunConfig& cfg) {
  reject_ignored_knobs(cfg);
  std::vector<std::string> manual = cfg.manual_dram;
  Policy policy = cfg.policy;

  if (policy == Policy::kXMen) {
    // Offline PIN-style profiling pass: everything in NVM, ground-truth
    // per-object aggregates recorded; then a static benefit-density
    // placement for the measured pass.
    RunConfig prof_cfg = cfg;
    prof_cfg.wcfg.iterations = std::max(2, cfg.wcfg.iterations / 4);
    PassResult prof =
        run_pass(prof_cfg, Policy::kNvmOnly, {}, /*record_profile=*/true);
    const mem::TopologyConfig topo = machine_topology(cfg, false);
    const mem::TierConfig& fast = topo.tiers.front();
    manual = baseline::xmen_placement(
        prof.profiles, fast, topo.tiers.back(),
        fast.capacity_bytes / static_cast<std::size_t>(cfg.ranks_per_node));
    policy = Policy::kManual;
  }

  PassResult pass = run_pass(cfg, policy, manual, false);

  RunResult out;
  out.time_s = pass.time_s;
  out.checksum = pass.checksum;
  if (!pass.stats.empty()) out.stats = pass.stats[0];
  double overhead = 0, overlap = 0;
  int n = 0;
  for (const rt::RuntimeStats& s : pass.stats) {
    out.total_migrations += s.migration.migrations;
    out.total_bytes_moved += s.migration.bytes_moved;
    out.total_copy_s += s.migration.copy_time_s;
    out.total_exposed_s += s.migration.exposed_migration_s();
    if (s.total_time_s > 0) {
      overhead += s.overhead_percent();
      overlap += s.migration.overlap_percent();
      ++n;
    }
  }
  if (n > 0) {
    out.mean_overhead_percent = overhead / n;
    out.mean_overlap_percent = overlap / n;
  }

  // Fold per-run tallies into the global registry (additive across the
  // runs of a sweep); the CLI snapshots this into --summary-json.
  auto& reg = trace::MetricsRegistry::global();
  reg.counter("runtime.migrations")->add(out.total_migrations);
  reg.counter("runtime.bytes_moved")->add(out.total_bytes_moved);
  std::uint64_t replan_checks = 0, repairs = 0, solves = 0, reprofiles = 0;
  for (const rt::RuntimeStats& s : pass.stats) {
    replan_checks += s.replan_checks;
    repairs += s.incremental_repairs;
    solves += s.full_replans;
    reprofiles += s.reprofiles;
  }
  reg.counter("runtime.replan_checks")->add(replan_checks);
  reg.counter("runtime.incremental_repairs")->add(repairs);
  reg.counter("runtime.full_replans")->add(solves);
  reg.counter("runtime.reprofiles")->add(reprofiles);
  reg.histogram("runtime.world_time_s")->observe(out.time_s);
  reg.histogram("runtime.migration_copy_s")->observe(out.total_copy_s);
  reg.histogram("runtime.migration_exposed_s")->observe(out.total_exposed_s);
  reg.histogram("runtime.migration_hidden_s")
      ->observe(out.total_copy_s - out.total_exposed_s);
  return out;
}

}  // namespace unimem::exp
