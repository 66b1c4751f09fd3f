#include "sweep/spec.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "sweep/baseline_cache.h"

namespace unimem::sweep {

namespace {

std::string policy_slug(exp::Policy p) {
  switch (p) {
    case exp::Policy::kDramOnly: return "dram-only";
    case exp::Policy::kNvmOnly: return "nvm-only";
    case exp::Policy::kUnimem: return "unimem";
    case exp::Policy::kXMen: return "xmen";
    case exp::Policy::kManual: return "manual";
  }
  return "?";
}

std::string fmt(const char* pattern, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, pattern, v);
  return buf;
}

/// Which axes change the timing of a point under the given policy.  Axes
/// a policy is insensitive to collapse to their first value, so a static
/// policy is not re-run once per irrelevant grid value (and the DRAM-only
/// machine, whose tiers all run at DRAM speed, ignores the NVM ratios).
struct AxisSensitivity {
  bool nvm_ratios;  ///< nvm_bw_ratio / nvm_lat_mult
  bool dram;        ///< dram_capacity
  bool techniques;  ///< Unimem switch sets
  bool profiler;    ///< profiler_periods (only Unimem profiles online)
  bool tiers;       ///< topologies (the DRAM-only machine ignores the ladder)
};

AxisSensitivity sensitivity(exp::Policy p) {
  switch (p) {
    case exp::Policy::kDramOnly:
      return {false, false, false, false, false};
    case exp::Policy::kNvmOnly: return {true, false, false, false, true};
    case exp::Policy::kUnimem: return {true, true, true, true, true};
    case exp::Policy::kXMen:
    case exp::Policy::kManual:
      return {true, true, false, false, true};
  }
  return {true, true, true, true, true};
}

/// Compact label segment for a topology spec: "hbm:1MiB,dram:4MiB" ->
/// "hbm1M-dram4M"; "" (the classic 2-tier machine) -> "classic".
std::string topology_slug(const std::string& topo) {
  if (topo.empty()) return "classic";
  std::string out;
  for (std::size_t i = 0; i < topo.size(); ++i) {
    const char c = topo[i];
    if (c == ':') continue;
    if (c == ',') {
      out += '-';
      continue;
    }
    if (c == 'i' || c == 'B') continue;  // MiB/KiB/GiB -> M/K/G
    out += c;
  }
  return out;
}

template <typename T>
std::vector<T> first_of(const std::vector<T>& v) {
  return v.empty() ? std::vector<T>{} : std::vector<T>{v.front()};
}

}  // namespace

std::vector<SweepPoint> SweepSpec::expand(const std::string& filter) const {
  std::vector<SweepPoint> out;
  std::size_t index = 0;

  auto emit = [&](const SweepPoint& p) {
    if (filter.empty() || p.label.find(filter) != std::string::npos)
      out.push_back(p);
  };

  for (const std::string& w : workloads) {
    for (exp::Policy policy : policies) {
      const AxisSensitivity sens = sensitivity(policy);
      const auto bws = sens.nvm_ratios ? nvm_bw_ratios : first_of(nvm_bw_ratios);
      const auto lats =
          sens.nvm_ratios ? nvm_lat_mults : first_of(nvm_lat_mults);
      const auto drams = sens.dram ? dram_capacities : first_of(dram_capacities);
      const auto techs = sens.techniques ? techniques : first_of(techniques);
      const auto profs =
          sens.profiler ? profiler_periods : first_of(profiler_periods);
      const auto topos = sens.tiers ? topologies : first_of(topologies);
      for (double bw : bws) {
        for (double lat : lats) {
          for (std::size_t dram : drams) {
            for (const TechniqueSet& tech : techs) {
              for (std::uint64_t prof : profs) {
                for (const std::string& topo : topos) {
                  SweepPoint p;
                  p.index = index++;
                  p.cfg.workload = w;
                  p.cfg.wcfg.cls = cls;
                  p.cfg.wcfg.iterations = iterations;
                  p.cfg.wcfg.nranks = nranks;
                  p.cfg.wcfg.drift_amplitude = drift_amplitude;
                  p.cfg.wcfg.drift_period = drift_period;
                  p.cfg.nvm_bw_ratio = bw;
                  p.cfg.nvm_lat_mult = lat;
                  p.cfg.dram_capacity = dram;
                  p.cfg.policy = policy;
                  p.cfg.unimem = unimem;
                  p.cfg.unimem.enable_global_search = tech.global_search;
                  p.cfg.unimem.enable_local_search = tech.local_search;
                  p.cfg.unimem.enable_chunking = tech.chunking;
                  p.cfg.unimem.enable_initial_placement =
                      tech.initial_placement;
                  p.cfg.unimem.sample_period = prof;
                  p.cfg.tiers = topo;
                  p.normalize = normalize;

                  p.axis["workload"] = w;
                  p.axis["policy"] = policy_slug(policy);
                  if (nvm_bw_ratios.size() > 1)
                    p.axis["bw"] = sens.nvm_ratios ? fmt("%.3g", bw) : "*";
                  if (nvm_lat_mults.size() > 1)
                    p.axis["lat"] = sens.nvm_ratios ? fmt("%.3g", lat) : "*";
                  if (dram_capacities.size() > 1)
                    p.axis["dram"] =
                        sens.dram ? std::to_string(dram / kMiB) + "MiB"
                                  : "*";
                  if (techniques.size() > 1)
                    p.axis["tech"] = sens.techniques ? tech.name : "*";
                  if (profiler_periods.size() > 1)
                    p.axis["prof"] =
                        !sens.profiler
                            ? "*"
                            : prof == 0 ? std::string("exact")
                                        : "s" + std::to_string(prof);
                  if (topologies.size() > 1)
                    p.axis["tiers"] = sens.tiers ? topology_slug(topo) : "*";

                  p.label = w + "/" + p.axis["policy"];
                  for (const char* key : {"bw", "lat", "dram", "tech",
                                          "prof", "tiers"}) {
                    auto it = p.axis.find(key);
                    if (it != p.axis.end() && it->second != "*")
                      p.label += "/" + std::string(key) + it->second;
                  }
                  emit(p);
                }
              }
            }
          }
        }
      }
    }
  }

  for (const ExplicitPoint& e : explicit_points) {
    SweepPoint p;
    p.index = index++;
    p.label = e.label;
    p.axis["workload"] = e.cfg.workload;
    p.axis["policy"] = policy_slug(e.cfg.policy);
    for (const auto& [k, v] : e.axis) p.axis[k] = v;
    p.cfg = e.cfg;
    p.normalize = e.normalize;
    emit(p);
  }
  return out;
}

std::size_t SweepSpec::size() const { return expand().size(); }

std::vector<std::string> SweepSpec::axis_names() const {
  std::vector<std::string> out;
  auto add = [&](const char* n) {
    if (std::find(out.begin(), out.end(), n) == out.end())
      out.push_back(n);
  };
  if (workloads.size() > 1) add("workload");
  if (policies.size() > 1) add("policy");
  if (nvm_bw_ratios.size() > 1) add("bw");
  if (nvm_lat_mults.size() > 1) add("lat");
  if (dram_capacities.size() > 1) add("dram");
  if (techniques.size() > 1) add("tech");
  if (profiler_periods.size() > 1) add("prof");
  if (topologies.size() > 1) add("tiers");
  // Explicit points contribute whatever pivot keys they carry (fig4's
  // "placement", fig12's "ranks", ...) — appended sorted after the grid
  // axes so the listing stays deterministic.
  std::vector<std::string> extra;
  for (const ExplicitPoint& e : explicit_points)
    for (const auto& [k, v] : e.axis) {
      if (std::find(out.begin(), out.end(), k) != out.end()) continue;
      if (std::find(extra.begin(), extra.end(), k) != extra.end()) continue;
      extra.push_back(k);
    }
  std::sort(extra.begin(), extra.end());
  for (std::string& k : extra) out.push_back(std::move(k));
  return out;
}

std::vector<SweepPoint> shard_slice(const std::vector<SweepPoint>& points,
                                    int shard, int nshards) {
  if (nshards < 1 || shard < 0 || shard >= nshards)
    throw std::invalid_argument("shard_slice: need 0 <= shard < nshards");
  // Deal whole baseline groups — points sharing BaselineService::key,
  // i.e. one memoized DRAM-only run — round-robin in first-seen order, so
  // the per-process caches of a sharded sweep never recompute a neighbor
  // shard's baseline (fig12's nvm-only and unimem rows of one rank count
  // stay together).  When shards outnumber groups that rule would leave
  // shards idle, so fall back to per-point round-robin there.
  std::unordered_map<std::string, std::size_t> group_of;
  std::vector<std::size_t> group(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    group[i] =
        group_of.emplace(BaselineService::key(points[i].cfg), group_of.size())
            .first->second;
  const bool by_group = group_of.size() >= static_cast<std::size_t>(nshards);
  std::vector<SweepPoint> out;
  for (std::size_t i = 0; i < points.size(); ++i)
    if ((by_group ? group[i] : i) % static_cast<std::size_t>(nshards) ==
        static_cast<std::size_t>(shard))
      out.push_back(points[i]);
  return out;
}

SweepSpec smoke_clamped(SweepSpec spec) {
  spec.cls = 'S';
  // Adaptive-re-planning specs need headroom for at least one full epoch
  // cycle (profile -> plan -> epoch wait -> epoch re-profile -> decision
  // at the next iteration top), or smoke/TSan runs would never reach the
  // replan path they exist to exercise: with two profiled iterations and
  // replan_epoch=E the first decision fires at iteration 4+E+1.
  const int epoch = spec.unimem.replan_epoch;
  const int iter_clamp = epoch > 0 ? 4 + epoch + 1 : 3;
  spec.iterations = std::min(spec.iterations, iter_clamp);
  spec.nranks = std::min(spec.nranks, 2);
  for (auto& e : spec.explicit_points) {
    e.cfg.wcfg.cls = 'S';
    e.cfg.wcfg.iterations = std::min(e.cfg.wcfg.iterations, iter_clamp);
    e.cfg.wcfg.nranks = std::min(e.cfg.wcfg.nranks, 2);
  }
  return spec;
}

bool smoke_requested() {
  return std::getenv("UNIMEM_BENCH_SMOKE") != nullptr;
}

namespace {

/// The six NPB kernels in the paper's presentation order; `with_nek`
/// appends Nek5000-eddy (Figs. 9-13 include it).
std::vector<std::string> npb(bool with_nek) {
  std::vector<std::string> w{"cg", "ft", "bt", "lu", "sp", "mg"};
  if (with_nek) w.push_back("nek");
  return w;
}

std::vector<TechniqueSet> cumulative_techniques() {
  return {
      {"(1)global", true, false, false, false},
      {"(1)+(2)local", true, true, false, false},
      {"+(3)chunking", true, true, true, false},
      {"+(4)initial", true, true, true, true},
  };
}

SweepSpec make_spec(const std::string& name) {
  SweepSpec s;
  s.name = name;
  if (name == "fig2") {
    s.title = "Fig. 2: NVM-only slowdown vs bandwidth";
    s.workloads = npb(false);
    s.policies = {exp::Policy::kNvmOnly};
    s.nvm_bw_ratios = {0.5, 0.25, 0.125};
  } else if (name == "fig3") {
    s.title = "Fig. 3: NVM-only slowdown vs latency";
    s.workloads = npb(false);
    s.policies = {exp::Policy::kNvmOnly};
    s.nvm_bw_ratios = {1.0};
    s.nvm_lat_mults = {2.0, 4.0, 8.0};
  } else if (name == "fig4") {
    // Explicit-only spec (paper Observation 3): per-point manual DRAM
    // placements on SP, two input classes x two NVM configurations.  The
    // DRAM-only reference row is the normalization baseline itself, so it
    // is not a point; the harness prints it as the constant 1.00.
    s.title = "Fig. 4: SP per-object placement";
    s.workloads = {};
    struct NvmCfg {
      const char* slug;
      double bw, lat;
    };
    const NvmCfg nvms[] = {{"bw0.5", 0.5, 1.0}, {"lat4", 1.0, 4.0}};
    const std::pair<const char*, std::vector<std::string>> sets[] = {
        {"in+out", {"in_buffer", "out_buffer"}},
        {"lhs", {"lhs"}},
        {"rhs", {"rhs"}},
    };
    for (char cls : {'C', 'D'}) {
      for (const NvmCfg& n : nvms) {
        exp::RunConfig base;
        base.workload = "sp";
        base.wcfg.cls = cls;
        base.nvm_bw_ratio = n.bw;
        base.nvm_lat_mult = n.lat;
        const std::map<std::string, std::string> axis{
            {"cls", std::string(1, cls)}, {"nvm", n.slug}};
        for (const auto& [slug, names] : sets) {
          SweepSpec::ExplicitPoint e;
          e.cfg = base;
          e.cfg.policy = exp::Policy::kManual;
          e.cfg.manual_dram = names;
          e.label =
              std::string("sp/manual/cls") + cls + "/" + n.slug + "/" + slug;
          e.axis = axis;
          e.axis["placement"] = slug;
          s.explicit_points.push_back(std::move(e));
        }
        SweepSpec::ExplicitPoint e;
        e.cfg = base;
        e.cfg.policy = exp::Policy::kNvmOnly;
        e.label = std::string("sp/nvm-only/cls") + cls + "/" + n.slug;
        e.axis = axis;
        e.axis["placement"] = "nvm-only";
        s.explicit_points.push_back(std::move(e));
      }
    }
  } else if (name == "fig9") {
    s.title = "Fig. 9: policies at NVM = 1/2 DRAM bandwidth";
    s.workloads = npb(true);
    s.policies = {exp::Policy::kNvmOnly, exp::Policy::kXMen,
                  exp::Policy::kUnimem};
  } else if (name == "fig10") {
    s.title = "Fig. 10: policies at NVM = 4x DRAM latency";
    s.workloads = npb(true);
    s.policies = {exp::Policy::kNvmOnly, exp::Policy::kXMen,
                  exp::Policy::kUnimem};
    s.nvm_bw_ratios = {1.0};
    s.nvm_lat_mults = {4.0};
  } else if (name == "fig11") {
    s.title = "Fig. 11: cumulative technique ablation at NVM = 1/2 bandwidth";
    s.workloads = npb(true);
    s.policies = {exp::Policy::kNvmOnly, exp::Policy::kUnimem};
    s.techniques = cumulative_techniques();
  } else if (name == "fig12") {
    // Explicit-only spec: CG strong scaling varies `nranks` per row
    // (2/4/8/16), NUMA-emulated NVM (0.6x bandwidth, 1.89x latency).
    // Each rank count gets its own DRAM-only baseline via the normal
    // normalization path (the BaselineService key includes nranks).
    s.title = "Fig. 12: CG strong scaling, NUMA-emulated NVM";
    s.workloads = {};
    for (int ranks : {2, 4, 8, 16}) {
      for (exp::Policy pol : {exp::Policy::kNvmOnly, exp::Policy::kUnimem}) {
        SweepSpec::ExplicitPoint e;
        e.cfg.workload = "cg";
        e.cfg.wcfg.cls = 'D';
        e.cfg.wcfg.nranks = ranks;
        e.cfg.nvm_bw_ratio = 0.60;  // the paper's NUMA emulation
        e.cfg.nvm_lat_mult = 1.89;
        e.cfg.policy = pol;
        e.label = std::string("cg/") +
                  (pol == exp::Policy::kNvmOnly ? "nvm-only" : "unimem") +
                  "/r" + std::to_string(ranks);
        e.axis["ranks"] = std::to_string(ranks);
        s.explicit_points.push_back(std::move(e));
      }
    }
  } else if (name == "fig13") {
    s.title = "Fig. 13: Unimem vs DRAM size at NVM = 1/2 bandwidth";
    s.workloads = npb(true);
    s.policies = {exp::Policy::kNvmOnly, exp::Policy::kUnimem};
    s.dram_capacities = {4 * kMiB, 8 * kMiB, 16 * kMiB};
  } else if (name == "replan_drift") {
    // Dynamic-workload scenario (not a paper figure): every point runs
    // with seeded per-phase weight drift injected (wl::DriftSchedule), and
    // the Unimem grid points run the adaptive re-planner on a 3-iteration
    // epoch cadence.  The explicit `*/unimem-static` points are the same
    // drifted runs with re-planning off — the one-shot-plan control the
    // adaptive runtime has to beat.
    s.title = "Adaptive re-planning under injected weight drift";
    s.workloads = {"cg", "mg", "nek"};
    s.policies = {exp::Policy::kNvmOnly, exp::Policy::kUnimem};
    s.iterations = 18;
    s.drift_amplitude = 0.35;
    s.drift_period = 3;
    s.unimem.replan_epoch = 3;
    s.unimem.drift_threshold = 0.15;
    // At this amplitude roughly a third of the units drift each window;
    // a 0.5 budget lets moderate windows take the incremental repair and
    // still kicks wholesale reshuffles to the full DP.
    s.unimem.drift_budget = 0.5;
    for (const std::string& w : s.workloads) {
      SweepSpec::ExplicitPoint e;
      e.cfg.workload = w;
      e.cfg.wcfg.cls = s.cls;
      e.cfg.wcfg.iterations = s.iterations;
      e.cfg.wcfg.nranks = s.nranks;
      e.cfg.wcfg.drift_amplitude = s.drift_amplitude;
      e.cfg.wcfg.drift_period = s.drift_period;
      e.cfg.policy = exp::Policy::kUnimem;
      // e.cfg.unimem keeps replan_epoch = 0: the control plans once and
      // never adapts.
      e.label = w + "/unimem-static";
      e.axis["mode"] = "static";
      s.explicit_points.push_back(std::move(e));
    }
  } else if (name == "profiler_fidelity") {
    // Sampled-tier fidelity matrix (not a paper figure): every workload
    // planned from the exact profile vs sampled profiles at several base
    // periods.  Normalized times pivot on the "prof" axis; a sampled
    // column near its exact column means the thinner evidence still
    // steered the knapsack to the same placement.
    s.title = "Profiler fidelity: sampled-plan vs exact-plan time";
    s.workloads = npb(true);
    s.policies = {exp::Policy::kUnimem};
    s.profiler_periods = {0, 16, 64, 256};
  } else if (name == "service_stress") {
    // Coordinator stress grid (not a paper figure): 10 bandwidths x 10
    // latencies x 100 DRAM capacities = 10,000 points of the cheapest
    // world we can run (class-S single-rank single-iteration CG under
    // manual placement with nothing placed), sized to exercise the
    // coordinator's dispatch, dead-worker re-dispatch and resume, not the
    // simulator.  Smoke CI runs a --filter slice through the real CLI, and
    // perfbench's tiny_worlds workload runs a seeded slice of it.
    s.title = "Sweep service stress: 10k-point synthetic campaign";
    s.workloads = {"cg"};
    s.policies = {exp::Policy::kManual};
    s.cls = 'S';
    s.iterations = 1;
    s.nranks = 1;
    s.normalize = false;
    s.nvm_bw_ratios.clear();
    s.nvm_lat_mults.clear();
    for (int i = 1; i <= 10; ++i) {
      s.nvm_bw_ratios.push_back(i / 10.0);
      s.nvm_lat_mults.push_back(static_cast<double>(i));
    }
    s.dram_capacities.clear();
    for (std::size_t m = 1; m <= 100; ++m)
      s.dram_capacities.push_back(m * kMiB);
  } else if (name == "tier_sensitivity3") {
    // Fig. 13-style sensitivity on a 3-tier machine (not a paper figure):
    // HBM+DRAM+NVM ladders whose fast-tier allowances scale together, so
    // the "tiers" column plays the role Fig. 13's DRAM-size axis plays on
    // the 2-tier machine.  NVM-only rows are the ladder's no-placement
    // control (everything sits in the backstop regardless of the ladder).
    s.title = "3-tier sensitivity: Unimem vs HBM+DRAM allowance";
    s.workloads = {"cg", "lu", "nek"};
    s.policies = {exp::Policy::kNvmOnly, exp::Policy::kUnimem};
    s.topologies = {"hbm:1MiB,dram:4MiB,nvm:512MiB",
                    "hbm:2MiB,dram:8MiB,nvm:512MiB",
                    "hbm:4MiB,dram:16MiB,nvm:512MiB"};
  } else if (name == "tier_ladder") {
    // Tier-ladder ablation (not a paper figure): the same workloads on the
    // classic 2-tier DRAM+NVM machine, a 3-tier HBM ladder, and a 4-tier
    // ladder that adds a CXL rung between DRAM and NVM.  The HBM+DRAM
    // allowance (10 MiB) stays comparable to the classic 8 MiB DRAM
    // allowance, so column differences isolate what an extra rung buys
    // (or costs) the multiple-choice placement.
    s.title = "Tier-ladder ablation: 2-, 3- and 4-tier machines";
    s.workloads = {"cg", "mg"};
    s.policies = {exp::Policy::kNvmOnly, exp::Policy::kUnimem};
    s.topologies = {"",
                    "hbm:2MiB,dram:8MiB,nvm:512MiB",
                    "hbm:2MiB,dram:8MiB,cxl:32MiB,nvm:512MiB"};
  } else if (name == "table4") {
    // Raw migration statistics (not normalized): one Unimem point per
    // workload at NVM = 1/2 bandwidth; the harness reads the row's
    // RunResult stats directly.
    s.title = "Table 4: migration details at NVM = 1/2 DRAM bandwidth";
    s.workloads = npb(true);
    s.normalize = false;
  }
  return s;
}

}  // namespace

std::vector<std::string> spec_names() {
  return {"fig2",  "fig3",  "fig4",   "fig9",         "fig10",
          "fig11", "fig12", "fig13",  "table4",       "replan_drift",
          "profiler_fidelity", "service_stress",
          "tier_sensitivity3", "tier_ladder"};
}

std::optional<SweepSpec> spec_by_name(const std::string& name) {
  for (const std::string& n : spec_names())
    if (n == name) return make_spec(name);
  return std::nullopt;
}

}  // namespace unimem::sweep
