// Per-World cost benchmark driver.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--commit SHA]
//
// Runs one named workload as a closed loop: the point list (a registered
// sweep spec, permuted by the seed) goes through sweep::SweepEngine pass
// after pass, each pass with a fresh sweep::BaselineService.  The loop
// runs in kProcesses forked processes, one after another, each for its
// share of --seconds; the driver pools what they measured.  Every World's
// host wall time is taken in the engine's run_point hook and in the
// baseline Runner.  Every World's (time_s, checksum) must match its
// DRAM-only checksum and be bitwise identical in every pass and process,
// or it counts as failed and the driver exits non-zero.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 alternates
// untraced passes with traced ones (traced_world.h plus the trace
// recorder's planner, migration and profiler spans) and reports the
// per-layer ledger.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// perfbench/README.md defines every metric.
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "experiments/report.h"
#include "experiments/runner.h"
#include "stats.h"
#include "sweep/baseline_cache.h"
#include "sweep/engine.h"
#include "sweep/spec.h"
#include "trace/trace.h"
#include "traced_world.h"

namespace perfbench {
namespace {

namespace exp = unimem::exp;
namespace sweep = unimem::sweep;
namespace trace = unimem::trace;

struct WorkloadDef {
  const char* name;
  const char* spec;  ///< registered sweep spec
  /// Seeded stratified_slice: keep `per_group` of every `group_size`
  /// consecutive points; 0 = run the whole spec.
  std::size_t group_size;
  std::size_t per_group;
  /// Run Worlds concurrently: jobs = ranks in flight = max(2, nproc / 2).
  /// Half the host, not all of it: at full width the Worlds also queue
  /// behind whatever else shares the host, and that noise swamped the
  /// spread bounds.
  bool concurrent;
};

// Why each workload exists is recorded in perfbench/README.md.
constexpr WorkloadDef kWorkloads[] = {
    {"fig13_paper", "fig13", 0, 0, false},
    {"tier_ladder_mckp", "tier_ladder", 0, 0, false},
    // 10 of the 100 DRAM sizes of every (bw, lat) cell: 1000 points.
    {"tiny_worlds", "service_stress", 100, 10, true},
};

struct Args {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      for (const WorkloadDef& w : kWorkloads)
        if (v == w.name) a.workload = &w;
      if (a.workload == nullptr)
        throw std::invalid_argument("unknown workload '" + v + "'");
    } else if (flag == "--seed") {
      std::size_t used = 0;
      a.seed = std::stoull(v, &used);
      if (used != v.size()) throw std::invalid_argument("bad --seed " + v);
      have_seed = true;
    } else if (flag == "--seconds") {
      std::size_t used = 0;
      a.seconds = std::stod(v, &used);
      if (used != v.size() || !(a.seconds > 0) || a.seconds > 3600)
        throw std::invalid_argument("bad --seconds " + v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("bad --trace " + v);
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload == nullptr || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument(
        "usage: perfbench_driver --workload NAME --seed N --seconds S "
        "--trace 0|1 [--commit SHA]");
  return a;
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// (steal, total) host CPU time so far from the "cpu" line of /proc/stat:
/// time the hypervisor gave to other tenants, and all time (user through
/// steal).  (0, 0) where the file is unreadable.
std::pair<double, double> cpu_steal_total() {
  std::ifstream in("/proc/stat");
  std::string tag;
  in >> tag;
  double steal = 0, total = 0, v = 0;
  for (int i = 0; tag == "cpu" && i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

rusage self_rusage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

double tv_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) * 1e-3;
}

/// getrusage deltas over some passes.
struct Usage {
  double user_ms = 0, sys_ms = 0;
  double minflt = 0, nvcsw = 0, nivcsw = 0;

  void add(const rusage& a, const rusage& b) {
    user_ms += tv_ms(b.ru_utime) - tv_ms(a.ru_utime);
    sys_ms += tv_ms(b.ru_stime) - tv_ms(a.ru_stime);
    minflt += static_cast<double>(b.ru_minflt - a.ru_minflt);
    nvcsw += static_cast<double>(b.ru_nvcsw - a.ru_nvcsw);
    nivcsw += static_cast<double>(b.ru_nivcsw - a.ru_nivcsw);
  }
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ---------------------------------------------------------------------------
// Set-up

struct Setup {
  std::vector<sweep::SweepPoint> points;  ///< in execution order
  sweep::EngineOptions engine;
};

/// Expand the spec, take the seeded slice, force a DRAM-only baseline on
/// every point, permute by the seed, and run one untimed warm-up World
/// (the spec's first point, so set-up cost does not depend on the seed).
Setup set_up(const WorkloadDef& w, std::uint64_t seed, int nproc) {
  const std::optional<sweep::SweepSpec> spec = sweep::spec_by_name(w.spec);
  if (!spec) throw std::runtime_error(std::string("no spec ") + w.spec);
  std::vector<sweep::SweepPoint> all = spec->expand();
  if (all.empty()) throw std::runtime_error(std::string("empty spec ") + w.spec);
  (void)exp::run_once(all.front().cfg);

  std::vector<sweep::SweepPoint> picked;
  if (w.group_size == 0) {
    picked = std::move(all);
  } else {
    const std::size_t groups = all.size() / w.group_size;
    for (std::size_t i : stratified_slice(groups, w.group_size, w.per_group,
                                          seed)) {
      const exp::RunConfig& lead = all[i - i % w.group_size].cfg;
      if (all.size() % w.group_size != 0 ||
          all[i].cfg.nvm_bw_ratio != lead.nvm_bw_ratio ||
          all[i].cfg.nvm_lat_mult != lead.nvm_lat_mult)
        throw std::runtime_error(std::string("spec ") + w.spec +
                                 " no longer groups its points by (bw, lat)");
      picked.push_back(std::move(all[i]));
    }
  }
  Setup s;
  for (std::size_t i : execution_order(picked.size(), seed)) {
    s.points.push_back(std::move(picked[i]));
    s.points.back().normalize = true;
  }
  s.engine.jobs = w.concurrent ? std::max(2, nproc / 2) : 1;
  s.engine.max_inflight_ranks = w.concurrent ? s.engine.jobs : 0;
  return s;
}

// ---------------------------------------------------------------------------
// One pass

struct PassResult {
  sweep::SweepOutcome outcome;
  std::vector<double> world_ms;  ///< host wall of every completed World
  std::map<std::string, exp::RunResult> baselines;  ///< by BaselineService::key
  std::vector<WorldLedger> ledgers;                 ///< traced passes only
};

PassResult run_pass(const Setup& s, bool traced) {
  PassResult pr;
  std::mutex mu;
  auto run_world = [&](const exp::RunConfig& cfg) {
    WorldLedger ledger;
    const std::int64_t t0 = now_ns();
    exp::RunResult r =
        traced ? traced_run_once(cfg, &ledger) : exp::run_once(cfg);
    const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
    std::lock_guard<std::mutex> lk(mu);
    pr.world_ms.push_back(ms);
    if (traced) pr.ledgers.push_back(ledger);
    return r;
  };
  sweep::BaselineService baselines([&](const exp::RunConfig& cfg) {
    exp::RunResult r = run_world(cfg);
    std::lock_guard<std::mutex> lk(mu);
    pr.baselines[sweep::BaselineService::key(cfg)] = r;
    return r;
  });
  sweep::EngineOptions opts = s.engine;
  opts.run_point = [&](const sweep::SweepPoint& p, int) {
    return run_world(p.cfg);
  };
  sweep::SweepEngine engine(opts, &baselines);
  pr.outcome = engine.run(s.points);
  return pr;
}

// ---------------------------------------------------------------------------
// Correctness gate

struct Reference {
  std::vector<std::optional<exp::RunResult>> points;  ///< by position
  std::map<std::string, exp::RunResult> baselines;
};

bool same_result(const exp::RunResult& a, const exp::RunResult& b) {
  return same_bits(a.time_s, b.time_s) && same_bits(a.checksum, b.checksum);
}

/// Failed Worlds of one pass: a throwing point, a checksum that differs
/// from the DRAM-only World of the same config, or a (time_s, checksum)
/// that differs from the first pass's.  The first pass sets the reference.
std::size_t check_pass(const Setup& s, const PassResult& pr, Reference* ref,
                       std::string* first_error) {
  std::size_t failed = 0;
  auto fail = [&](const std::string& why) {
    ++failed;
    if (first_error->empty()) *first_error = why;
  };
  ref->points.resize(s.points.size());
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const sweep::SweepRow& row = pr.outcome.rows[i];
    const std::string& label = s.points[i].label;
    if (!row.ok) {
      fail(label + ": " + row.error);
      continue;
    }
    const auto base =
        pr.baselines.find(sweep::BaselineService::key(s.points[i].cfg));
    if (base == pr.baselines.end()) {
      fail(label + ": no DRAM-only baseline World ran");
      continue;
    }
    if (!same_bits(row.result.checksum, base->second.checksum)) {
      fail(label + ": checksum differs from the DRAM-only World");
      continue;
    }
    std::optional<exp::RunResult>& r = ref->points[i];
    if (!r) r = row.result;
    else if (!same_result(*r, row.result))
      fail(label + ": (time_s, checksum) differs from an earlier pass");
  }
  for (const auto& [key, result] : pr.baselines) {
    const auto it = ref->baselines.try_emplace(key, result).first;
    if (!same_result(it->second, result))
      fail("DRAM-only World " + key + " differs from an earlier pass");
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Trace spans

struct SpanTotal {
  double ns = 0;
  std::uint64_t count = 0;
};

/// Durations of matched begin/end spans, by "cat/name".
void add_spans(const trace::TraceData& d, std::map<std::string, SpanTotal>* out) {
  std::map<std::uint32_t, std::vector<const trace::TraceEventRow*>> open;
  for (const trace::TraceEventRow& e : d.events) {
    if (e.phase == 'B') {
      open[e.track].push_back(&e);
    } else if (e.phase == 'E') {
      auto& stack = open[e.track];
      if (stack.empty() || stack.back()->name != e.name) continue;
      SpanTotal& t = (*out)[d.str(e.cat) + "/" + d.str(e.name)];
      t.ns += static_cast<double>(e.wall_ns - stack.back()->wall_ns);
      ++t.count;
      stack.pop_back();
    }
  }
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

// ---------------------------------------------------------------------------
// One measurement process

using TimeAndSum = std::pair<double, double>;  ///< (time_s, checksum)

/// What one measurement process reports to the driver.
struct Measurement {
  std::size_t attempted = 0, failed = 0;
  std::string first_error;
  double setup_s = 0;
  std::vector<double> plain_ms;  ///< untraced World walls
  double plain_wall_s = 0;       ///< untraced pass walls, summed
  Usage plain_use;               ///< over the untraced passes
  double peak_rss_mib = 0;
  std::size_t traced_worlds = 0;
  double norm_geomean = 0;  ///< sim_norm_time_geomean
  double exposed_s = 0;     ///< sim_exposed_migration_s
  std::vector<Metric> layers;  ///< per-layer metrics (--trace 1)
  /// Every point's result (execution order; nullopt = failed) and every
  /// DRAM-only baseline's, for the identity check across processes.
  std::vector<std::optional<TimeAndSum>> points;
  std::map<std::string, TimeAndSum> baselines;
};

/// The closed loop of one process: set up once, then whole passes until
/// the next one would more likely end after `seconds` than before (at
/// least one pass; two with --trace 1, whose odd passes are traced).
Measurement measure(const Args& args, double seconds) {
  const WorkloadDef& w = *args.workload;
  Measurement m;
  const std::int64_t t0 = now_ns();
  const Setup setup = set_up(w, args.seed, host_cpus());
  m.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

  Reference ref;
  std::string& first_error = m.first_error;
  std::size_t& attempted = m.attempted;
  std::size_t& failed = m.failed;
  std::vector<double>& plain_ms = m.plain_ms;
  std::vector<double> traced_ms;
  Usage traced_use;
  double sweep_overhead_ns = 0;
  std::size_t baseline_requests = 0, baseline_hits = 0;
  std::vector<WorldLedger> ledgers;
  std::map<std::string, SpanTotal> spans;
  std::uint64_t dropped_events = 0;
  double traced_copy_s = 0, traced_exposed_s = 0, traced_bytes = 0;

  const std::int64_t start = now_ns();
  for (int pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    if (traced) trace::TraceRecorder::instance().start(1u << 16);
    const rusage u0 = self_rusage();
    PassResult pr = run_pass(setup, traced);
    const rusage u1 = self_rusage();
    attempted += pr.outcome.rows.size() + pr.outcome.baseline_computed;
    failed += check_pass(setup, pr, &ref, &first_error);
    if (traced) {
      const trace::TraceData data = trace::TraceRecorder::instance().stop();
      dropped_events += data.dropped;
      add_spans(data, &spans);
      traced_use.add(u0, u1);
      traced_ms.insert(traced_ms.end(), pr.world_ms.begin(), pr.world_ms.end());
      ledgers.insert(ledgers.end(), pr.ledgers.begin(), pr.ledgers.end());
      double in_world_ms = 0;
      for (double ms : pr.world_ms) in_world_ms += ms;
      sweep_overhead_ns += pr.outcome.wall_s * 1e9 * pr.outcome.jobs_used -
                           in_world_ms * 1e6;
      baseline_requests += pr.outcome.baseline_requests;
      baseline_hits +=
          pr.outcome.baseline_requests - pr.outcome.baseline_computed;
      for (const sweep::SweepRow& row : pr.outcome.rows) {
        traced_copy_s += row.result.total_copy_s;
        traced_exposed_s += row.result.total_exposed_s;
        traced_bytes += static_cast<double>(row.result.total_bytes_moved);
      }
    } else {
      m.plain_use.add(u0, u1);
      m.plain_wall_s += pr.outcome.wall_s;
      plain_ms.insert(plain_ms.end(), pr.world_ms.begin(), pr.world_ms.end());
    }
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (elapsed + 0.5 * pr.outcome.wall_s >= seconds &&
        (!args.trace || !traced_ms.empty()))
      break;
  }

  // Deterministic simulated results, from the reference pass.
  std::vector<double> norm;
  for (std::size_t i = 0; i < setup.points.size(); ++i) {
    const std::optional<exp::RunResult>& r = ref.points[i];
    m.points.push_back(r ? std::optional<TimeAndSum>({r->time_s, r->checksum})
                         : std::nullopt);
    if (!r) continue;
    const auto base =
        ref.baselines.find(sweep::BaselineService::key(setup.points[i].cfg));
    if (base != ref.baselines.end() && base->second.time_s > 0)
      norm.push_back(r->time_s / base->second.time_s);
    m.exposed_s += r->total_exposed_s;
  }
  for (const auto& [key, r] : ref.baselines)
    m.baselines[key] = {r.time_s, r.checksum};

  // Self-check of the traced run: the shim saw every op.
  std::uint64_t hooked = 0, comm_ops = 0;
  for (const WorldLedger& l : ledgers) {
    hooked += l.ranks.ops;
    comm_ops += l.ranks.comm_ops;
  }
  if (hooked != comm_ops) {
    ++failed;
    if (first_error.empty())
      first_error = "hook shim saw " + std::to_string(hooked) + " ops, Comm " +
                    "counted " + std::to_string(comm_ops);
  }
  if (dropped_events > 0)
    std::fprintf(stderr, "warning: trace recorder dropped %llu events\n",
                 static_cast<unsigned long long>(dropped_events));

  m.peak_rss_mib = static_cast<double>(self_rusage().ru_maxrss) / 1024.0;
  m.traced_worlds = traced_ms.size();
  if (!norm.empty()) m.norm_geomean = geomean(norm);

  std::vector<Metric>& out = m.layers;
  if (args.trace) {
    const double n = static_cast<double>(ledgers.size());
    double rank_worlds = 0;  // sum of nranks: rank-averaged time divisor
    RankLedger core, base, all;
    double setup_ns = 0, setup_flt = 0, spawn_ns = 0, join_ns = 0,
           teardown_ns = 0, wall_ns = 0, unattr_ns = 0;
    for (const WorldLedger& l : ledgers) {
      rank_worlds += l.nranks;
      (l.runtime ? core : base).add(l.ranks);
      all.add(l.ranks);
      setup_ns += l.setup_ns;
      setup_flt += static_cast<double>(l.setup_minflt);
      spawn_ns += l.spawn_ns;
      join_ns += l.join_ns;
      teardown_ns += l.teardown_ns;
      wall_ns += l.wall_ns;
      unattr_ns += unattributed(l.wall_ns, l.world_parts_ns(),
                                l.ranks.covered_ns(), l.nranks);
    }
    auto per_world_ms = [&](double ns) { return ns * 1e-6 / n; };
    auto rank_ms = [&](double ns) { return ns * 1e-6 / rank_worlds; };
    auto per_world = [&](double count) { return count / n; };
    auto span_ms = [&](const char* key) { return rank_ms(spans[key].ns); };
    auto ctx_metrics = [&](const std::string& p, const RankLedger& r) {
      out.push_back({p + ".ctor_ms", rank_ms(r.ctx.ctor_ns), "ms"});
      out.push_back({p + ".dtor_ms", rank_ms(r.ctx.dtor_ns), "ms"});
      out.push_back({p + ".malloc_ms", rank_ms(r.ctx.malloc_ns), "ms"});
      out.push_back({p + ".malloc_calls",
                     per_world(static_cast<double>(r.ctx.malloc_calls)),
                     "count"});
      out.push_back({p + ".compute_ms", rank_ms(r.ctx.compute_ns), "ms"});
      out.push_back({p + ".compute_calls",
                     per_world(static_cast<double>(r.ctx.compute_calls)),
                     "count"});
      out.push_back({p + ".phase_hook_ms", rank_ms(r.ctx.phase_hook_ns), "ms"});
      out.push_back({p + ".start_ms", rank_ms(r.ctx.start_ns), "ms"});
      out.push_back({p + ".iter_begin_ms", rank_ms(r.ctx.iter_begin_ns), "ms"});
      out.push_back({p + ".end_ms", rank_ms(r.ctx.end_ns), "ms"});
      out.push_back({p + ".free_ms", rank_ms(r.ctx.free_ns), "ms"});
    };
    const double traced_worlds = static_cast<double>(traced_ms.size());
    out = {
        {"sweep.overhead_ms_per_world", per_world_ms(sweep_overhead_ns), "ms"},
        {"sweep.baseline_hit_frac",
         baseline_requests ? static_cast<double>(baseline_hits) /
                                 static_cast<double>(baseline_requests)
                           : 0.0,
         "frac"},
        {"world.setup_ms", per_world_ms(setup_ns), "ms"},
        {"world.setup_minflt", per_world(setup_flt), "count"},
        {"world.spawn_ms", per_world_ms(spawn_ns), "ms"},
        {"world.join_ms", per_world_ms(join_ns), "ms"},
        {"world.teardown_ms", per_world_ms(teardown_ns), "ms"},
    };
    ctx_metrics("core", core);
    ctx_metrics("baselines", base);
    const double copy_ms = span_ms("migration/copy");
    out.insert(
        out.end(),
        {
            {"planner.solve_ms", span_ms("runtime/plan.solve"), "ms"},
            {"planner.solves",
             per_world(static_cast<double>(spans["runtime/plan.solve"].count)),
             "count"},
            {"migration.copy_ms", copy_ms, "ms"},
            {"migration.copies",
             per_world(static_cast<double>(spans["migration/copy"].count)),
             "count"},
            {"migration.bytes_moved", per_world(traced_bytes), "B"},
            {"migration.hidden_frac",
             traced_copy_s > 0 ? (traced_copy_s - traced_exposed_s) /
                                     traced_copy_s
                               : 0.0,
             "frac"},
            {"profiler.drain_ms", span_ms("profiler/drain"), "ms"},
            {"minimpi.op_ms", rank_ms(all.op_ns), "ms"},
            {"minimpi.ops", per_world(static_cast<double>(all.ops)), "count"},
            {"minimpi.wait_frac", all.body_ns > 0 ? all.op_ns / all.body_ns : 0,
             "frac"},
            {"workloads.init_ms", rank_ms(all.init_ns), "ms"},
            {"workloads.init_minflt",
             per_world(static_cast<double>(all.init_minflt)), "count"},
            {"workloads.kernel_ms", rank_ms(all.kernel_ns), "ms"},
            {"kernel.sys_user_ratio",
             traced_use.user_ms > 0 ? traced_use.sys_ms / traced_use.user_ms
                                    : 0.0,
             "ratio"},
            {"kernel.nvcsw_per_world", traced_use.nvcsw / traced_worlds,
             "count"},
            {"kernel.nivcsw_per_world", traced_use.nivcsw / traced_worlds,
             "count"},
            {"ledger.world_wall_ms", per_world_ms(wall_ns), "ms"},
            {"ledger.unattributed_frac", unattr_ns / wall_ns, "frac"},
            {"trace.overhead_frac",
             quantile(traced_ms, 0.5) / quantile(plain_ms, 0.5) - 1.0, "frac"},
            {"sim_exposed_migration_s", m.exposed_s, "sim_s"},
        });
  }
  return m;
}

// ---------------------------------------------------------------------------
// Measurement processes
//
// Which allocations a World can reuse depends on how the allocator's state
// evolved in its process (thread-to-arena assignment, heap layout), so one
// process settles into a cost regime that another may not.  A run
// therefore measures in kProcesses fresh processes, one after the other,
// and pools what they measured.

constexpr int kProcesses = 10;

std::string serialize(const Measurement& m) {
  std::string s;
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, " %a", v);
    s += buf;
  };
  s += "counts " + std::to_string(m.attempted) + " " +
       std::to_string(m.failed) + " " + std::to_string(m.traced_worlds) +
       "\nscalars";
  for (double v : {m.setup_s, m.plain_wall_s, m.peak_rss_mib, m.norm_geomean,
                   m.exposed_s, m.plain_use.user_ms, m.plain_use.sys_ms,
                   m.plain_use.minflt})
    num(v);
  s += "\nsamples";
  for (double v : m.plain_ms) num(v);
  s += "\n";
  for (const std::optional<TimeAndSum>& p : m.points) {
    s += "point";
    if (p) {
      num(p->first);
      num(p->second);
    } else {
      s += " - -";
    }
    s += "\n";
  }
  for (const auto& [key, r] : m.baselines) {
    s += "base " + key;
    num(r.first);
    num(r.second);
    s += "\n";
  }
  for (const Metric& x : m.layers) {
    s += "layer " + x.name;
    num(x.value);
    s += " " + x.unit + "\n";
  }
  if (!m.first_error.empty()) {
    std::string e = m.first_error;
    std::replace(e.begin(), e.end(), '\n', ' ');
    s += "error " + e + "\n";
  }
  return s;
}

double parse_num(std::istream& in) {
  std::string t;
  in >> t;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (t.empty() || *end != '\0')
    throw std::runtime_error("bad number '" + t +
                             "' from a measurement process");
  return v;
}

Measurement parse(const std::string& text) {
  Measurement m;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "counts") {
      ls >> m.attempted >> m.failed >> m.traced_worlds;
    } else if (tag == "scalars") {
      for (double* v : {&m.setup_s, &m.plain_wall_s, &m.peak_rss_mib,
                        &m.norm_geomean, &m.exposed_s, &m.plain_use.user_ms,
                        &m.plain_use.sys_ms, &m.plain_use.minflt})
        *v = parse_num(ls);
    } else if (tag == "samples") {
      while (ls >> std::ws && !ls.eof()) m.plain_ms.push_back(parse_num(ls));
      ls.clear();
    } else if (tag == "point") {
      if (line == "point - -") {
        m.points.emplace_back();
      } else {
        const double t = parse_num(ls);
        m.points.emplace_back(TimeAndSum{t, parse_num(ls)});
      }
    } else if (tag == "base") {
      std::string key;
      ls >> key;
      const double t = parse_num(ls);
      m.baselines[key] = {t, parse_num(ls)};
    } else if (tag == "layer") {
      Metric x;
      ls >> x.name;
      x.value = parse_num(ls);
      ls >> x.unit;
      m.layers.push_back(x);
    } else if (tag == "error") {
      std::getline(ls >> std::ws, m.first_error);
    } else {
      throw std::runtime_error("bad line from a measurement process: " + line);
    }
    if (!ls && tag != "error")
      throw std::runtime_error("bad line from a measurement process: " + line);
  }
  return m;
}

/// measure() in a forked child; the driver has started no threads yet.
Measurement measure_in_child(const Args& args, double seconds) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      const std::string s = serialize(measure(args, seconds));
      for (std::size_t off = 0; off < s.size();) {
        const ssize_t n = write(fds[1], s.data() + off, s.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          code = 3;
          break;
        }
        off += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
      code = 2;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("measurement process " +
                             sweep::describe_wait_status(status));
  return parse(text);
}

int run(const Args& args) {
  const WorkloadDef& w = *args.workload;
  std::printf("provenance {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"processes\": %d, "
              "\"nproc\": %d, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"commit\": \"%s\", "
              "\"model\": \"unvalidated (no reference measurements); the "
              "simulated LLC starts empty in every World\"}\n",
              w.name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kProcesses, host_cpus(),
              exp::json_escape(cpu_model()).c_str(),
              exp::json_escape(PERFBENCH_CXX_ID).c_str(), PERFBENCH_BUILD_TYPE,
              exp::json_escape(args.commit).c_str());

  // Measurement processes: kProcesses shares of --seconds, and more until
  // the pooled p90 has at least 10 samples beyond it (unless a process
  // completed no World at all).
  std::vector<Measurement> ms;
  std::size_t samples = 0;
  const std::pair<double, double> cpu0 = cpu_steal_total();
  while (static_cast<int>(ms.size()) < kProcesses ||
         (!args.trace && samples_beyond(samples, 0.9) < 10 &&
          !ms.back().plain_ms.empty())) {
    ms.push_back(measure_in_child(args, args.seconds / kProcesses));
    samples += ms.back().plain_ms.size();
  }

  // Correctness across processes: every World's (time_s, checksum) must
  // match the first process's.
  const Measurement& first = ms.front();
  std::size_t attempted = 0, failed = 0, traced_worlds = 0;
  std::string first_error;
  std::vector<double> plain_ms, setup_s;
  std::vector<double> peak_rss_mib;
  double plain_wall_s = 0;
  Usage use;
  for (const Measurement& m : ms) {
    attempted += m.attempted;
    failed += m.failed;
    traced_worlds += m.traced_worlds;
    if (first_error.empty()) first_error = m.first_error;
    if (m.points.size() != first.points.size() ||
        m.layers.size() != first.layers.size())
      throw std::runtime_error("measurement processes disagree on the setup");
    for (std::size_t i = 0; i < m.points.size(); ++i)
      if (m.points[i] && first.points[i] &&
          !(same_bits(m.points[i]->first, first.points[i]->first) &&
            same_bits(m.points[i]->second, first.points[i]->second))) {
        ++failed;
        if (first_error.empty())
          first_error = "point " + std::to_string(i) +
                        " differs between processes";
      }
    for (const auto& [key, r] : m.baselines) {
      const auto it = first.baselines.find(key);
      if (it != first.baselines.end() &&
          !(same_bits(r.first, it->second.first) &&
            same_bits(r.second, it->second.second))) {
        ++failed;
        if (first_error.empty())
          first_error = "DRAM-only World " + key + " differs between processes";
      }
    }
    plain_ms.insert(plain_ms.end(), m.plain_ms.begin(), m.plain_ms.end());
    setup_s.push_back(m.setup_s);
    plain_wall_s += m.plain_wall_s;
    peak_rss_mib.push_back(m.peak_rss_mib);
    use.user_ms += m.plain_use.user_ms;
    use.sys_ms += m.plain_use.sys_ms;
    use.minflt += m.plain_use.minflt;
  }
  const std::pair<double, double> cpu1 = cpu_steal_total();
  const double steal_frac = cpu1.second > cpu0.second
                                ? (cpu1.first - cpu0.first) /
                                      (cpu1.second - cpu0.second)
                                : 0.0;
  std::printf("host CPU time stolen by other tenants during the run: %.1f%% "
              "(wall-time metrics are unreliable when this is high)\n",
              100.0 * steal_frac);
  std::printf("%zu processes: %zu untraced + %zu traced Worlds in %zu-point "
              "passes; tail percentile with >=10 samples beyond: p%g\n",
              ms.size(), plain_ms.size(), traced_worlds, first.points.size(),
              tail_percentile(plain_ms.size()));

  std::vector<Metric> out;
  if (!args.trace) {
    const double worlds = static_cast<double>(plain_ms.size());
    out = {
        {"world_wall_ms_p50", quantile(plain_ms, 0.50), "ms"},
        {"world_wall_ms_p90", quantile(plain_ms, 0.90), "ms"},
        {"worlds_per_s", worlds / plain_wall_s, "1/s"},
        {"cpu_ms_per_world", (use.user_ms + use.sys_ms) / worlds, "ms"},
        {"minflt_per_world", use.minflt / worlds, "count"},
        {"peak_rss_mib", quantile(peak_rss_mib, 0.5), "MiB"},
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"sim_norm_time_geomean", first.norm_geomean, "ratio"},
    };
  } else {
    // Per-layer metrics: the mean over the processes.
    out = first.layers;
    for (std::size_t j = 0; j < out.size(); ++j) {
      double sum = 0;
      for (const Measurement& m : ms) sum += m.layers[j].value;
      out[j].value = sum / static_cast<double>(ms.size());
    }
    out.push_back({"kernel.host_steal_frac", steal_frac, "frac"});
  }

  std::printf("  %-32s %16.6f %s\n", "fail_frac",
              static_cast<double>(failed) / static_cast<double>(attempted),
              "frac");
  if (!args.trace)
    std::printf("  %-32s %16.6f %s\n", "sim_exposed_migration_s",
                first.exposed_s, "sim_s");
  print_metrics(out);

  const bool correct = failed == 0;
  if (!correct)
    std::fprintf(stderr, "correctness: %zu failed World(s); first: %s\n",
                 failed, first_error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
