// unimem_sweep: batch experiment driver over the sweep subsystem.
//
//   unimem_sweep --list
//   unimem_sweep --spec fig13 --jobs 8
//   unimem_sweep --spec fig2 --filter cg --points
//   unimem_sweep --spec fig11 --jobs 4 --csv out.csv --jsonl out.jsonl
//                [--summary-json summary.json]
//   unimem_sweep --spec fig12 --launcher fork --workers 4   # 4 forked workers
//   unimem_sweep --spec fig12 --shard 0/2 --jsonl s0.jsonl   # one slice
//   unimem_sweep --merge s0.jsonl s1.jsonl --csv merged.csv  # stitch back
//   unimem_sweep --spec fig12 --resume --jsonl out.jsonl     # crash-restart
//
// Runs a named SweepSpec as one coordinator campaign
// (src/sweep/coordinator.h): one World per point, each task's SweepEngine
// bounding concurrency by simulated ranks in flight, DRAM-only
// normalization baselines memoized, results reported in deterministic
// spec order.  UNIMEM_BENCH_SMOKE=1 (or --smoke) shrinks the spec to
// smoke scale, same as the bench harnesses.
//
// Topology: `--jobs N` is one in-process worker running N jobs, and
// `--launcher inproc|fork|cmd[:PREFIX]` with `--workers N` runs one task
// per worker.  Every topology gets re-dispatch of the points of a worker
// that died, `--resume` crash-restart from an existing --jsonl artifact
// (it re-runs failed rows too), and a live `--summary-json` rewritten
// (atomically) after every task.  The cmd launcher re-invokes this binary
// (optionally through a PREFIX such as "ssh host") with
// `--indices ... --task-metrics`, so any transport that can run a command
// against a shared filesystem works.  Process-backed tasks spill their
// metrics registry, which the coordinator merges, so the summary's
// `sweep.*` counters cover every topology.
//
// Offline sharding: `--shard i/N` runs the i-th deterministic slice of
// the expansion (point indices stay those of the full expansion) and
// `--merge` stitches per-shard JSONL files back into the point-ordered
// CSV/JSONL.
//
// Every topology produces byte-identical CSV/JSONL to a single-process
// `--jobs 1` run (asserted by the sweep_shard_golden ctest).
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/log.h"
#include "sweep/coordinator.h"
#include "sweep/engine.h"
#include "sweep/launcher.h"
#include "simmem/tier_config.h"
#include "sweep/result_store.h"
#include "sweep/spec.h"
#include "trace/export.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace {

/// Version of the --summary-json document layout (see README "Summary
/// JSON schema").  Bump when fields change meaning or go away; adding
/// fields is compatible and does not bump.
constexpr int kSummarySchemaVersion = 4;

std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Export by extension: .json = Chrome trace-event (Perfetto-loadable),
/// anything else = the compact binary spill format.
bool export_trace(unimem::trace::TraceData data, const std::string& path) {
  unimem::trace::sort_events(&data);
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  return json ? unimem::trace::write_chrome_json(data, path)
              : unimem::trace::write_binary(data, path);
}

void usage(std::FILE* out) {
  std::fputs(
      "usage: unimem_sweep --spec NAME [options]\n"
      "       unimem_sweep --list\n"
      "\n"
      "options:\n"
      "  --spec NAME          built-in spec to run (see --list)\n"
      "  --jobs N             concurrent jobs per worker (default: hardware\n"
      "                       threads / workers)\n"
      "  --filter STR         run only points whose label contains STR\n"
      "  --indices I,J,...    run only the named expansion indices\n"
      "  --points             print the expanded point list and exit\n"
      "  --csv PATH           write the result table as CSV\n"
      "  --jsonl PATH         stream per-point results as JSONL\n"
      "  --summary-json PATH  write a machine-readable batch summary\n"
      "                       (rewritten live after every task)\n"
      "  --shard I/N          run only the I-th of N deterministic shard slices\n"
      "  --merge FILE...      stitch per-shard JSONL files into --csv/--jsonl\n"
      "                       (with --spec: verify the merge covers the spec)\n"
      "  --profiler exact|N   override the spec's profiling tier: exact, or\n"
      "                       sampled with base period N (collapses the prof axis)\n"
      "  --dag off|slack      override the spec's phase-DAG scheduling mode\n"
      "                       (collapses the dag axis)\n"
      "  --tiers SPEC         override the spec's memory topology: a\n"
      "                       parse_topology ladder such as\n"
      "                       hbm:1MiB,dram:4MiB,nvm:512MiB, or 'classic' for\n"
      "                       the 2-tier machine (collapses the tiers axis)\n"
      "  --launcher KIND      where tasks run: inproc, fork, or cmd[:PREFIX]\n"
      "                       (e.g. cmd:ssh host)\n"
      "  --workers N          coordinator worker slots, one task each\n"
      "                       (default 2; implies --launcher inproc if unset)\n"
      "  --resume             skip points already ok in the --jsonl artifact,\n"
      "                       re-run failed ones (tolerates a torn last line)\n"
      "  --trace PATH         record a span trace of the run; .json writes\n"
      "                       Chrome/Perfetto trace-event JSON, anything else\n"
      "                       the compact binary format (see unimem_trace)\n"
      "  --trace-buf N        per-thread trace ring capacity in events\n"
      "                       (default 16384; overflow drops, never blocks)\n"
      "  --smoke              clamp to smoke scale (same as UNIMEM_BENCH_SMOKE=1)\n"
      "  --quiet              suppress the stdout table\n"
      "\n"
      "internal (used by the cmd launcher):\n"
      "  --task-metrics PATH  run as one cmd-launcher task: rows to --jsonl,\n"
      "                       the task's metrics registry spilled to PATH\n",
      out);
}

/// Strict full-string signed parse: rejects empty strings, trailing
/// garbage ("16x"), and out-of-range values — unlike atoi/atol, which
/// accept all three silently.
bool parse_i64(const char* s, long long lo, long long hi, long long* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool parse_u64(const char* s, unsigned long long lo, unsigned long long hi,
               unsigned long long* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

struct Args {
  std::string spec;
  std::string filter;
  std::string profiler;  ///< --profiler exact|N ("" = spec default)
  std::string dag;       ///< --dag off|slack ("" = spec default)
  std::string tiers;     ///< --tiers SPEC|classic ("" = spec default)
  bool have_tiers = false;
  std::string csv, jsonl, summary_json;
  std::string launcher;      ///< "" = derived from --jobs/--workers
  std::string task_metrics;  ///< --task-metrics spill path ("" = no task)
  std::string trace;         ///< --trace output path ("" = tracing off)
  std::size_t trace_buf = 0;  ///< --trace-buf (0 = default ring)
  std::vector<std::string> merge_inputs;
  std::vector<std::size_t> indices;  ///< --indices selection ("" = all)
  bool have_indices = false;
  int jobs = 0;
  int shard = -1, nshards = 0;  ///< --shard I/N
  int workers = 0;  ///< 0 = default (2) under --launcher
  bool resume = false;
  bool list = false, points = false, smoke = false, quiet = false;
  bool merge = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "unimem_sweep: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    // Integer flags: one strict parse and one error format, "FLAG wants
    // WANTS (got 'V')".
    auto int_value = [&](const char* flag, long long lo, long long hi,
                         const char* wants, auto* out) {
      const char* v = value(flag);
      if (v == nullptr) return false;
      long long n = 0;
      if (!parse_i64(v, lo, hi, &n)) {
        std::fprintf(stderr, "unimem_sweep: %s wants %s (got '%s')\n", flag,
                     wants, v);
        return false;
      }
      *out = static_cast<std::remove_reference_t<decltype(*out)>>(n);
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (arg == "--list") {
      a.list = true;
    } else if (arg == "--points") {
      a.points = true;
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else if (arg == "--resume") {
      a.resume = true;
    } else if (arg == "--spec") {
      const char* v = value("--spec");
      if (v == nullptr) return false;
      a.spec = v;
    } else if (arg == "--filter") {
      const char* v = value("--filter");
      if (v == nullptr) return false;
      a.filter = v;
    } else if (arg == "--profiler") {
      const char* v = value("--profiler");
      if (v == nullptr) return false;
      a.profiler = v;
      unsigned long long period = 0;
      if (a.profiler != "exact" &&
          !parse_u64(v, 1, UINT64_MAX, &period)) {
        std::fprintf(stderr,
                     "unimem_sweep: --profiler wants 'exact' or a period N "
                     ">= 1 (got '%s')\n",
                     v);
        return false;
      }
    } else if (arg == "--dag") {
      const char* v = value("--dag");
      if (v == nullptr) return false;
      a.dag = v;
      if (a.dag != "off" && a.dag != "slack") {
        std::fprintf(stderr,
                     "unimem_sweep: --dag wants 'off' or 'slack' (got '%s')\n",
                     v);
        return false;
      }
    } else if (arg == "--tiers") {
      const char* v = value("--tiers");
      if (v == nullptr) return false;
      a.have_tiers = true;
      a.tiers = v;
      if (a.tiers == "classic") a.tiers.clear();
      if (!a.tiers.empty()) {
        try {
          (void)unimem::mem::parse_topology(a.tiers);
        } catch (const std::exception& e) {
          std::fprintf(stderr,
                       "unimem_sweep: --tiers wants 'classic' or a topology "
                       "like hbm:1MiB,dram:4MiB,nvm:512MiB (%s)\n",
                       e.what());
          return false;
        }
      }
    } else if (arg == "--csv") {
      const char* v = value("--csv");
      if (v == nullptr) return false;
      a.csv = v;
    } else if (arg == "--jsonl") {
      const char* v = value("--jsonl");
      if (v == nullptr) return false;
      a.jsonl = v;
    } else if (arg == "--summary-json") {
      const char* v = value("--summary-json");
      if (v == nullptr) return false;
      a.summary_json = v;
    } else if (arg == "--task-metrics") {
      const char* v = value("--task-metrics");
      if (v == nullptr) return false;
      a.task_metrics = v;
    } else if (arg == "--trace") {
      const char* v = value("--trace");
      if (v == nullptr) return false;
      a.trace = v;
    } else if (arg == "--trace-buf") {
      if (!int_value("--trace-buf", 1, 1ll << 30, "events in [1, 2^30]",
                     &a.trace_buf))
        return false;
    } else if (arg == "--launcher") {
      const char* v = value("--launcher");
      if (v == nullptr) return false;
      a.launcher = v;
      if (a.launcher != "inproc" && a.launcher != "fork" &&
          a.launcher != "cmd" && a.launcher.rfind("cmd:", 0) != 0) {
        std::fprintf(stderr,
                     "unimem_sweep: --launcher wants inproc, fork, or "
                     "cmd[:PREFIX] (got '%s')\n",
                     v);
        return false;
      }
    } else if (arg == "--jobs") {
      if (!int_value("--jobs", 0, 1 << 20, "an integer >= 0", &a.jobs))
        return false;
    } else if (arg == "--workers") {
      if (!int_value("--workers", 1, 1 << 16, "an integer >= 1", &a.workers))
        return false;
    } else if (arg == "--indices") {
      const char* v = value("--indices");
      if (v == nullptr) return false;
      a.have_indices = true;
      const std::string list = v;
      std::size_t start = 0;
      bool ok = !list.empty();
      while (ok && start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        unsigned long long idx = 0;
        ok = parse_u64(list.substr(start, comma - start).c_str(), 0,
                       SIZE_MAX, &idx);
        if (ok) a.indices.push_back(static_cast<std::size_t>(idx));
        start = comma + 1;
      }
      if (!ok) {
        std::fprintf(stderr, "unimem_sweep: --indices wants a comma-separated "
                     "integer list (got '%s')\n", v);
        return false;
      }
    } else if (arg == "--shard") {
      const char* v = value("--shard");
      if (v == nullptr) return false;
      int consumed = -1;
      if (std::sscanf(v, "%d/%d%n", &a.shard, &a.nshards, &consumed) != 2 ||
          consumed != static_cast<int>(std::strlen(v)) || a.shard < 0 ||
          a.nshards < 1 || a.shard >= a.nshards) {
        std::fprintf(stderr,
                     "unimem_sweep: --shard wants I/N with 0 <= I < N "
                     "(got '%s')\n",
                     v);
        return false;
      }
    } else if (arg == "--merge") {
      a.merge = true;
    } else if (a.merge && !arg.empty() && arg[0] != '-') {
      a.merge_inputs.push_back(arg);
    } else {
      std::fprintf(stderr, "unimem_sweep: unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  if (a.merge && a.merge_inputs.empty()) {
    std::fprintf(stderr, "unimem_sweep: --merge needs shard JSONL files\n");
    return false;
  }
  if (a.merge && a.shard >= 0) {
    std::fprintf(stderr, "unimem_sweep: --merge excludes --shard\n");
    return false;
  }
  // --workers only means something under --launcher; default it into the
  // cheapest launcher rather than silently ignoring it.
  if (a.launcher.empty() && a.workers > 0) a.launcher = "inproc";
  if (!a.launcher.empty() && a.shard >= 0) {
    std::fprintf(stderr,
                 "unimem_sweep: --launcher excludes --shard (the coordinator "
                 "owns the topology)\n");
    return false;
  }
  if (!a.task_metrics.empty() && a.jsonl.empty()) {
    std::fprintf(stderr, "unimem_sweep: --task-metrics needs --jsonl PATH "
                 "(the task's artifact)\n");
    return false;
  }
  if (a.resume && a.jsonl.empty()) {
    std::fprintf(stderr, "unimem_sweep: --resume needs --jsonl PATH (the "
                 "artifact to resume from)\n");
    return false;
  }
  return true;
}

/// Absolute path of this binary, for the cmd launcher's self-invocation.
std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

/// The cmd launcher's task command line: re-invoke this binary with the
/// run-shaping flags of `a` plus the task's points, artifact and spills.
std::vector<std::string> task_argv(const std::string& self, const Args& a,
                                   const unimem::sweep::LaunchTask& t) {
  std::vector<std::string> v{self, "--spec", a.spec, "--quiet"};
  auto flag = [&v](const char* name, const std::string& value) {
    v.push_back(name);
    v.push_back(value);
  };
  if (a.smoke) v.push_back("--smoke");
  if (!a.profiler.empty()) flag("--profiler", a.profiler);
  if (!a.dag.empty()) flag("--dag", a.dag);
  if (a.have_tiers) flag("--tiers", a.tiers.empty() ? "classic" : a.tiers);
  flag("--jobs", std::to_string(t.engine.jobs));
  if (!t.trace.empty()) {
    // Binary shard spilled next to the artifact; the coordinator
    // harvests and the parent stitches it into the campaign trace.
    flag("--trace", t.trace);
    flag("--trace-buf", std::to_string(t.trace_buf));
  }
  std::string idx;
  for (const unimem::sweep::SweepPoint& p : t.points) {
    if (!idx.empty()) idx += ',';
    idx += std::to_string(p.index);
  }
  flag("--indices", idx);
  flag("--jsonl", t.artifact);
  flag("--task-metrics", t.metrics);
  return v;
}

/// Counter "sweep.NAME" of a registry snapshot; 0 when never published.
unsigned long long sweep_counter(const unimem::trace::MetricsSnapshot& m,
                                 const char* name) {
  const auto it = m.counters.find(std::string("sweep.") + name);
  return it != m.counters.end() ? it->second : 0;
}

/// The one --summary-json writer.  Live (`o.complete` false): the
/// campaign counters so far, rewritten after every task.  Final: the same
/// fields plus the engine aggregates from the metrics registry,
/// finished_at and the registry snapshot.  Written to PATH.tmp and
/// renamed, so a reader never sees a torn file.
bool write_summary(const std::string& path, const Args& a,
                   const char* launcher,
                   const unimem::sweep::CampaignOutcome& o) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(
      f,
      "{\"schema_version\":%d,\"spec\":\"%s\",\"points\":%zu,"
      "\"done\":%zu,\"failed\":%zu,\"resumed\":%zu,\"tasks\":%zu,"
      "\"task_retries\":%zu,\"workers\":%d,\"launcher\":\"%s\","
      "\"complete\":%s,\"host_cpus\":%u",
      kSummarySchemaVersion, a.spec.c_str(), o.rows.size(), o.done, o.failed,
      o.resumed, o.tasks, o.task_retries, o.workers, launcher,
      o.complete ? "true" : "false", std::thread::hardware_concurrency());
  if (o.complete) {
    const unimem::trace::MetricsSnapshot m =
        unimem::trace::MetricsRegistry::global().snapshot();
    const auto jobs = m.histograms.find("sweep.jobs");
    std::fprintf(f,
                 ",\"jobs\":%d,\"wall_s\":%.6f,\"worlds_executed\":%llu,"
                 "\"baseline_requests\":%llu,\"baseline_computed\":%llu,"
                 "\"finished_at\":\"%s\",\"metrics\":%s",
                 jobs != m.histograms.end() ? static_cast<int>(jobs->second.max)
                                            : 0,
                 o.wall_s, sweep_counter(m, "worlds_executed"),
                 sweep_counter(m, "baseline_requests"),
                 sweep_counter(m, "baseline_computed"),
                 iso8601_utc_now().c_str(), m.to_json().c_str());
  }
  std::fputs("}\n", f);
  const bool ok = std::fclose(f) == 0;
  return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int run_cli(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unimem_sweep: %s\n", e.what());
    return 1;
  }
}

int run_cli(int argc, char** argv) {
  using namespace unimem;
  Args a;
  if (!parse(argc, argv, a)) {
    usage(stderr);
    return 1;
  }

  if (a.list) {
    std::printf("%-18s %-7s %-32s %s\n", "spec", "points", "axes", "title");
    for (const std::string& name : sweep::spec_names()) {
      sweep::SweepSpec s = *sweep::spec_by_name(name);
      if (a.smoke || sweep::smoke_requested()) s = sweep::smoke_clamped(s);
      std::string axes;
      for (const std::string& ax : s.axis_names()) {
        if (!axes.empty()) axes += ',';
        axes += ax;
      }
      if (axes.empty()) axes = "-";
      std::printf("%-18s %-7zu %-32s %s\n", name.c_str(), s.size(),
                  axes.c_str(), s.title.c_str());
    }
    return 0;
  }

  if (a.merge) {
    // Offline mode: no worlds run; per-shard JSONL rows are stitched back
    // into the point-ordered table (byte-identical to a single-process
    // run's outputs, since every row round-trips exactly).
    const std::vector<sweep::SweepRow> rows =
        sweep::merge_shards(a.merge_inputs);
    // merge_shards rejects overlapping shards; missing ones it cannot
    // tell from a filtered run, so cross-check against the spec when
    // named and otherwise at least flag index gaps.
    if (!a.spec.empty()) {
      auto spec = sweep::spec_by_name(a.spec);
      if (!spec) {
        std::fprintf(stderr, "unimem_sweep: unknown spec '%s' (try --list)\n",
                     a.spec.c_str());
        return 1;
      }
      if (a.smoke || sweep::smoke_requested()) *spec = sweep::smoke_clamped(*spec);
      const auto points = spec->expand(a.filter);
      bool complete = rows.size() == points.size();
      for (std::size_t i = 0; complete && i < rows.size(); ++i)
        complete = rows[i].index == points[i].index;
      if (!complete) {
        std::fprintf(stderr,
                     "unimem_sweep: merged rows (%zu) do not cover spec '%s' "
                     "(%zu points) — a shard file is missing or stale\n",
                     rows.size(), a.spec.c_str(), points.size());
        return 1;
      }
    } else if (!rows.empty() &&
               rows.back().index + 1 != rows.size()) {
      std::fprintf(stderr,
                   "unimem_sweep: warning: merged rows leave point indices "
                   "unfilled (fine for a filtered/partial sweep; otherwise a "
                   "shard file is missing — pass --spec to verify coverage)\n");
    }
    sweep::SweepResultStore store;
    if (!a.jsonl.empty()) store.stream_jsonl(a.jsonl);
    if (!a.csv.empty()) store.write_csv_at_finish(a.csv);
    std::size_t failed = 0;
    for (const sweep::SweepRow& r : rows) {
      if (!r.ok) ++failed;
      store.add(r);  // rows arrive point-ordered, so the stream is too
    }
    store.finish();
    if (!a.quiet)
      store
          .report("merged sweep [" + std::to_string(a.merge_inputs.size()) +
                  " shards, " + std::to_string(rows.size()) + " points]")
          .print();
    std::printf("\nmerge: %zu shard files, %zu points, %zu failed\n",
                a.merge_inputs.size(), rows.size(), failed);
    return failed == 0 ? 0 : 2;
  }

  if (a.spec.empty()) {
    usage(stderr);
    return 1;
  }
  auto spec = sweep::spec_by_name(a.spec);
  if (!spec) {
    std::fprintf(stderr, "unimem_sweep: unknown spec '%s' (try --list)\n",
                 a.spec.c_str());
    return 1;
  }
  if (a.smoke || sweep::smoke_requested()) *spec = sweep::smoke_clamped(*spec);
  if (!a.profiler.empty()) {
    // Collapse the profiling-tier axis to the requested value; explicit
    // points keep their own configs (they never carry the prof axis).
    unsigned long long period = 0;
    if (a.profiler != "exact")
      parse_u64(a.profiler.c_str(), 1, UINT64_MAX, &period);  // parse() vetted
    spec->profiler_periods = {static_cast<std::uint64_t>(period)};
  }
  if (!a.dag.empty()) {
    // Collapse the phase-DAG scheduling axis to the requested value.
    spec->dag_schedules = {a.dag == "slack" ? rt::DagSchedule::kSlack
                                            : rt::DagSchedule::kOff};
  }
  if (a.have_tiers) {
    // Collapse the memory-topology axis to the requested ladder ("" after
    // parse() = the classic 2-tier machine).
    spec->topologies = {a.tiers};
  }

  auto points = spec->expand(a.filter);
  if (points.empty()) {
    std::fprintf(stderr, "unimem_sweep: no points match filter '%s'\n",
                 a.filter.c_str());
    return 1;
  }
  if (a.have_indices) {
    // Select by expansion index (the cmd launcher's task vocabulary);
    // order follows the list so a task executes in its dispatch order.
    std::map<std::size_t, const sweep::SweepPoint*> by_index;
    for (const auto& p : points) by_index[p.index] = &p;
    std::vector<sweep::SweepPoint> picked;
    for (std::size_t idx : a.indices) {
      const auto it = by_index.find(idx);
      if (it == by_index.end()) {
        std::fprintf(stderr,
                     "unimem_sweep: --indices names point %zu, which the "
                     "expansion does not contain\n",
                     idx);
        return 1;
      }
      picked.push_back(*it->second);
    }
    points = std::move(picked);
  }
  // Slice after filtering; indices stay those of the full expansion, so a
  // later --merge reassembles the original table.  An empty slice (more
  // shards than points) is a valid degenerate partition member.
  if (a.shard >= 0) points = sweep::shard_slice(points, a.shard, a.nshards);

  if (a.points) {
    std::printf("%-5s %-6s %s\n", "index", "ranks", "label");
    for (const auto& p : points)
      std::printf("%-5zu %-6d %s%s\n", p.index, p.cfg.wcfg.nranks,
                  p.label.c_str(), p.normalize ? "  [normalized]" : "");
    std::printf("%zu points\n", points.size());
    return 0;
  }

  sweep::EngineOptions eopts;
  eopts.jobs = a.jobs;

  if (!a.task_metrics.empty()) {
    // One cmd-launcher task: the same body a fork worker runs.  Failed
    // rows are data in the artifact, so the exit code only says whether
    // the task ran to completion.
    sweep::LaunchTask task;
    task.points = std::move(points);
    task.artifact = a.jsonl;
    task.engine = eopts;
    task.metrics = a.task_metrics;
    task.trace = a.trace;
    task.trace_buf = a.trace_buf;
    sweep::run_task_to_artifact(task);
    return 0;
  }

  // Every run is a coordinator campaign: --jobs N is one in-process
  // worker running N jobs, and --launcher picks any topology.
  std::string kind = a.launcher;
  int workers = a.workers > 0 ? a.workers : 2;
  if (kind.empty()) {
    kind = "inproc";
    workers = 1;
  }
  if (eopts.jobs <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    eopts.jobs = std::max(1, static_cast<int>(hw) / workers);
  }

  std::unique_ptr<sweep::Launcher> launcher;
  if (kind == "inproc") {
    launcher = std::make_unique<sweep::InProcessLauncher>();
  } else if (kind == "fork") {
    launcher = std::make_unique<sweep::ForkLauncher>();
  } else {
    // cmd[:PREFIX]: re-invoke this binary (through the PREFIX tokens,
    // e.g. "ssh host") with --indices naming the task's points.
    std::vector<std::string> prefix;
    if (kind.rfind("cmd:", 0) == 0) {
      const std::string rest = kind.substr(4);
      std::size_t start = 0;
      while (start < rest.size()) {
        std::size_t sp = rest.find(' ', start);
        if (sp == std::string::npos) sp = rest.size();
        if (sp > start) prefix.push_back(rest.substr(start, sp - start));
        start = sp + 1;
      }
    }
    launcher = std::make_unique<sweep::CommandLauncher>(
        std::move(prefix),
        [self = self_exe(argv[0]), a](const sweep::LaunchTask& t) {
          return task_argv(self, a, t);
        });
  }

  // Resume: read the previous campaign's artifact BEFORE stream_jsonl
  // truncates it; the coordinator decides which rows count.
  sweep::CoordinatorOptions copts;
  if (a.resume && std::filesystem::exists(a.jsonl)) {
    std::size_t dropped = 0;
    copts.resume_rows = sweep::read_jsonl_tolerant(a.jsonl, &dropped);
    if (dropped != 0)
      Log::warn(
          "dropped a torn trailing line from %s (previous writer died "
          "mid-write); its point re-runs",
          a.jsonl.c_str());
  }

  if (!a.trace.empty()) trace::TraceRecorder::instance().start(a.trace_buf);

  // Rows stream to --jsonl as they finalize (tail-able mid-run, and what
  // a later --resume reads); finish() rewrites it in point order, which
  // keeps the artifact byte-identical across every topology.
  sweep::SweepResultStore store;
  if (!a.jsonl.empty()) {
    store.stream_jsonl(a.jsonl);
    store.write_jsonl_at_finish(a.jsonl);
  }
  if (!a.csv.empty()) store.write_csv_at_finish(a.csv);

  namespace fs = std::filesystem;
  std::string scratch =
      (fs::temp_directory_path() / "unimem_sweep.XXXXXX").string();
  if (mkdtemp(scratch.data()) == nullptr) {
    std::fprintf(stderr, "unimem_sweep: cannot create scratch dir\n");
    return 1;
  }

  copts.launcher = launcher.get();
  copts.workers = workers;
  copts.engine = eopts;
  copts.scratch_dir = scratch;
  copts.on_final_row = [&](const sweep::SweepRow& row) { store.add(row); };
  copts.on_progress = [&](const sweep::CampaignOutcome& o) {
    if (!a.summary_json.empty() && !o.complete)
      write_summary(a.summary_json, a, launcher->name(), o);
  };

  sweep::CampaignOutcome outcome;
  try {
    outcome = sweep::run_campaign(points, copts);
  } catch (...) {
    fs::remove_all(scratch);
    throw;
  }
  if (!a.trace.empty()) {
    // Stitch the coordinator's own events with every harvested task
    // shard (they live in scratch, so merge before removal).  Each
    // task's tracks get a "task-N/" prefix so per-worker rank threads
    // stay distinguishable in the stitched timeline.
    trace::TraceData merged = trace::TraceRecorder::instance().stop();
    for (const std::string& shard : outcome.trace_shards) {
      trace::TraceData sd;
      if (!trace::read_binary(shard, &sd)) {
        Log::warn("skipping unreadable trace shard %s", shard.c_str());
        continue;
      }
      std::string task = fs::path(shard).filename().string();
      const std::size_t dot = task.find('.');
      if (dot != std::string::npos) task.resize(dot);
      trace::merge_into(&merged, sd, task + "/");
    }
    if (!export_trace(std::move(merged), a.trace))
      Log::warn("cannot write trace %s", a.trace.c_str());
  }
  fs::remove_all(scratch);
  store.finish();

  if (!a.quiet) {
    store.report(spec->title + " [" + a.spec + ", " +
                 std::to_string(points.size()) + " points]")
        .print();
  }
  const trace::MetricsSnapshot m = trace::MetricsRegistry::global().snapshot();
  const unsigned long long requests = sweep_counter(m, "baseline_requests");
  std::printf(
      "\nsweep %s [%s, %d workers]: %zu points, %zu failed, %zu resumed, "
      "%zu tasks (%zu re-dispatched), %.2fs wall, %llu worlds executed, "
      "%llu/%llu baselines memoized\n",
      a.spec.c_str(), launcher->name(), outcome.workers, outcome.rows.size(),
      outcome.failed, outcome.resumed, outcome.tasks, outcome.task_retries,
      outcome.wall_s,
      sweep_counter(m, "worlds_executed"),
      requests - sweep_counter(m, "baseline_computed"), requests);

  if (!a.summary_json.empty() &&
      !write_summary(a.summary_json, a, launcher->name(), outcome)) {
    std::fprintf(stderr, "unimem_sweep: cannot write %s\n",
                 a.summary_json.c_str());
    return 1;
  }
  return outcome.failed == 0 ? 0 : 2;
}
