// unimem_trace: convert, merge, filter, and summarize trace spills.
//
//   unimem_trace run.trace --json run.json        # Perfetto-loadable
//   unimem_trace a.trace b.trace --json all.json  # merge shards
//   unimem_trace run.trace --summary              # per-event rollup
//   unimem_trace run.trace --dag                  # phase critical path
//   unimem_trace run.trace --filter migration --print
//   unimem_trace run.trace --filter sweep --binary sweep-only.trace
//
// Inputs are binary spills ("UNIMTRC1") written by `unimem_sweep --trace
// FILE` (non-.json extension) or harvested per-task shards.  Multiple
// inputs are merged into one timeline: the first file's CLOCK_REALTIME
// epoch anchors the wall clock and later files' tracks are prefixed with
// "fileN/" so same-named threads from different processes stay apart.
//
// --filter matches CAT or CAT/NAME as a substring of "cat/name", e.g.
// "migration" keeps every migration event, "coordinator/task.redispatch"
// only the re-dispatches of failed points and dead workers' points.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/phase_dag.h"
#include "trace/export.h"

namespace {

void usage(std::FILE* out) {
  std::fputs(
      "usage: unimem_trace FILE... [options]\n"
      "\n"
      "options:\n"
      "  --json PATH     write Chrome trace-event JSON (Perfetto-loadable)\n"
      "  --binary PATH   write the merged/filtered trace as a binary spill\n"
      "  --summary       print a per-category/name rollup table\n"
      "  --dag           rebuild the phase DAG from runtime/phase spans and\n"
      "                  print per-rank slack plus the critical-path length\n"
      "  --print         print every event as one line\n"
      "  --filter STR    keep only events whose cat/name contains STR\n",
      out);
}

struct Args {
  std::vector<std::string> inputs;
  std::string json_out, binary_out, filter;
  bool summary = false, print = false, dag = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "unimem_trace: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (arg == "--summary") {
      a.summary = true;
    } else if (arg == "--dag") {
      a.dag = true;
    } else if (arg == "--print") {
      a.print = true;
    } else if (arg == "--json") {
      const char* v = value("--json");
      if (v == nullptr) return false;
      a.json_out = v;
    } else if (arg == "--binary") {
      const char* v = value("--binary");
      if (v == nullptr) return false;
      a.binary_out = v;
    } else if (arg == "--filter") {
      const char* v = value("--filter");
      if (v == nullptr) return false;
      a.filter = v;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unimem_trace: unknown option '%s'\n", arg.c_str());
      return false;
    } else {
      a.inputs.push_back(arg);
    }
  }
  if (a.inputs.empty()) {
    std::fprintf(stderr, "unimem_trace: no input files\n");
    return false;
  }
  if (a.json_out.empty() && a.binary_out.empty() && !a.summary && !a.print &&
      !a.dag) {
    a.summary = true;  // bare invocation: the rollup is the useful default
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using unimem::trace::TraceData;
  Args a;
  if (!parse(argc, argv, a)) {
    usage(stderr);
    return 1;
  }

  TraceData data;
  bool first = true;
  for (std::size_t i = 0; i < a.inputs.size(); ++i) {
    TraceData shard;
    if (!unimem::trace::read_binary(a.inputs[i], &shard)) {
      std::fprintf(stderr, "unimem_trace: cannot read %s (not a UNIMTRC1 "
                   "binary spill?)\n", a.inputs[i].c_str());
      return 1;
    }
    if (first) {
      data = std::move(shard);
      first = false;
    } else {
      unimem::trace::merge_into(&data, shard,
                                "file" + std::to_string(i) + "/");
    }
  }

  if (!a.filter.empty()) {
    std::vector<unimem::trace::TraceEventRow> kept;
    for (const auto& e : data.events) {
      const std::string key = data.str(e.cat) + "/" + data.str(e.name);
      if (key.find(a.filter) != std::string::npos) kept.push_back(e);
    }
    data.events = std::move(kept);
  }
  unimem::trace::sort_events(&data);

  if (a.print) {
    for (const auto& e : data.events) {
      std::printf("%12.6fms  %c  %-24s %-18s", e.wall_ns / 1e6, e.phase,
                  (data.str(e.cat) + "/" + data.str(e.name)).c_str(),
                  data.tracks[e.track < data.tracks.size() ? e.track : 0]
                      .name.c_str());
      if (e.vt >= 0) std::printf("  vt=%.6fs", e.vt);
      if (e.arg_name0 != 0)
        std::printf("  %s=%llu", data.str(e.arg_name0).c_str(),
                    static_cast<unsigned long long>(e.arg0));
      if (e.arg_name1 != 0)
        std::printf("  %s=%llu", data.str(e.arg_name1).c_str(),
                    static_cast<unsigned long long>(e.arg1));
      std::printf("\n");
    }
  }

  if (a.summary) {
    std::uint64_t truncated_total = 0;
    std::printf("%-32s %10s %14s %14s %10s\n", "event", "count",
                "wall_total_s", "vt_total_s", "truncated");
    for (const auto& row : unimem::trace::summarize(data)) {
      truncated_total += row.truncated;
      std::printf("%-32s %10llu %14.6f %14.6f %10llu\n",
                  (row.cat + "/" + row.name).c_str(),
                  static_cast<unsigned long long>(row.count),
                  row.wall_total_s, row.vt_total_s,
                  static_cast<unsigned long long>(row.truncated));
    }
    std::printf("%zu events on %zu tracks, %llu dropped, %llu truncated "
                "spans\n",
                data.events.size(), data.tracks.size(),
                static_cast<unsigned long long>(data.dropped),
                static_cast<unsigned long long>(truncated_total));
  }

  if (a.dag) {
    unimem::rt::PhaseDag dag = unimem::rt::PhaseDag::from_trace(data);
    if (!dag.compute()) {
      std::fprintf(stderr, "unimem_trace: --dag: no computable phase DAG "
                   "(trace has no runtime/phase spans?)\n");
      return 1;
    }
    // Per-rank rollup of the node table.
    std::map<int, std::pair<std::size_t, std::size_t>> per_rank;  // phases, crit
    double slack_total = 0;
    for (const auto& n : dag.nodes()) {
      auto& pr = per_rank[n.rank];
      ++pr.first;
      if (n.critical) ++pr.second;
      slack_total += n.slack_s;
    }
    std::printf("%-6s %8s %10s %14s\n", "rank", "phases", "critical",
                "slack_sum_s");
    for (const auto& [rank, pr] : per_rank) {
      double rank_slack = 0;
      for (const auto& n : dag.nodes())
        if (n.rank == rank) rank_slack += n.slack_s;
      std::printf("%-6d %8zu %10zu %14.6f\n", rank, pr.first, pr.second,
                  rank_slack);
    }
    std::printf("%zu nodes, %zu edges, total slack %.6fs, critical path "
                "%.6fs\n",
                dag.nodes().size(), dag.edges().size(), slack_total,
                dag.critical_path_s());
  }

  if (!a.json_out.empty() &&
      !unimem::trace::write_chrome_json(data, a.json_out)) {
    std::fprintf(stderr, "unimem_trace: cannot write %s\n",
                 a.json_out.c_str());
    return 1;
  }
  if (!a.binary_out.empty() &&
      !unimem::trace::write_binary(data, a.binary_out)) {
    std::fprintf(stderr, "unimem_trace: cannot write %s\n",
                 a.binary_out.c_str());
    return 1;
  }
  return 0;
}
