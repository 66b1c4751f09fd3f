#include "core/phase_dag.h"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <string>

#include "trace/export.h"

namespace unimem::rt {

double PhaseDag::eps() const {
  return 1e-9 * std::max(1.0, critical_path_s_);
}

std::size_t PhaseDag::add_node(int rank, std::size_t phase, double duration_s,
                               bool is_comm) {
  const std::size_t idx = nodes_.size();
  Node n;
  n.rank = rank;
  n.phase = phase;
  n.duration_s = duration_s;
  n.is_comm = is_comm;
  nodes_.push_back(n);
  index_[{rank, phase}] = idx;
  computed_ = false;
  return idx;
}

void PhaseDag::add_edge(std::size_t from, std::size_t to) {
  if (from >= nodes_.size() || to >= nodes_.size() || from == to) return;
  edges_.emplace_back(from, to);
  computed_ = false;
}

bool PhaseDag::compute() {
  const std::size_t V = nodes_.size();
  std::vector<std::vector<std::size_t>> succs(V), preds(V);
  std::vector<std::size_t> indeg(V, 0);
  for (const auto& [u, v] : edges_) {
    succs[u].push_back(v);
    preds[v].push_back(u);
    ++indeg[v];
  }

  // Kahn in node-index order (deterministic for identical inputs).
  std::vector<std::size_t> topo;
  topo.reserve(V);
  std::vector<std::size_t> frontier;
  for (std::size_t v = 0; v < V; ++v)
    if (indeg[v] == 0) frontier.push_back(v);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::size_t u = frontier[head];
    topo.push_back(u);
    for (std::size_t v : succs[u])
      if (--indeg[v] == 0) frontier.push_back(v);
  }
  if (topo.size() != V) return false;  // cycle

  // Forward pass: earliest starts, then the makespan.
  for (Node& n : nodes_) n.earliest_s = 0;
  for (std::size_t u : topo)
    for (std::size_t v : succs[u])
      nodes_[v].earliest_s = std::max(
          nodes_[v].earliest_s, nodes_[u].earliest_s + nodes_[u].duration_s);
  critical_path_s_ = 0;
  for (const Node& n : nodes_)
    critical_path_s_ = std::max(critical_path_s_, n.earliest_s + n.duration_s);

  // Backward pass: latest starts against the global makespan, so a
  // disconnected shorter component reads as pure slack.
  for (Node& n : nodes_) n.latest_s = critical_path_s_ - n.duration_s;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const std::size_t v = *it;
    for (std::size_t u : preds[v])
      nodes_[u].latest_s = std::min(nodes_[u].latest_s,
                                    nodes_[v].latest_s - nodes_[u].duration_s);
  }
  computed_ = true;
  const double tol = eps();
  for (Node& n : nodes_) {
    n.slack_s = std::max(0.0, n.latest_s - n.earliest_s);
    n.critical = n.slack_s <= tol;
  }
  return true;
}

std::size_t PhaseDag::index_of(int rank, std::size_t phase) const {
  auto it = index_.find({rank, phase});
  return it == index_.end() ? static_cast<std::size_t>(-1) : it->second;
}

const PhaseDag::Node* PhaseDag::find(int rank, std::size_t phase) const {
  const std::size_t idx = index_of(rank, phase);
  return idx < nodes_.size() ? &nodes_[idx] : nullptr;
}

PhaseDag PhaseDag::from_profile(
    const std::vector<std::vector<double>>& durations,
    const std::vector<std::vector<char>>& kinds) {
  PhaseDag dag;
  const std::size_t R = durations.size();
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t p = 0; p < durations[r].size(); ++p) {
      const bool comm =
          r < kinds.size() && p < kinds[r].size() && kinds[r][p] != 0;
      dag.add_node(static_cast<int>(r), p, durations[r][p], comm);
    }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t p = 1; p < durations[r].size(); ++p) {
      const std::size_t to = dag.index_of(static_cast<int>(r), p);
      dag.add_edge(dag.index_of(static_cast<int>(r), p - 1), to);
      if (!dag.nodes_[to].is_comm) continue;
      // Barrier: a comm phase waits on every rank's previous phase.
      for (std::size_t o = 0; o < R; ++o) {
        if (o == r) continue;
        const std::size_t from = dag.index_of(static_cast<int>(o), p - 1);
        if (from < dag.nodes_.size()) dag.add_edge(from, to);
      }
    }
  return dag;
}

PhaseDag PhaseDag::from_trace(const trace::TraceData& data) {
  using trace::TraceEventRow;
  // Per-track phase spans in emission order (stable wall-time sort, the
  // same ordering summarize() uses).
  std::vector<TraceEventRow> events = data.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEventRow& a, const TraceEventRow& b) {
                     return a.wall_ns < b.wall_ns;
                   });

  struct Span {
    double duration_s;
    bool is_comm;
  };
  std::map<std::uint32_t, std::vector<Span>> spans;   // track -> sequence
  std::map<std::uint32_t, std::vector<double>> open;  // track -> B vt stack
  for (const TraceEventRow& e : events) {
    if (data.str(e.cat) != "runtime" || data.str(e.name) != "phase") continue;
    if (e.phase == 'B') {
      open[e.track].push_back(e.vt);
    } else if (e.phase == 'E') {
      auto& stack = open[e.track];
      if (stack.empty()) continue;  // torn: END without a recorded begin
      const double begin_vt = stack.back();
      stack.pop_back();
      if (begin_vt < 0 || e.vt < 0) continue;  // no virtual stamps
      const bool comm = data.str(e.arg_name0) == "is_comm" && e.arg0 != 0;
      spans[e.track].push_back(Span{e.vt - begin_vt, comm});
    }
  }

  // Track -> rank: parse "rank N" names (merged shards carry prefixes like
  // "task-3/rank 0"); unnamed tracks (and track ids past the table, which
  // a spill read from disk may carry) sort after the named ones.  Rows are
  // densely renumbered in (parsed rank, track) order — the barrier edges
  // only need phase indices aligned across rows, not original rank ids.
  std::vector<std::pair<std::pair<int, std::uint32_t>, const std::vector<Span>*>>
      rows;
  for (const auto& [track, seq] : spans) {
    int rank = INT_MAX;
    if (track < data.tracks.size()) {
      const std::string& name = data.tracks[track].name;
      const std::size_t pos = name.rfind("rank ");
      if (pos != std::string::npos) {
        const long parsed = std::strtol(name.c_str() + pos + 5, nullptr, 10);
        if (parsed >= 0 && parsed < INT_MAX) rank = static_cast<int>(parsed);
      }
    }
    rows.push_back({{rank, track}, &seq});
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<std::vector<double>> durations;
  std::vector<std::vector<char>> kinds;
  for (const auto& [key, seq] : rows) {
    durations.emplace_back();
    kinds.emplace_back();
    for (const Span& s : *seq) {
      durations.back().push_back(s.duration_s);
      kinds.back().push_back(s.is_comm ? 1 : 0);
    }
  }
  return from_profile(durations, kinds);
}

}  // namespace unimem::rt
