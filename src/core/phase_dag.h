// Phase execution DAG + critical-path math: the library behind the
// offline `unimem_trace --dag` report.
//
// Nodes are (rank, phase) executions with measured durations; edges are
// program order within a rank plus the barrier dependencies a blocking
// communication phase imposes (every rank must finish phase p-1 before
// any rank's comm phase p can complete — minimpi's collectives leave all
// ranks at max(entry times), so the dependency is real, not heuristic).
//
// compute() runs the classic CPM pass:
//   earliest[v] = max over preds u of (earliest[u] + dur[u]), 0 at sources
//   makespan    = max over v of (earliest[v] + dur[v])
//   latest[v]   = min over succs w of latest[w], minus dur[v]
//                 (sinks: makespan - dur[v] — disconnected components all
//                 measure against the global makespan, so a shorter
//                 component carries slack)
//   slack[v]    = latest[v] - earliest[v];  critical iff slack ~ 0
//
// One production ingestion path: from_trace rebuilds the DAG from the
// "runtime/phase" B/E spans of a recorded trace.  It builds through
// from_profile, which takes per-rank phase-duration rows directly (the
// tests' entry point).
#pragma once

#include <cstddef>
#include <map>
#include <utility>
#include <vector>

namespace unimem::trace {
struct TraceData;
}

namespace unimem::rt {

class PhaseDag {
 public:
  struct Node {
    int rank = 0;
    std::size_t phase = 0;
    double duration_s = 0;
    bool is_comm = false;
    // Filled by compute():
    double earliest_s = 0;  ///< earliest start time
    double latest_s = 0;    ///< latest start that keeps the makespan
    double slack_s = 0;     ///< latest_s - earliest_s
    bool critical = false;  ///< slack within tolerance of zero
  };

  /// Slack below eps() counts as zero (floating-point accumulation noise
  /// along a long chain, relative to the critical-path length).
  double eps() const;

  // Builder preconditions (add_node/add_edge):
  //  * Add each (rank, phase) pair at most once.  A duplicate is not
  //    rejected, but the lookup index keeps only the latest node, so the
  //    earlier one becomes unreachable through find() while still shaping
  //    the CPM result — a state no caller wants.
  //  * Edge endpoints must be indices returned by a *prior* add_node on
  //    this DAG.  Out-of-range endpoints and self-edges are silently
  //    dropped; duplicate parallel edges are accepted and harmless.
  //  * Durations must be finite and >= 0 (profiled times; never NaN).
  //  * Any add invalidates computed(): a Node's CPM fields are meaningful
  //    only after the next successful compute().

  /// Returns the node's index (edges reference indices).
  std::size_t add_node(int rank, std::size_t phase, double duration_s,
                       bool is_comm);
  void add_edge(std::size_t from, std::size_t to);

  /// CPM forward/backward pass.  Returns false — and marks nothing
  /// computed — when the edge set has a cycle.  An empty DAG computes
  /// trivially (critical_path_s() == 0).
  bool compute();
  bool computed() const { return computed_; }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<std::pair<std::size_t, std::size_t>>& edges() const {
    return edges_;
  }
  double critical_path_s() const { return critical_path_s_; }

  /// nullptr when (rank, phase) was never added.
  const Node* find(int rank, std::size_t phase) const;

  /// Build from exchanged per-rank phase durations: durations[r][p] is
  /// rank r's phase p time, kinds[r][p] nonzero for communication phases.
  /// Edges: (r, p-1) -> (r, p) program order, plus (r', p-1) -> (r, p)
  /// for every rank r' when (r, p) is a comm phase (the barrier).
  /// Ragged inputs are allowed; missing entries simply have no node.
  static PhaseDag from_profile(const std::vector<std::vector<double>>& durations,
                               const std::vector<std::vector<char>>& kinds);

  /// Build from a drained trace: per-track "runtime/phase" B/E spans in
  /// virtual time become that track's phase sequence (rank parsed from
  /// the "rank N" track name, falling back to track order); is_comm reads
  /// the END event's is_comm argument.  Torn spans (B without E) are
  /// skipped — summarize() counts those separately.
  static PhaseDag from_trace(const trace::TraceData& data);

 private:
  std::size_t index_of(int rank, std::size_t phase) const;  // npos = absent

  std::map<std::pair<int, std::size_t>, std::size_t> index_;
  std::vector<Node> nodes_;
  std::vector<std::pair<std::size_t, std::size_t>> edges_;
  double critical_path_s_ = 0;
  bool computed_ = false;
};

}  // namespace unimem::rt
