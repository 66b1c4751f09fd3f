// Property + golden tests for the phase-DAG critical-path math
// (core/phase_dag.h): the CPM forward/backward pass against an O(V*E)
// brute-force relaxation over random DAGs, the structural invariants of
// the node table, and the two builders (from_profile barrier edges,
// from_trace span parsing incl. torn spans).
#include "core/phase_dag.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "trace/export.h"

namespace unimem::rt {
namespace {

constexpr double kTol = 1e-9;

/// O(V*E) reference: relax every edge V times (no topological order
/// needed), exactly the textbook longest-path recurrences the CPM pass
/// must reproduce.
struct BruteForce {
  std::vector<double> earliest, latest;
  double makespan = 0;

  explicit BruteForce(const PhaseDag& dag) {
    const auto& nodes = dag.nodes();
    const auto& edges = dag.edges();
    const std::size_t V = nodes.size();
    earliest.assign(V, 0.0);
    for (std::size_t pass = 0; pass < V; ++pass)
      for (const auto& [u, v] : edges)
        earliest[v] =
            std::max(earliest[v], earliest[u] + nodes[u].duration_s);
    for (std::size_t v = 0; v < V; ++v)
      makespan = std::max(makespan, earliest[v] + nodes[v].duration_s);
    latest.assign(V, 0.0);
    for (std::size_t v = 0; v < V; ++v)
      latest[v] = makespan - nodes[v].duration_s;
    for (std::size_t pass = 0; pass < V; ++pass)
      for (const auto& [u, v] : edges)
        latest[u] = std::min(latest[u], latest[v] - nodes[u].duration_s);
  }
};

void expect_matches_brute_force(PhaseDag& dag) {
  ASSERT_TRUE(dag.compute());
  const BruteForce ref(dag);
  EXPECT_NEAR(dag.critical_path_s(), ref.makespan, kTol);
  bool any_critical = false;
  for (std::size_t v = 0; v < dag.nodes().size(); ++v) {
    const PhaseDag::Node& n = dag.nodes()[v];
    EXPECT_NEAR(n.earliest_s, ref.earliest[v], kTol) << "node " << v;
    EXPECT_NEAR(n.latest_s, ref.latest[v], kTol) << "node " << v;
    EXPECT_NEAR(n.slack_s, std::max(0.0, ref.latest[v] - ref.earliest[v]),
                kTol)
        << "node " << v;
    // The invariant the scheduler trusts: critical <=> zero slack.
    EXPECT_EQ(n.critical, n.slack_s <= dag.eps()) << "node " << v;
    any_critical = any_critical || n.critical;
    // Nothing starts later than the makespan allows.
    EXPECT_LE(n.earliest_s + n.duration_s, dag.critical_path_s() + kTol);
    EXPECT_LE(n.latest_s + n.duration_s, dag.critical_path_s() + kTol);
  }
  if (!dag.nodes().empty()) {
    EXPECT_TRUE(any_critical);
  }
}

// ---------------------------------------------------------------------------
// Property test: 40+ random DAGs across three shape families.
// ---------------------------------------------------------------------------

TEST(PhaseDagProperty, RandomDagsMatchBruteForce) {
  Rng rng(20177);
  for (int trial = 0; trial < 48; ++trial) {
    PhaseDag dag;
    const int shape = trial % 3;
    if (shape == 0) {
      // Single chain, one rank: every node critical.
      const std::size_t P = 1 + rng.below(12);
      for (std::size_t p = 0; p < P; ++p)
        dag.add_node(0, p, rng.uniform(0.1, 2.0), false);
      for (std::size_t p = 1; p < P; ++p) dag.add_edge(p - 1, p);
    } else if (shape == 1) {
      // Diamond lattice: several ranks fanning out of a common source
      // phase and joining at a common sink phase.
      const int R = 2 + static_cast<int>(rng.below(4));
      const std::size_t src =
          dag.add_node(0, 0, rng.uniform(0.1, 1.0), false);
      std::vector<std::size_t> mids;
      for (int r = 0; r < R; ++r)
        mids.push_back(dag.add_node(r, 1, rng.uniform(0.1, 3.0), false));
      const std::size_t sink =
          dag.add_node(0, 2, rng.uniform(0.1, 1.0), true);
      for (std::size_t m : mids) {
        dag.add_edge(src, m);
        dag.add_edge(m, sink);
      }
    } else {
      // Disconnected ranks: random forward edges within each rank's
      // chain, no cross-rank edges — shorter components are pure slack.
      const int R = 2 + static_cast<int>(rng.below(3));
      std::vector<std::vector<std::size_t>> idx(R);
      for (int r = 0; r < R; ++r) {
        const std::size_t P = 1 + rng.below(8);
        for (std::size_t p = 0; p < P; ++p)
          idx[r].push_back(dag.add_node(r, p, rng.uniform(0.05, 1.5),
                                        rng.below(4) == 0));
        // Forward-only random edges keep it acyclic by construction.
        for (std::size_t i = 0; i < idx[r].size(); ++i)
          for (std::size_t j = i + 1; j < idx[r].size(); ++j)
            if (rng.below(3) == 0) dag.add_edge(idx[r][i], idx[r][j]);
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_matches_brute_force(dag);
  }
}

TEST(PhaseDagProperty, CriticalChainReachesSinkOnRandomDags) {
  // On every connected random DAG there is a zero-slack chain realizing
  // the makespan: following critical successors from a critical source
  // must reach a node that finishes at critical_path_s().
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    PhaseDag dag;
    const std::size_t V = 2 + rng.below(14);
    for (std::size_t v = 0; v < V; ++v)
      dag.add_node(static_cast<int>(v), 0, rng.uniform(0.1, 2.0), false);
    for (std::size_t i = 0; i < V; ++i)
      for (std::size_t j = i + 1; j < V; ++j)
        if (rng.below(3) == 0) dag.add_edge(i, j);
    ASSERT_TRUE(dag.compute());
    // Some critical node must finish exactly at the makespan...
    double best_finish = 0;
    for (const auto& n : dag.nodes())
      if (n.critical)
        best_finish = std::max(best_finish, n.earliest_s + n.duration_s);
    EXPECT_NEAR(best_finish, dag.critical_path_s(), kTol);
    // ...and every critical non-source is fed by a critical predecessor
    // finishing exactly at its start (the chain is gapless).
    for (std::size_t v = 0; v < dag.nodes().size(); ++v) {
      const auto& n = dag.nodes()[v];
      if (!n.critical || n.earliest_s <= kTol) continue;
      bool fed = false;
      for (const auto& [u, w] : dag.edges()) {
        if (w != v) continue;
        const auto& p = dag.nodes()[u];
        if (p.critical &&
            std::abs(p.earliest_s + p.duration_s - n.earliest_s) <= kTol)
          fed = true;
      }
      EXPECT_TRUE(fed) << "critical node " << v << " has no critical feeder";
    }
  }
}

// ---------------------------------------------------------------------------
// Pinned edge cases.
// ---------------------------------------------------------------------------

TEST(PhaseDag, EmptyDagComputes) {
  PhaseDag dag;
  EXPECT_TRUE(dag.compute());
  EXPECT_TRUE(dag.computed());
  EXPECT_DOUBLE_EQ(dag.critical_path_s(), 0.0);
  EXPECT_EQ(dag.find(0, 0), nullptr);
}

TEST(PhaseDag, SinglePhase) {
  PhaseDag dag;
  dag.add_node(0, 0, 1.5, false);
  ASSERT_TRUE(dag.compute());
  EXPECT_DOUBLE_EQ(dag.critical_path_s(), 1.5);
  const PhaseDag::Node* n = dag.find(0, 0);
  ASSERT_NE(n, nullptr);
  EXPECT_DOUBLE_EQ(n->earliest_s, 0.0);
  EXPECT_DOUBLE_EQ(n->latest_s, 0.0);
  EXPECT_TRUE(n->critical);
  EXPECT_DOUBLE_EQ(n->slack_s, 0.0);
}

TEST(PhaseDag, AllCommPhasesEveryNodeCritical) {
  // Symmetric SPMD: every phase on every rank is a comm phase with equal
  // duration — the barrier edges couple the ranks into one lattice where
  // nothing has slack.
  const std::size_t R = 3, P = 4;
  std::vector<std::vector<double>> dur(R, std::vector<double>(P, 1.0));
  std::vector<std::vector<char>> kinds(R, std::vector<char>(P, 1));
  PhaseDag dag = PhaseDag::from_profile(dur, kinds);
  ASSERT_TRUE(dag.compute());
  EXPECT_DOUBLE_EQ(dag.critical_path_s(), static_cast<double>(P));
  for (const auto& n : dag.nodes()) {
    EXPECT_TRUE(n.critical);
    EXPECT_DOUBLE_EQ(n.slack_s, 0.0);
  }
}

TEST(PhaseDag, CycleRefusesToCompute) {
  PhaseDag dag;
  dag.add_node(0, 0, 1.0, false);
  dag.add_node(0, 1, 1.0, false);
  dag.add_edge(0, 1);
  dag.add_edge(1, 0);
  EXPECT_FALSE(dag.compute());
  EXPECT_FALSE(dag.computed());
}

TEST(PhaseDag, IgnoresBogusEdges) {
  PhaseDag dag;
  dag.add_node(0, 0, 1.0, false);
  dag.add_edge(0, 0);   // self loop
  dag.add_edge(0, 7);   // out of range
  dag.add_edge(7, 0);
  EXPECT_TRUE(dag.edges().empty());
  EXPECT_TRUE(dag.compute());
}

// ---------------------------------------------------------------------------
// from_profile: barrier-edge structure and the slack it produces.
// ---------------------------------------------------------------------------

TEST(PhaseDagFromProfile, BarrierEdgesCoupleRanksAtCommPhases) {
  // Two ranks, three phases; only rank 0's phase 2 is comm.  The barrier
  // must add (rank 1, phase 1) -> (rank 0, phase 2) and nothing else
  // beyond program order.
  std::vector<std::vector<double>> dur{{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}};
  std::vector<std::vector<char>> kinds{{0, 0, 1}, {0, 0, 0}};
  PhaseDag dag = PhaseDag::from_profile(dur, kinds);
  ASSERT_EQ(dag.nodes().size(), 6u);
  // Program order: 2 ranks x 2 edges; barrier: exactly 1 extra.
  EXPECT_EQ(dag.edges().size(), 5u);
  std::set<std::pair<int, std::size_t>> barrier_targets;
  for (const auto& [u, v] : dag.edges())
    if (dag.nodes()[u].rank != dag.nodes()[v].rank)
      barrier_targets.insert({dag.nodes()[v].rank, dag.nodes()[v].phase});
  EXPECT_EQ(barrier_targets,
            (std::set<std::pair<int, std::size_t>>{{0, 2}}));
}

TEST(PhaseDagFromProfile, ImbalancedRankGainsSlackBeforeBarrier) {
  // Rank 0 computes 3s then hits a barrier comm; rank 1 computes 1s then
  // the same barrier.  Rank 1's compute phase has 2s of slack; rank 0's
  // is critical.
  std::vector<std::vector<double>> dur{{3.0, 0.5}, {1.0, 0.5}};
  std::vector<std::vector<char>> kinds{{0, 1}, {0, 1}};
  PhaseDag dag = PhaseDag::from_profile(dur, kinds);
  ASSERT_TRUE(dag.compute());
  EXPECT_DOUBLE_EQ(dag.critical_path_s(), 3.5);
  for (const auto& [r, p] :
       {std::pair<int, std::size_t>{0, 0}, {0, 1}, {1, 0}, {1, 1}})
    ASSERT_NE(dag.find(r, p), nullptr) << r << "," << p;
  EXPECT_TRUE(dag.find(0, 0)->critical);
  EXPECT_TRUE(dag.find(0, 1)->critical);
  EXPECT_FALSE(dag.find(1, 0)->critical);
  EXPECT_NEAR(dag.find(1, 0)->slack_s, 2.0, kTol);
  EXPECT_TRUE(dag.find(1, 1)->critical);
}

TEST(PhaseDagFromProfile, RaggedInputsAllowed) {
  // Rank 1 measured fewer phases (mid-iteration join): its short row
  // still builds, and the comm phase only pulls edges from rows that
  // have the predecessor phase.
  std::vector<std::vector<double>> dur{{1.0, 1.0, 1.0}, {1.0}};
  std::vector<std::vector<char>> kinds{{0, 0, 1}, {0}};
  PhaseDag dag = PhaseDag::from_profile(dur, kinds);
  ASSERT_EQ(dag.nodes().size(), 4u);
  ASSERT_TRUE(dag.compute());
  EXPECT_DOUBLE_EQ(dag.critical_path_s(), 3.0);
}

// ---------------------------------------------------------------------------
// from_trace: span parsing, rank mapping, torn spans.
// ---------------------------------------------------------------------------

namespace {

/// Append a "runtime/phase" B or E event on `track` at virtual time `vt`.
void phase_event(trace::TraceData* data, std::uint32_t track, char ph,
                 double vt, std::uint64_t wall_ns, bool is_comm = false) {
  trace::TraceEventRow e;
  e.cat = data->intern("runtime");
  e.name = data->intern("phase");
  e.phase = ph;
  e.vt = vt;
  e.wall_ns = wall_ns;
  e.track = track;
  if (ph == 'E') {
    e.arg_name0 = data->intern("is_comm");
    e.arg0 = is_comm ? 1 : 0;
  }
  data->events.push_back(e);
}

std::uint32_t add_track(trace::TraceData* data, const std::string& name) {
  data->tracks.push_back(trace::TraceTrack{name, 0});
  return static_cast<std::uint32_t>(data->tracks.size() - 1);
}

}  // namespace

TEST(PhaseDagFromTrace, ParsesSpansAndRankNames) {
  trace::TraceData data;
  const std::uint32_t t1 = add_track(&data, "rank 1");
  const std::uint32_t t0 = add_track(&data, "rank 0");
  // rank 0: [0,3) compute, [3,3.5) comm; rank 1: [0,1) compute,
  // [3,3.5) comm — the imbalanced-barrier scenario via the trace path.
  phase_event(&data, t0, 'B', 0.0, 10);
  phase_event(&data, t0, 'E', 3.0, 20);
  phase_event(&data, t1, 'B', 0.0, 11);
  phase_event(&data, t1, 'E', 1.0, 21);
  phase_event(&data, t0, 'B', 3.0, 30);
  phase_event(&data, t0, 'E', 3.5, 40, /*is_comm=*/true);
  phase_event(&data, t1, 'B', 3.0, 31);
  phase_event(&data, t1, 'E', 3.5, 41, /*is_comm=*/true);
  PhaseDag dag = PhaseDag::from_trace(data);
  ASSERT_EQ(dag.nodes().size(), 4u);
  ASSERT_TRUE(dag.compute());
  EXPECT_DOUBLE_EQ(dag.critical_path_s(), 3.5);
  // Track "rank 1" was registered first but must land as row 1: the row
  // with the 3s phase (rank 0) is critical, the 1s one is not.
  ASSERT_NE(dag.find(0, 0), nullptr);
  ASSERT_NE(dag.find(1, 0), nullptr);
  EXPECT_TRUE(dag.find(0, 0)->critical);
  EXPECT_FALSE(dag.find(1, 0)->critical);
  EXPECT_NEAR(dag.find(1, 0)->slack_s, 2.0, kTol);
}

TEST(PhaseDagFromTrace, UnnamedAndOutOfTableTracksSortAfterNamedRanks) {
  // A spill read from disk may name an event track past the table, or a
  // rank past int's range; either row lands after every named rank.
  trace::TraceData data;
  const std::uint32_t huge = add_track(&data, "rank 99999999999");
  const std::uint32_t named = add_track(&data, "rank 7");
  const std::uint32_t stray = 0x7fffffffu;  // no such track
  phase_event(&data, stray, 'B', 0.0, 10);
  phase_event(&data, stray, 'E', 1.0, 20);
  phase_event(&data, huge, 'B', 0.0, 11);
  phase_event(&data, huge, 'E', 2.0, 21);
  phase_event(&data, named, 'B', 0.0, 12);
  phase_event(&data, named, 'E', 3.0, 22);
  PhaseDag dag = PhaseDag::from_trace(data);
  ASSERT_TRUE(dag.compute());
  // Rows in (rank, track) order: "rank 7", then the two fallbacks by id.
  ASSERT_NE(dag.find(0, 0), nullptr);
  ASSERT_NE(dag.find(1, 0), nullptr);
  ASSERT_NE(dag.find(2, 0), nullptr);
  EXPECT_DOUBLE_EQ(dag.find(0, 0)->duration_s, 3.0);
  EXPECT_DOUBLE_EQ(dag.find(1, 0)->duration_s, 2.0);
  EXPECT_DOUBLE_EQ(dag.find(2, 0)->duration_s, 1.0);
}

TEST(PhaseDagFromTrace, SkipsTornAndUnstampedSpans) {
  trace::TraceData data;
  const std::uint32_t t = add_track(&data, "rank 0");
  phase_event(&data, t, 'B', 0.0, 10);
  phase_event(&data, t, 'E', 1.0, 20);
  phase_event(&data, t, 'E', 2.0, 30);   // torn: END without begin
  phase_event(&data, t, 'B', 2.0, 40);   // torn: begin without END
  PhaseDag dag = PhaseDag::from_trace(data);
  ASSERT_EQ(dag.nodes().size(), 1u);
  ASSERT_TRUE(dag.compute());
  EXPECT_DOUBLE_EQ(dag.critical_path_s(), 1.0);
}

TEST(PhaseDagFromTrace, EmptyTraceBuildsEmptyDag) {
  trace::TraceData data;
  PhaseDag dag = PhaseDag::from_trace(data);
  EXPECT_TRUE(dag.nodes().empty());
  EXPECT_TRUE(dag.compute());
  EXPECT_DOUBLE_EQ(dag.critical_path_s(), 0.0);
}

}  // namespace
}  // namespace unimem::rt
