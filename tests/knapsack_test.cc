// Tests for the knapsack solver: the paper's 0-1 problem as the K=2 case
// of the multiple-choice DP, the N-tier MCKP itself, and the bounded
// approximation — exactness against brute force on random instances
// (property tests) and the behavioural edge cases the planner relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/knapsack.h"

namespace unimem::rt {
namespace {

double brute_force_best(const std::vector<KnapsackItem>& items,
                        std::size_t capacity) {
  const std::size_t n = items.size();
  double best = 0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    double w = 0;
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (std::size_t{1} << i)) {
        w += items[i].weight;
        bytes += items[i].bytes;
      }
    if (bytes <= capacity && w > best) best = w;
  }
  return best;
}

/// The paper's 0-1 knapsack, solved the way the planner solves it: the K=2
/// MCKP with weights {w, 0} over {capacity, unbounded NVM}; tier 0 (DRAM)
/// is "selected".
KnapsackResult solve01(const KnapsackSolver& s,
                       const std::vector<KnapsackItem>& items,
                       std::size_t capacity) {
  std::vector<MckpItem> two_tier;
  for (const KnapsackItem& it : items)
    two_tier.push_back(MckpItem{{it.weight, 0.0}, it.bytes});
  const MckpResult m =
      s.solve_mckp(two_tier, {capacity, KnapsackSolver::kUnbounded});
  KnapsackResult out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (m.choice[i] != 0) continue;
    out.selected.push_back(i);
    out.total_weight += items[i].weight;
    out.total_bytes += items[i].bytes;
  }
  return out;
}

TEST(Knapsack, EmptyInstance) {
  KnapsackSolver s;
  KnapsackResult r = solve01(s, {}, 1 << 20);
  EXPECT_TRUE(r.selected.empty());
  EXPECT_DOUBLE_EQ(r.total_weight, 0);
}

TEST(Knapsack, ZeroCapacity) {
  KnapsackSolver s;
  KnapsackResult r = solve01(s, {{1.0, 100}}, 0);
  EXPECT_TRUE(r.selected.empty());
}

TEST(Knapsack, NegativeWeightNeverSelected) {
  KnapsackSolver s(1024);
  KnapsackResult r = solve01(s, {{-1.0, 1024}, {2.0, 1024}, {0.0, 1024}},
                             std::size_t{1} << 20);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0], 1u);
}

TEST(Knapsack, OversizedItemSkipped) {
  KnapsackSolver s(1024);
  KnapsackResult r = solve01(s, {{100.0, 1 << 20}, {1.0, 1024}}, 2048);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0], 1u);
}

TEST(Knapsack, PicksValueOverDensityWhenOptimal) {
  // Greedy-by-density takes the densest item and wastes capacity; the DP
  // must take the two smaller ones (classic greedy-failure case).
  KnapsackSolver s(1);
  std::vector<KnapsackItem> items = {{10.0, 6}, {6.0, 4}, {6.0, 4}};
  KnapsackResult dp = solve01(s, items, 8);
  EXPECT_DOUBLE_EQ(dp.total_weight, 12.0);
  EXPECT_EQ(dp.selected, (std::vector<std::size_t>{1, 2}));
  KnapsackResult bounded = s.solve_bounded(items, 8);
  EXPECT_DOUBLE_EQ(bounded.total_weight, 10.0);  // density trap
}

TEST(Knapsack, RespectsCapacityExactly) {
  KnapsackSolver s(1);
  KnapsackResult r = solve01(s, {{1.0, 3}, {1.0, 3}, {1.0, 3}}, 6);
  EXPECT_EQ(r.selected.size(), 2u);
  EXPECT_LE(r.total_bytes, 6u);
}

TEST(Knapsack, GranuleRoundsSizesUp) {
  // With a 1 KiB granule, a 1025-byte item occupies 2 granules: three such
  // items cannot fit a 4 KiB capacity even though raw bytes would fit.
  KnapsackSolver s(1024);
  KnapsackResult r =
      solve01(s, {{1.0, 1025}, {1.0, 1025}, {1.0, 1025}}, 4 * 1024);
  EXPECT_EQ(r.selected.size(), 2u);
}

class KnapsackProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const int n = 3 + static_cast<int>(rng.below(10));  // <= 12 items
    std::vector<KnapsackItem> items;
    for (int i = 0; i < n; ++i)
      items.push_back(KnapsackItem{rng.uniform(-0.2, 1.0),
                                   64 * (1 + rng.below(64))});
    std::size_t capacity = 64 * (1 + rng.below(256));
    KnapsackSolver s(64);
    KnapsackResult r = solve01(s, items, capacity);
    // Selection must be feasible.
    std::size_t bytes = 0;
    double w = 0;
    for (std::size_t idx : r.selected) {
      bytes += items[idx].bytes;
      w += items[idx].weight;
    }
    EXPECT_LE(bytes, capacity);
    EXPECT_NEAR(w, r.total_weight, 1e-9);
    // And optimal (granule = min item granularity = 64 here, so exact).
    EXPECT_NEAR(r.total_weight, brute_force_best(items, capacity), 1e-9);
    // The bounded approximation is never better than the DP.
    KnapsackResult g = s.solve_bounded(items, capacity);
    EXPECT_LE(g.total_weight, r.total_weight + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(Knapsack, AllCandidatesFitFastPath) {
  // Total positive-weight granules below capacity: everything useful is
  // selected, non-positive items still excluded.
  KnapsackSolver s(1024);
  std::vector<KnapsackItem> items = {
      {1.0, 1000}, {-1.0, 1000}, {0.5, 3000}, {0.0, 500}};
  KnapsackResult r = solve01(s, items, 1 << 20);
  ASSERT_EQ(r.selected, (std::vector<std::size_t>{0, 2}));
  EXPECT_DOUBLE_EQ(r.total_weight, 1.5);
  EXPECT_EQ(r.total_bytes, 4000u);
}

// Property (larger instances): the DP stays optimal up to 20 items, the
// regime the planner sees per phase on most workloads.
class KnapsackProperty20 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackProperty20, MatchesBruteForceUpTo20Items) {
  Rng rng(GetParam());
  for (int round = 0; round < 3; ++round) {
    const int n = 13 + static_cast<int>(rng.below(8));  // 13..20 items
    std::vector<KnapsackItem> items;
    for (int i = 0; i < n; ++i)
      items.push_back(KnapsackItem{rng.uniform(-0.2, 1.0),
                                   64 * (1 + rng.below(64))});
    std::size_t capacity = 64 * (1 + rng.below(512));
    KnapsackSolver s(64);
    KnapsackResult r = solve01(s, items, capacity);
    std::size_t bytes = 0;
    double w = 0;
    for (std::size_t idx : r.selected) {
      bytes += items[idx].bytes;
      w += items[idx].weight;
    }
    EXPECT_LE(bytes, capacity);
    EXPECT_NEAR(w, r.total_weight, 1e-9);
    EXPECT_NEAR(r.total_weight, brute_force_best(items, capacity), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackProperty20,
                         ::testing::Values(101, 202, 303));

TEST(Knapsack, QuantizationNeverOvercommits) {
  // With a coarse granule and sizes that are not granule multiples, the
  // selection's rounded-up granules must fit the quantized capacity — the
  // solver may under-use DRAM but can never over-commit it.
  const std::size_t granule = 4096;
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const int n = 2 + static_cast<int>(rng.below(14));
    std::vector<KnapsackItem> items;
    for (int i = 0; i < n; ++i)
      items.push_back(KnapsackItem{rng.uniform(-0.2, 1.0),
                                   1 + rng.below(10 * granule)});
    const std::size_t capacity = 1 + rng.below(n * 4 * granule);
    KnapsackSolver s(granule);
    KnapsackResult r = solve01(s, items, capacity);
    std::size_t quantized = 0;
    for (std::size_t idx : r.selected)
      quantized += (items[idx].bytes + granule - 1) / granule;
    EXPECT_LE(quantized, capacity / granule)
        << "round " << round << ": quantized selection over-commits";
  }
}

TEST(Knapsack, HugeInstanceStaysFeasibleAndUseful) {
  // Item-count x capacity far past the dense-DP budget: the solver must
  // switch to the bounded-approximation path — still feasible, still at
  // least as good as the best single item, and fast enough to run here.
  // The direct solve_bounded() entry gives the same answer.
  Rng rng(5);
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 64; ++i)
    items.push_back(
        KnapsackItem{rng.uniform(0.0, 1.0), 50000 + rng.below(2000000)});
  const std::size_t capacity = 1 << 20;  // granule 1: ~64 x 2^20 DP cells
  KnapsackSolver s(1);
  KnapsackResult r = solve01(s, items, capacity);
  ASSERT_FALSE(r.selected.empty());
  EXPECT_EQ(r.selected, s.solve_bounded(items, capacity).selected);
  std::size_t bytes = 0;
  for (std::size_t idx : r.selected) bytes += items[idx].bytes;
  EXPECT_LE(bytes, capacity);
  EXPECT_EQ(bytes, r.total_bytes);
  double best_single = 0;
  for (const KnapsackItem& it : items)
    if (it.bytes <= capacity) best_single = std::max(best_single, it.weight);
  EXPECT_GE(r.total_weight, best_single - 1e-12);
}

// ---- multiple-choice knapsack (N-tier placement) ------------------------

/// Exhaustive MCKP optimum: every item takes exactly one tier, every
/// constrained tier's byte sum respects its capacity.  Assumes sizes and
/// capacities are granule-aligned so the solver's quantization is exact.
double mckp_brute_force(const std::vector<MckpItem>& items,
                        const std::vector<std::size_t>& caps) {
  const std::size_t T = caps.size();
  const std::size_t n = items.size();
  double best = -1e300;
  std::vector<std::size_t> assign(n, 0);
  while (true) {
    double w = 0;
    std::vector<std::size_t> used(T, 0);
    for (std::size_t i = 0; i < n; ++i) {
      w += items[i].weights[assign[i]];
      used[assign[i]] += items[i].bytes;
    }
    bool ok = true;
    for (std::size_t j = 0; j < T; ++j)
      if (caps[j] != KnapsackSolver::kUnbounded && used[j] > caps[j])
        ok = false;
    if (ok && w > best) best = w;
    std::size_t k = 0;
    while (k < n && ++assign[k] == T) {
      assign[k] = 0;
      ++k;
    }
    if (k == n) break;
  }
  return best;
}

TEST(Mckp, ValidatesItemArity) {
  KnapsackSolver s(64);
  std::vector<MckpItem> items = {{{1.0, 0.5}, 64}, {{1.0}, 64}};
  EXPECT_THROW(s.solve_mckp(items, {64, KnapsackSolver::kUnbounded}),
               std::invalid_argument);
}

TEST(Mckp, RequiresAnUnboundedTier) {
  KnapsackSolver s(64);
  std::vector<MckpItem> items = {{{1.0, 0.5}, 64}};
  EXPECT_THROW(s.solve_mckp(items, {64, 128}), std::invalid_argument);
  EXPECT_THROW(s.solve_mckp({}, {}), std::invalid_argument);
}

TEST(Mckp, EmptyItems) {
  KnapsackSolver s(64);
  MckpResult r = s.solve_mckp({}, {64, KnapsackSolver::kUnbounded});
  EXPECT_TRUE(r.choice.empty());
  EXPECT_DOUBLE_EQ(r.total_weight, 0);
}

TEST(Mckp, AllTiersUnboundedPicksBestPerItem) {
  KnapsackSolver s(64);
  std::vector<MckpItem> items = {
      {{1.0, 2.0, 0.5}, 64}, {{3.0, -1.0, 3.0}, 128}, {{-2.0, -1.0, -3.0}, 64}};
  MckpResult r = s.solve_mckp(
      items, {KnapsackSolver::kUnbounded, KnapsackSolver::kUnbounded,
              KnapsackSolver::kUnbounded});
  // Ties (item 1: tiers 0 and 2 both 3.0) resolve to the lowest index.
  EXPECT_EQ(r.choice, (std::vector<int>{1, 0, 1}));
  EXPECT_DOUBLE_EQ(r.total_weight, 2.0 + 3.0 + -1.0);
}

/// A planner-shaped 2-tier instance: weights {w, 0} over {DRAM cap,
/// unbounded NVM}, the paper's 0-1 knapsack.  It mixes the shapes the
/// planner feeds the solver: runs of identical chunks (ties), weights <= 0,
/// items larger than the capacity, and sizes and capacities that are not
/// granule multiples, at a 64 B or a 64 KiB granule.
struct TwoTierInstance {
  std::size_t granule = 64;
  std::size_t cap = 0;
  std::vector<MckpItem> items;
};

TwoTierInstance planner_shaped_instance(Rng& rng, int max_items) {
  TwoTierInstance in;
  in.granule = rng.below(2) == 0 ? 64 : 64 * 1024;
  const std::size_t g = in.granule;
  in.cap = g * rng.below(24) + (rng.below(2) == 0 ? 0 : rng.below(g));
  const int n = 1 + static_cast<int>(rng.below(max_items));
  for (int i = 0; i < n; ++i) {
    if (i > 0 && rng.below(4) == 0) {  // identical chunk of an earlier item
      in.items.push_back(in.items[rng.below(in.items.size())]);
      continue;
    }
    double w = 0;
    switch (rng.below(8)) {
      case 0: w = 0.0; break;
      case 1: w = -rng.uniform(); break;
      case 2: w = 0.25 * static_cast<double>(1 + rng.below(4)); break;
      default: w = rng.uniform(); break;
    }
    std::size_t bytes = g * (1 + rng.below(8));
    if (rng.below(3) == 0) bytes = 1 + rng.below(8 * g);   // unaligned
    if (rng.below(10) == 0) bytes = in.cap + 1 + rng.below(4 * g);  // oversize
    in.items.push_back(MckpItem{{w, 0.0}, bytes});
  }
  return in;
}

TEST(Mckp, TwoTierMatchesClassicKnapsack) {
  // The K=2 case on planner-shaped instances must stay a feasible, exact
  // 0-1 knapsack.  Brute force runs on the quantized instance (sizes
  // rounded up, capacity down to the granule), which the solver answers
  // identically.
  Rng rng(17);
  for (int round = 0; round < 1000; ++round) {
    const TwoTierInstance in = planner_shaped_instance(rng, 12);
    const std::size_t g = in.granule;
    const std::vector<std::size_t> caps = {in.cap / g * g,
                                           KnapsackSolver::kUnbounded};
    std::vector<MckpItem> quantized = in.items;
    for (MckpItem& it : quantized) it.bytes = (it.bytes + g - 1) / g * g;
    KnapsackSolver s(g);
    const MckpResult m =
        s.solve_mckp(in.items, {in.cap, KnapsackSolver::kUnbounded});
    ASSERT_EQ(m.choice.size(), in.items.size());
    std::size_t used = 0;
    for (std::size_t i = 0; i < m.choice.size(); ++i) {
      if (m.choice[i] != 0) continue;
      EXPECT_GT(in.items[i].weights[0], 0.0) << "round " << round;
      used += quantized[i].bytes;
    }
    EXPECT_LE(used, caps[0]) << "round " << round;
    EXPECT_NEAR(m.total_weight, mckp_brute_force(quantized, caps), 1e-9)
        << "round " << round << " (" << in.items.size() << " items, granule "
        << g << ")";
  }
}

class MckpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MckpProperty, MatchesBruteForceOnRandomLadders) {
  Rng rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    const std::size_t T = 2 + rng.below(3);  // 2..4 tiers
    const int n = 3 + static_cast<int>(rng.below(6));  // <= 8 items
    std::vector<std::size_t> caps(T, 0);
    caps[T - 1] = KnapsackSolver::kUnbounded;
    for (std::size_t j = 0; j + 1 < T; ++j)
      // Occasionally unbounded mid-ladder too (a huge uncontended rung).
      caps[j] = rng.below(8) == 0 ? KnapsackSolver::kUnbounded
                                  : 64 * (1 + rng.below(12));
    std::vector<MckpItem> items;
    for (int i = 0; i < n; ++i) {
      MckpItem it;
      for (std::size_t j = 0; j < T; ++j)
        it.weights.push_back(rng.uniform(-0.5, 1.0));
      it.bytes = 64 * (1 + rng.below(8));
      items.push_back(std::move(it));
    }
    KnapsackSolver s(64);
    MckpResult r = s.solve_mckp(items, caps);
    // Feasible: every constrained tier within its capacity.
    ASSERT_EQ(r.choice.size(), items.size());
    std::vector<std::size_t> used(T, 0);
    double w = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      ASSERT_GE(r.choice[i], 0);
      ASSERT_LT(static_cast<std::size_t>(r.choice[i]), T);
      used[r.choice[i]] += items[i].bytes;
      w += items[i].weights[r.choice[i]];
    }
    for (std::size_t j = 0; j < T; ++j) {
      if (caps[j] != KnapsackSolver::kUnbounded) {
        EXPECT_LE(used[j], caps[j]) << "round " << round << " tier " << j;
      }
    }
    EXPECT_NEAR(w, r.total_weight, 1e-9);
    // Optimal: instances are small + granule-aligned, so the dense DP
    // runs and must match the exhaustive T^n optimum.
    EXPECT_NEAR(r.total_weight, mckp_brute_force(items, caps), 1e-9)
        << "round " << round << " (" << T << " tiers, " << n << " items)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpProperty,
                         ::testing::Values(7, 14, 21, 28, 35, 42));

TEST(Mckp, WaterfallFallbackStaysFeasibleAndUseful) {
  // Capacity x item-count past the dense-DP cell budget: the per-tier
  // waterfall must still answer — feasible, and no worse than leaving
  // every item on its best unbounded tier.
  Rng rng(9);
  std::vector<MckpItem> items;
  for (int i = 0; i < 48; ++i)
    items.push_back(MckpItem{{rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0),
                              0.0},
                             50000 + rng.below(2000000)});
  const std::vector<std::size_t> caps = {1 << 21, 1 << 22,
                                         KnapsackSolver::kUnbounded};
  KnapsackSolver s(1);  // granule 1: far past kDenseDpCellBudget
  MckpResult r = s.solve_mckp(items, caps);
  ASSERT_EQ(r.choice.size(), items.size());
  std::vector<std::size_t> used(3, 0);
  double total = 0, floor = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    used[r.choice[i]] += items[i].bytes;
    total += items[i].weights[r.choice[i]];
    floor += items[i].weights[2];  // best unbounded tier = the backstop
  }
  EXPECT_LE(used[0], caps[0]);
  EXPECT_LE(used[1], caps[1]);
  EXPECT_NEAR(total, r.total_weight, 1e-9);
  EXPECT_GE(r.total_weight, floor - 1e-9);
  // Every item weighs more on both constrained tiers than on the backstop,
  // so the useful box is the full one and the answer is the waterfall's:
  // one solve_bounded() pass per constrained tier, in index order.
  std::vector<int> waterfall(items.size(), 2);
  for (int tier = 0; tier < 2; ++tier) {
    std::vector<KnapsackItem> sub;
    std::vector<std::size_t> map;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (waterfall[i] != 2) continue;
      sub.push_back({items[i].weights[tier] - items[i].weights[2],
                     items[i].bytes});
      map.push_back(i);
    }
    for (std::size_t k : s.solve_bounded(sub, caps[tier]).selected)
      waterfall[map[k]] = tier;
  }
  EXPECT_EQ(r.choice, waterfall);
}

// ---- the useful-capacity box --------------------------------------------

/// solve_mckp's dense DP as it was before each dimension was sized by the
/// items that can win there: each dimension spans min(capacity, total
/// granules).  No cell budget, so callers keep instances small.
MckpResult reference_dense_mckp(const std::vector<MckpItem>& items,
                                const std::vector<std::size_t>& capacities,
                                std::size_t granule) {
  const std::size_t K = capacities.size();
  const std::size_t n = items.size();
  std::vector<int> unbounded, constrained;
  for (std::size_t k = 0; k < K; ++k)
    (capacities[k] == KnapsackSolver::kUnbounded ? unbounded : constrained)
        .push_back(static_cast<int>(k));
  MckpResult out;
  out.choice.assign(n, 0);
  std::vector<int> best_u(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    int best = unbounded.front();
    for (int k : unbounded)
      if (items[i].weights[k] > items[i].weights[best]) best = k;
    best_u[i] = out.choice[i] = best;
  }
  const std::size_t m = constrained.size();
  if (m > 0 && n > 0) {
    std::vector<std::size_t> gsz(n);
    std::size_t total_g = 0;
    for (std::size_t i = 0; i < n; ++i) {
      gsz[i] = (items[i].bytes + granule - 1) / granule;
      total_g += gsz[i];
    }
    std::vector<std::size_t> cap(m), stride(m, 1);
    std::size_t P = 1;
    for (std::size_t j = 0; j < m; ++j) {
      cap[j] = std::min(capacities[constrained[j]] / granule, total_g);
      if (j > 0) stride[j] = stride[j - 1] * (cap[j - 1] + 1);
      P *= cap[j] + 1;
    }
    std::vector<double> prev(P, 0.0), next(P, 0.0);
    std::vector<std::int8_t> pick(n * P, -1);
    std::vector<std::size_t> coord(m, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const double wu = items[i].weights[best_u[i]];
      std::fill(coord.begin(), coord.end(), 0);
      for (std::size_t idx = 0; idx < P; ++idx) {
        double best = prev[idx] + wu;
        std::int8_t pk = -1;
        for (std::size_t j = 0; j < m; ++j) {
          if (coord[j] < gsz[i]) continue;
          const double v = prev[idx - gsz[i] * stride[j]] +
                           items[i].weights[constrained[j]];
          if (v > best) {
            best = v;
            pk = static_cast<std::int8_t>(j);
          }
        }
        next[idx] = best;
        pick[i * P + idx] = pk;
        for (std::size_t j = 0; j < m; ++j) {
          if (++coord[j] <= cap[j]) break;
          coord[j] = 0;
        }
      }
      prev.swap(next);
    }
    std::size_t idx = P - 1;
    for (std::size_t i = n; i-- > 0;) {
      const std::int8_t pk = pick[i * P + idx];
      if (pk >= 0) {
        out.choice[i] = constrained[pk];
        idx -= gsz[i] * stride[pk];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    out.total_weight += items[i].weights[out.choice[i]];
  return out;
}

/// Same choices, and a total weight equal in every bit.
void expect_bit_identical(const MckpResult& got, const MckpResult& want,
                          const std::string& what) {
  EXPECT_EQ(got.choice, want.choice) << what;
  EXPECT_EQ(std::memcmp(&got.total_weight, &want.total_weight,
                        sizeof(double)),
            0)
      << what << ": " << got.total_weight << " vs " << want.total_weight;
}

TEST(Mckp, UsefulBoxMatchesDenseReferenceBitForBit) {
  // Random ladders built to stress the box: weights often drawn from a
  // small set (ties between options and between items), 0-byte items,
  // unaligned sizes and capacities, an extra unbounded tier, and rungs on
  // which no item beats its backstop.
  const double kSmall[] = {-0.5, 0.0, 0.25, 0.5, 1.0};
  Rng rng(2718);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t g = rng.below(4) == 0 ? 4096 : 64;
    const std::size_t K = 2 + rng.below(3);
    std::vector<std::size_t> caps(K);
    std::vector<char> useless(K, 0);
    for (std::size_t k = 0; k < K; ++k) {
      caps[k] = g * rng.below(25) + (rng.below(3) == 0 ? rng.below(g) : 0);
      if (rng.below(5) == 0) {  // a deep rung nothing is worth moving to
        caps[k] = g * (1 + rng.below(4096));
        useless[k] = 1;
      }
      if (rng.below(6) == 0) caps[k] = KnapsackSolver::kUnbounded;
    }
    caps[rng.below(K)] = KnapsackSolver::kUnbounded;
    const std::size_t backstop = static_cast<std::size_t>(
        std::find(caps.begin(), caps.end(), KnapsackSolver::kUnbounded) -
        caps.begin());
    const int n = static_cast<int>(rng.below(10));
    std::vector<MckpItem> items;
    for (int i = 0; i < n; ++i) {
      MckpItem it;
      for (std::size_t k = 0; k < K; ++k)
        it.weights.push_back(rng.below(2) == 0 ? kSmall[rng.below(5)]
                                               : rng.uniform(-0.5, 1.0));
      for (std::size_t k = 0; k < K; ++k)
        if (useless[k] && caps[k] != KnapsackSolver::kUnbounded)
          it.weights[k] = it.weights[backstop] - (rng.below(2) == 0 ? 0.0 : 0.25);
      switch (rng.below(8)) {
        case 0: it.bytes = 0; break;
        case 1: it.bytes = 1 + rng.below(12 * g); break;
        default: it.bytes = g * (1 + rng.below(12)); break;
      }
      items.push_back(std::move(it));
    }
    KnapsackSolver s(g);
    expect_bit_identical(s.solve_mckp(items, caps),
                         reference_dense_mckp(items, caps, g),
                         "round " + std::to_string(round));
  }
}

/// The 4-tier instance tier_ladder's cg row solves at its first plan: 9
/// units over hbm 2 MiB, dram 8 MiB, cxl 32 MiB and the NVM backstop, at
/// the planner's 64 KiB granule.  No unit weighs more on CXL than on NVM.
std::vector<MckpItem> tier_ladder_cg() {
  return {
      {{0x1.18bea846db86ap-11, 0x1.79e1dff611056p-14, -0x1.c4c2d9cb7f8c7p-12,
        -0x1.c4c2d9cb7f8c7p-12}, 2072576},
      {{0x1.1734e564f4208p-10, 0x1.5b20372d12ddap-12, -0x1.c4c2d9cb7f8c7p-11,
        0x0p+0}, 4145152},
      {{0x1.821dfceb22a34p-14, 0x1.cb31414092166p-16, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
      {{0x1.96a74bded0b07p-13, 0x1.66e8167f485fap-14, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
      {{0x1.aba9fce91f3dfp-11, 0x1.ce4c7eb3ba2c4p-12, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
      {{0x1.17578a807708dp-12, 0x1.0a53ebe56bd51p-13, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
      {{0x1.95c828ce2a6ffp-13, 0x1.65e912fe8a5f2p-14, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
      {{0x1.94911c1c9638cp-15, 0x1.f53825e13b18ap-17, -0x1.4964864ac0a6ep-15,
        0x0p+0}, 188480},
      {{0x1.3625d6d437a52p-14, 0x1.1d8c57e79d88ap-16, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
  };
}

const std::vector<std::size_t> kTierLadderCaps = {
    2 << 20, 8 << 20, 32 << 20, KnapsackSolver::kUnbounded};

TEST(Mckp, TierLadderCgMatchesDenseReferenceBitForBit) {
  const std::vector<MckpItem> items = tier_ladder_cg();
  const std::size_t g = 64 * 1024;
  const MckpResult r = KnapsackSolver(g).solve_mckp(items, kTierLadderCaps);
  expect_bit_identical(r, reference_dense_mckp(items, kTierLadderCaps, g),
                       "tier_ladder cg");
  EXPECT_EQ(std::count(r.choice.begin(), r.choice.end(), 2), 0)
      << "no unit can win the CXL rung";
}

TEST(Mckp, UselessRungNoLongerForcesTheWaterfall) {
  // A 1 GiB rung no item can win (each weighs no more there than on the
  // backstop) next to a small contended tier.  Clamped only to the total
  // size, the box was 6 x 1001 x 31,601 cells, past the dense budget, and
  // the waterfall's density greedy took A alone (6.6).  Sized by the items
  // that can win, the rung spans one cell and the exact DP finds B + C.
  const std::size_t g = 64;
  const std::vector<std::size_t> caps = {1000 * g, std::size_t{1} << 30,
                                         KnapsackSolver::kUnbounded};
  const std::vector<MckpItem> items = {
      {{6.6, 0.0, 0.0}, 600 * g},        // A: densest
      {{5.0, -1.0, 0.0}, 500 * g},       // B
      {{5.0, 0.0, 0.0}, 500 * g},        // C
      {{-1.0, -0.5, 0.0}, 10000 * g},    // cold fillers
      {{-1.0, -0.5, 0.0}, 10000 * g},
      {{-1.0, 0.0, 0.0}, 10000 * g}};
  const MckpResult r = KnapsackSolver(g).solve_mckp(items, caps);
  EXPECT_EQ(r.choice, (std::vector<int>{2, 0, 0, 2, 2, 2}));
  EXPECT_DOUBLE_EQ(r.total_weight, mckp_brute_force(items, caps));
  EXPECT_DOUBLE_EQ(r.total_weight, 10.0);
}

}  // namespace
}  // namespace unimem::rt
