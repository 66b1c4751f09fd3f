#include "core/knapsack.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace unimem::rt {

namespace {

/// Quantized size in granules, rounded up (an item must fully fit).
std::size_t granules(std::size_t bytes, std::size_t granule) {
  return (bytes + granule - 1) / granule;
}

/// Dense-DP size guard: past this many table cells the pseudo-polynomial
/// DP stops being "lightweight enough to run online" (paper §3.1.3) and
/// the solver switches to the bounded-approximation path.
constexpr std::size_t kDenseDpCellBudget = std::size_t{1} << 25;

}  // namespace

KnapsackResult KnapsackSolver::solve_bounded(
    const std::vector<KnapsackItem>& items, std::size_t capacity_bytes) const {
  KnapsackResult out;
  const std::size_t cap = capacity_bytes / granule_;
  if (cap == 0 || items.empty()) return out;

  // Candidates: positive weight, fits at all.  Track quantized sizes once.
  std::vector<std::size_t> cand;
  std::vector<std::size_t> gsz;
  std::size_t total_g = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].weight <= 0) continue;
    const std::size_t g = granules(items[i].bytes, granule_);
    if (g > cap) continue;
    cand.push_back(i);
    gsz.push_back(g);
    total_g += g;
  }
  if (cand.empty()) return out;
  if (total_g <= cap) {  // everything fits: nothing to optimize
    for (std::size_t i : cand) {
      out.selected.push_back(i);
      out.total_weight += items[i].weight;
      out.total_bytes += items[i].bytes;
    }
    return out;
  }

  // Density greedy on the quantized sizes (so the capacity accounting is
  // identical to the DP's), refined with the best single candidate: the
  // better of the two is a 1/2-approximation of the DP optimum.
  std::vector<std::size_t> order(cand.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return items[cand[a]].weight * static_cast<double>(gsz[b]) >
           items[cand[b]].weight * static_cast<double>(gsz[a]);
  });

  std::size_t used = 0;
  std::size_t best_single = order[0];
  for (std::size_t ci : order) {
    if (items[cand[ci]].weight > items[cand[best_single]].weight)
      best_single = ci;
    if (used + gsz[ci] > cap) continue;
    used += gsz[ci];
    out.selected.push_back(cand[ci]);
    out.total_weight += items[cand[ci]].weight;
    out.total_bytes += items[cand[ci]].bytes;
  }
  if (items[cand[best_single]].weight > out.total_weight) {
    out = KnapsackResult{};
    out.selected.push_back(cand[best_single]);
    out.total_weight = items[cand[best_single]].weight;
    out.total_bytes = items[cand[best_single]].bytes;
  }
  std::sort(out.selected.begin(), out.selected.end());
  return out;
}

MckpResult KnapsackSolver::solve_mckp(
    const std::vector<MckpItem>& items,
    const std::vector<std::size_t>& capacities) const {
  const std::size_t K = capacities.size();
  if (K == 0)
    throw std::invalid_argument("solve_mckp: empty capacity vector");
  std::vector<int> unbounded;
  std::vector<int> constrained;
  for (std::size_t k = 0; k < K; ++k) {
    if (capacities[k] == kUnbounded)
      unbounded.push_back(static_cast<int>(k));
    else
      constrained.push_back(static_cast<int>(k));
  }
  if (unbounded.empty())
    throw std::invalid_argument(
        "solve_mckp: at least one tier must be kUnbounded (the backstop)");
  for (const MckpItem& it : items)
    if (it.weights.size() != K)
      throw std::invalid_argument(
          "solve_mckp: item weight arity != tier count");

  MckpResult out;
  const std::size_t n = items.size();
  out.choice.assign(n, 0);

  // Baseline: every item takes its best unbounded tier (any other
  // unbounded choice is dominated, so the DP never needs to consider it).
  std::vector<int> best_u(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    int best = unbounded.front();
    for (int k : unbounded)
      if (items[i].weights[k] > items[i].weights[best]) best = k;
    best_u[i] = best;
    out.choice[i] = best;
  }

  auto finish = [&] {
    out.total_weight = 0;
    for (std::size_t i = 0; i < n; ++i)
      out.total_weight += items[i].weights[out.choice[i]];
    return out;
  };
  if (constrained.empty() || n == 0) return finish();

  // Quantize once.  An option can win only when it weighs strictly more
  // than the item's best unbounded choice: `pick` moves on a strict > and
  // the DP value is monotone in capacity.  So each dimension is clamped to
  // the granules of the items that can win there; cells past that repeat
  // the cell at that sum, and the reconstruction's queries clamp likewise.
  const std::size_t m = constrained.size();
  std::vector<std::size_t> gsz(n), cap(m, 0);
  for (std::size_t i = 0; i < n; ++i) {
    gsz[i] = granules(items[i].bytes, granule_);
    for (std::size_t j = 0; j < m; ++j)
      if (items[i].weights[constrained[j]] > items[i].weights[best_u[i]])
        cap[j] += gsz[i];
  }
  for (std::size_t j = 0; j < m; ++j)
    cap[j] = std::min(capacities[constrained[j]] / granule_, cap[j]);

  // Dense-DP budget: n x prod(cap_j + 1) cells, overflow-safely.
  bool dense = true;
  std::size_t P = 1;
  for (std::size_t j = 0; j < m && dense; ++j) {
    if (P > kDenseDpCellBudget / (cap[j] + 1)) dense = false;
    else P *= cap[j] + 1;
  }
  if (dense && P > kDenseDpCellBudget / n) dense = false;

  if (!dense) {
    // Waterfall fallback: fill constrained tiers in index order through
    // solve_bounded(), each pass scoring still-unassigned items by their
    // marginal weight over their best unbounded choice.
    std::vector<char> assigned(n, 0);
    for (std::size_t j = 0; j < m; ++j) {
      const int tier = constrained[j];
      std::vector<KnapsackItem> sub;
      std::vector<std::size_t> map;
      for (std::size_t i = 0; i < n; ++i) {
        if (assigned[i]) continue;
        sub.push_back(KnapsackItem{
            items[i].weights[tier] - items[i].weights[best_u[i]],
            items[i].bytes});
        map.push_back(i);
      }
      const KnapsackResult r = solve_bounded(sub, capacities[tier]);
      for (std::size_t s : r.selected) {
        out.choice[map[s]] = tier;
        assigned[map[s]] = 1;
      }
    }
    return finish();
  }

  // Exact multi-dimensional DP: two rolling value arrays over the
  // flattened product of the useful granule capacities, plus a
  // per-item pick table for reconstruction (-1 = best unbounded choice,
  // j = constrained dimension j).
  std::vector<std::size_t> stride(m, 1);
  for (std::size_t j = 1; j < m; ++j) stride[j] = stride[j - 1] * (cap[j - 1] + 1);

  std::vector<double> prev(P, 0.0);
  std::vector<double> next(P, 0.0);
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
      for (std::size_t j = 0; j < m; ++j) {  // odometer increment
        if (++coord[j] <= cap[j]) break;
        coord[j] = 0;
      }
    }
    prev.swap(next);
  }

  // Reconstruct from the full-capacity cell (mixed-radix index P - 1).
  std::size_t idx = P - 1;
  for (std::size_t i = n; i-- > 0;) {
    const std::int8_t pk = pick[i * P + idx];
    if (pk >= 0) {
      out.choice[i] = constrained[pk];
      idx -= gsz[i] * stride[pk];
    }
  }
  return finish();
}

}  // namespace unimem::rt
