// Knapsack solver for placement decisions.
//
// Paper §3.1.3: "Given the DRAM size limitation, our data placement problem
// is to maximize total weights of data objects in DRAM while satisfying the
// DRAM size constraint.  This is a 0-1 knapsack problem", solved by dynamic
// programming.  On an N-tier machine the problem generalizes to a
// multiple-choice knapsack (MCKP): each unit picks *a* tier — not in/out of
// DRAM — under per-tier capacities.  solve_mckp() is the one exact DP; the
// paper's 0-1 problem is its K=2 case, weights {w, 0} over capacities
// {C, kUnbounded}, with choice 0 meaning "selected".  Sizes are quantized
// to a granule, each tier's DP dimension spans only the capacity its items
// can use, and instances past a dense-cell budget degrade to
// solve_bounded(), a 1/2-approximation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace unimem::rt {

/// One 0-1 item for solve_bounded().
struct KnapsackItem {
  double weight = 0;       ///< value of keeping this item in DRAM (seconds)
  std::size_t bytes = 0;   ///< item size
};

struct KnapsackResult {
  std::vector<std::size_t> selected;  ///< indices into the item array
  double total_weight = 0;
  std::size_t total_bytes = 0;
};

/// One unit in the multiple-choice (N-tier) placement problem.  weights[k]
/// is the value of placing the unit in tier k, in the same seconds currency
/// as KnapsackItem::weight; the arity must equal the capacity vector's.
struct MckpItem {
  std::vector<double> weights;
  std::size_t bytes = 0;
};

struct MckpResult {
  std::vector<int> choice;  ///< choice[i] = tier index picked for item i
  double total_weight = 0;  ///< sum of weights[i][choice[i]]
};

class KnapsackSolver {
 public:
  /// `granule` quantizes sizes for the DP (default 64 KiB).
  explicit KnapsackSolver(std::size_t granule = 64 * 1024)
      : granule_(granule) {}

  /// Bounded 0-1 1/2-approximation without a dense DP, at any instance
  /// size: quantized density greedy refined with the best single item.
  /// Items with non-positive weight or larger than the capacity are never
  /// selected, and when every candidate fits all are taken.  Used by the
  /// incremental re-planner to re-score only the drifted/displaced items
  /// over the freed capacity slice (O(n log n) in the candidate count,
  /// independent of the capacity) and by solve_mckp() past its cell budget.
  KnapsackResult solve_bounded(const std::vector<KnapsackItem>& items,
                               std::size_t capacity_bytes) const;

  /// Capacity sentinel for solve_mckp: the tier is unmetered.  At least one
  /// entry of the capacity vector must be kUnbounded (the backstop tier that
  /// can absorb everything) or the instance has no guaranteed-feasible
  /// choice and solve_mckp throws std::invalid_argument.
  static constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

  /// Multiple-choice knapsack: every item picks exactly one tier,
  /// maximizing total weight subject to per-tier byte capacities
  /// (kUnbounded entries are unmetered).  Contract:
  ///   - every item's weights arity must equal capacities.size(), and at
  ///     least one capacity must be kUnbounded, else std::invalid_argument;
  ///   - sizes are quantized to the granule, rounded up, and capacities
  ///     rounded down, so a selection can never over-commit a tier;
  ///   - the solution is exact (multi-dimensional rolling DP) while
  ///     n x prod(useful cap_j + 1) fits a fixed cell budget; useful cap_j
  ///     is tier j's granule capacity capped at the granules of the items
  ///     that weigh more there than on their best unbounded tier, so a
  ///     tier no item can win costs nothing;
  ///   - past the budget it degrades to a waterfall of per-tier
  ///     solve_bounded() passes in tier-index order, scoring each item by
  ///     its marginal weight over its best unbounded choice;
  ///   - ties prefer the unbounded choice, then the lower constrained tier
  ///     index, so results are deterministic.  At K=2 with weights {w, 0}
  ///     an item with w <= 0 therefore never takes the constrained tier.
  MckpResult solve_mckp(const std::vector<MckpItem>& items,
                        const std::vector<std::size_t>& capacities) const;

 private:
  std::size_t granule_;
};

}  // namespace unimem::rt
