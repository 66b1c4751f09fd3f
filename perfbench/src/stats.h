// Statistics helpers of the per-World cost benchmark: tail-percentile
// rule, nearest-rank quantiles, geometric mean, the per-World ledger
// subtraction, and the seed-determined point order and slice.  Pure
// functions, unit-tested in perfbench/tests/stats_test.cc.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace perfbench {

/// Samples that lie strictly beyond the nearest-rank `q`-quantile of `n`
/// samples: the quantile is the ceil(q*n)-th smallest value.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(n, rank);
}

/// Nearest-rank `q`-quantile (0 < q <= 1) of `v`; throws when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of no samples");
  const std::size_t rank =
      std::max<std::size_t>(1, v.size() - samples_beyond(v.size(), q));
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return v[rank - 1];
}

/// The tail percentile to report for `n` samples: the highest of 50, 90,
/// 99, 99.9 and 99.99 that still has at least 10 samples beyond it; 0
/// when not even the median has.
inline double tail_percentile(std::size_t n) {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99})
    if (samples_beyond(n, p / 100.0) >= 10) best = p;
  return best;
}

/// Geometric mean; throws on an empty input or a non-positive value.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("geomean of no values");
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) throw std::invalid_argument("geomean needs positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// World wall time the ledger leaves unexplained.  `world_parts` are
/// spans on the thread that runs the World (set-up, spawn, join,
/// teardown); `rank_parts_sum` are rank-thread spans summed over all
/// `nranks` ranks, which run in parallel, so they count once per rank's
/// share of the wall.  Signed on purpose: a negative result exposes a
/// span counted twice.
inline double unattributed(double world_wall, double world_parts,
                           double rank_parts_sum, int nranks) {
  if (nranks < 1) throw std::invalid_argument("a World has at least one rank");
  return world_wall - world_parts - rank_parts_sum / nranks;
}

/// Execution order of `n` points for `seed`: a Fisher-Yates permutation
/// of 0..n-1 driven by the repository's SplitMix64 generator, so it is
/// the same on every platform.
inline std::vector<std::size_t> execution_order(std::size_t n,
                                                std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  unimem::Rng rng(seed ^ 0x6f72646572ull);  // "order"
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

/// A seeded slice that keeps a grid's mix: from each of `groups` runs of
/// `group_size` consecutive points it keeps `per_group` points, those whose
/// offset in the run is congruent to a seed-chosen residue modulo
/// stride = group_size / per_group.  Residues are dealt so that every
/// offset is kept in exactly groups / stride runs.  Returns increasing
/// indices; throws unless per_group divides group_size and the stride
/// divides groups.
inline std::vector<std::size_t> stratified_slice(std::size_t groups,
                                                 std::size_t group_size,
                                                 std::size_t per_group,
                                                 std::uint64_t seed) {
  if (per_group == 0 || group_size % per_group != 0 ||
      groups % (group_size / per_group) != 0)
    throw std::invalid_argument("slice does not tile the point grid");
  const std::size_t stride = group_size / per_group;
  const std::vector<std::size_t> deal =
      execution_order(groups, seed ^ 0x736c696365ull);  // "slice"
  std::vector<std::size_t> out;
  out.reserve(groups * per_group);
  for (std::size_t g = 0; g < groups; ++g)
    for (std::size_t j = 0; j < per_group; ++j)
      out.push_back(g * group_size + deal[g] % stride + j * stride);
  return out;
}

}  // namespace perfbench
