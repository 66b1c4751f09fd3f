#include "baselines/xmen.h"

#include <algorithm>

#include "common/units.h"

namespace unimem::baseline {

std::vector<std::string> xmen_placement(
    const std::map<std::string, ObjectProfile>& profiles,
    const mem::TierConfig& dram, const mem::TierConfig& nvm,
    std::size_t dram_budget) {
  struct Cand {
    std::string name;
    double density = 0;  ///< benefit per byte
    std::size_t bytes = 0;
  };
  std::vector<Cand> cands;
  for (const auto& [name, p] : profiles) {
    if (p.misses == 0 || p.bytes == 0) continue;
    // Whole-run stall estimate on each memory, from the traced pattern
    // class (streaming => bandwidth bound; pointer chasing => latency
    // bound; random => the max of both), homogeneous over the object.
    const double bytes_moved = static_cast<double>(p.misses) * 64.0;
    double nvm_s = 0, dram_s = 0;
    switch (p.dominant_pattern()) {
      case cache::Pattern::kSequential:
      case cache::Pattern::kStrided:
        nvm_s = bytes_moved / nvm.read_bw;
        dram_s = bytes_moved / dram.read_bw;
        break;
      case cache::Pattern::kPointerChase:
        nvm_s = p.serialized_misses * nvm.read_latency_s;
        dram_s = p.serialized_misses * dram.read_latency_s;
        break;
      case cache::Pattern::kRandom:
      case cache::Pattern::kGather:
        nvm_s = std::max(bytes_moved / nvm.read_bw,
                         p.serialized_misses * nvm.read_latency_s);
        dram_s = std::max(bytes_moved / dram.read_bw,
                          p.serialized_misses * dram.read_latency_s);
        break;
    }
    double benefit = nvm_s - dram_s;
    if (benefit <= 0) continue;
    cands.push_back(
        Cand{name, benefit / static_cast<double>(p.bytes), p.bytes});
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Cand& a, const Cand& b) {
                     return a.density > b.density;
                   });
  std::vector<std::string> placed;
  std::size_t used = 0;
  for (const Cand& c : cands) {
    // Allocations round up to cache-line multiples; pack what will
    // actually be charged against the DRAM allowance.
    std::size_t charged = align_up(c.bytes, kCacheLine);
    if (used + charged > dram_budget) continue;
    used += charged;
    placed.push_back(c.name);
  }
  return placed;
}

}  // namespace unimem::baseline
