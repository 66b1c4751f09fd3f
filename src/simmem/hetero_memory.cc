#include "simmem/hetero_memory.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace unimem::mem {

HeteroMemory::HeteroMemory(HmsConfig cfg)
    : HeteroMemory(TopologyConfig::dram_nvm(cfg.dram, cfg.nvm)) {}

HeteroMemory::HeteroMemory(TopologyConfig cfg)
    : tiers_(std::move(cfg.tiers)) {
  if (tiers_.size() < 2) {
    std::fprintf(stderr, "HeteroMemory: need at least 2 tiers\n");
    std::abort();
  }
  arenas_.reserve(tiers_.size());
  for (const TierConfig& t : tiers_)
    arenas_.push_back(std::make_unique<Arena>(t.capacity_bytes));
}

Tier HeteroMemory::tier_of(const void* p) const {
  for (std::size_t i = 0; i < arenas_.size(); ++i)
    if (arenas_[i]->contains(p)) return tier(static_cast<int>(i));
  std::fprintf(stderr, "HeteroMemory::tier_of: unknown pointer\n");
  std::abort();
}

double HeteroMemory::copy_bandwidth(Tier from, Tier to) const {
  return std::min(tier_config(from).read_bw, tier_config(to).write_bw);
}

double HeteroMemory::copy_seconds(std::size_t bytes, Tier from, Tier to) const {
  return static_cast<double>(bytes) / copy_bandwidth(from, to);
}

}  // namespace unimem::mem
