// The heterogeneous main-memory system (HMS): an ordered set of memory
// tiers sharing a physical address space (one arena per tier in the host
// process).  The paper's machine is the 2-tier special case — one small
// fast DRAM tier and one large slow NVM tier; a TopologyConfig generalizes
// to N tiers (HBM above DRAM, CXL far memory, remote pools).  Provides
// tier-tagged allocation and the inter-tier copy-cost model used by the
// migration engine (paper Eq. 4's `data_size / mem_copy_bw` term).
//
// Lifetime: a HeteroMemory lives for one World, but its arenas' buffers
// do not.  Each tier's arena draws its buffer from the process-wide pool
// under the tier's name and returns it at destruction (see arena.h), so a
// fresh HeteroMemory may hand out bytes a previous World wrote.  Nothing
// reads them: Registry::create zeroes every chunk it places, and a
// migration overwrites its whole destination chunk.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "simmem/arena.h"
#include "simmem/tier_config.h"

namespace unimem::mem {

/// A tier is an *index* into the HMS's ordered tier list: 0 is the fastest
/// tier, the last is the unconstrained backstop where objects start.  The
/// two named values are the paper's 2-tier machine; N-tier code addresses
/// intermediate tiers with tier(i).
enum class Tier : int { kDram = 0, kNvm = 1 };

inline Tier tier(int index) { return static_cast<Tier>(index); }
inline int tier_index(Tier t) { return static_cast<int>(t); }

/// The paper's 2-tier machine as a {DRAM, NVM} pair — a constructor
/// argument only: a HeteroMemory keeps just its tier list, and code that
/// needs the fastest tier or the backstop reads tier_config().
struct HmsConfig {
  TierConfig dram;
  TierConfig nvm;

  /// Evaluation default: 8 MiB DRAM + 512 MiB NVM (the paper's 256 MB DRAM /
  /// 16 GB NVM scaled down by 32x), NVM at `bw_ratio` of DRAM bandwidth and
  /// `lat_mult` of DRAM latency.
  static HmsConfig scaled(double bw_ratio, double lat_mult,
                          std::size_t dram_cap = 8 * kMiB,
                          std::size_t nvm_cap = 512 * kMiB) {
    return HmsConfig{TierConfig::dram_basis(dram_cap),
                     TierConfig::nvm_scaled(nvm_cap, bw_ratio, lat_mult)};
  }
};

class HeteroMemory {
 public:
  /// The paper's 2-tier machine: the ladder {cfg.dram, cfg.nvm}.
  explicit HeteroMemory(HmsConfig cfg);
  /// An N-tier machine (cfg.tiers.size() >= 2, fastest first, backstop
  /// last).
  explicit HeteroMemory(TopologyConfig cfg);

  std::size_t num_tiers() const { return tiers_.size(); }
  /// The unconstrained last tier where every object starts (== kNvm on the
  /// 2-tier machine).
  Tier backstop_tier() const {
    return tier(static_cast<int>(tiers_.size()) - 1);
  }

  const TierConfig& tier_config(Tier t) const {
    return tiers_[static_cast<std::size_t>(tier_index(t))];
  }

  Arena& arena(Tier t) {
    return *arenas_[static_cast<std::size_t>(tier_index(t))];
  }
  const Arena& arena(Tier t) const {
    return *arenas_[static_cast<std::size_t>(tier_index(t))];
  }

  /// Allocate in the requested tier; nullptr if it does not fit.
  void* allocate(Tier t, std::size_t bytes) { return arena(t).allocate(bytes); }
  void deallocate(Tier t, void* p) { arena(t).deallocate(p); }

  /// Modeled seconds to copy `bytes` from `from` to `to`: limited by the
  /// source read bandwidth and destination write bandwidth.  The one copy
  /// price: the planners, the re-planner and MigrationEngine all use it.
  double copy_seconds(std::size_t bytes, Tier from, Tier to) const;

 private:
  std::vector<TierConfig> tiers_;
  std::vector<std::unique_ptr<Arena>> arenas_;
};

}  // namespace unimem::mem
