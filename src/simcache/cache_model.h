// Cache-model interface: turns an access descriptor into LLC miss counts.
// Two implementations exist:
//   * ExactCache    - a set-associative LRU simulator (ground truth, slow)
//   * AnalyticCache - closed-form miss estimates (fast path for benches)
// CacheAgreement.AnalyticTracksExact (tests/simcache_test.cc) checks that
// the two agree across the pattern space.
#pragma once

#include <cstddef>

#include "simcache/access_descriptor.h"

namespace unimem::cache {

struct CacheConfig {
  std::size_t size_bytes = 1 << 20;  ///< 1 MiB LLC (scaled down with the data)
  int ways = 16;
  std::size_t line_bytes = 64;

  std::size_t num_sets() const { return size_bytes / (line_bytes * ways); }
  std::size_t num_lines() const { return size_bytes / line_bytes; }
};

class CacheModel {
 public:
  virtual ~CacheModel() = default;

  /// Run one descriptor through the model, updating internal state and
  /// returning miss statistics.  `default_mlp` comes from TimingParams.
  virtual AccessResult process(const AccessDescriptor& d, int default_mlp) = 0;

  /// Drop all cached state (e.g. between independent experiments).
  virtual void reset() = 0;

  virtual const CacheConfig& config() const = 0;
};

}  // namespace unimem::cache
