// Execution engine: the shared substrate that turns a phase's access
// descriptors into modeled time, LLC misses and PMU windows.  Used by the
// Unimem runtime and by the static-placement baselines so that all policies
// are timed by the *same* model.
//
// The memory time of one region on one tier is
//     max(miss_bytes / BW_eff,  serialized_misses * LAT_eff)
// — the bandwidth term dominates for massive independent accesses, the
// latency term for dependent chains, reproducing Observation 3 of the
// paper.  BW/LAT are read/write mixes of the tier's parameters.
#pragma once

#include <memory>
#include <vector>

#include "core/object.h"
#include "perfmon/sampler.h"
#include "simcache/cache_model.h"
#include "simclock/timing_params.h"
#include "simmem/hetero_memory.h"

namespace unimem::rt {

/// One object access inside a phase, as declared by the workload.  The
/// region defaults to the whole object; offset/length select a sub-range
/// (used by workloads to express per-chunk traversals).
struct ObjectAccess {
  DataObject* object = nullptr;
  cache::Pattern pattern = cache::Pattern::kSequential;
  std::uint64_t accesses = 0;
  std::uint32_t access_bytes = 8;
  std::size_t stride_bytes = 64;
  double write_fraction = 0;
  int mlp = 0;       ///< 0 = pattern default
  std::size_t offset = 0;
  std::size_t length = 0;  ///< 0 = to end of object
};

/// Compute work submitted for the current phase.
struct PhaseWork {
  double flops = 0;
  std::vector<ObjectAccess> accesses;
};

/// Result of executing one phase's work through the model.
struct PhaseExec {
  double compute_s = 0;
  double mem_s = 0;
  std::vector<perf::MemWindow> windows;               ///< for the sampler
  std::vector<std::pair<UnitRef, cache::AccessResult>> unit_results;

  double total_s() const { return compute_s + mem_s; }
};

class ExecEngine {
 public:
  ExecEngine(mem::HeteroMemory* hms, cache::CacheModel* cache,
             clk::TimingParams timing)
      : hms_(hms), cache_(cache), timing_(timing) {}

  /// Model the given work against the objects' *current* placements.
  PhaseExec run(const PhaseWork& work) const;

  /// Memory time of one access result on one tier: the formula above.
  /// Reads no engine state, so offline calibration (core/calibration.h)
  /// times its microbenchmarks with it too.
  static double mem_time(const cache::AccessResult& r,
                         const mem::TierConfig& tier, double write_fraction);

  const clk::TimingParams& timing() const { return timing_; }
  cache::CacheModel& cache() { return *cache_; }

 private:
  mem::HeteroMemory* hms_;
  cache::CacheModel* cache_;
  clk::TimingParams timing_;
};

}  // namespace unimem::rt
