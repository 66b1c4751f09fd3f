// Offline model calibration (paper §3.1.2).
//
// "To measure BW_peak, we run a highly memory bandwidth intensive
// benchmark, the STREAM benchmark, with maximum memory concurrency, and use
// Equation 1 and performance counters."  CF_bw is the ratio of measured to
// predicted performance for STREAM; CF_lat likewise for a single-threaded
// pointer-chasing benchmark.  "Given a hardware platform, CF_bw and CF_lat
// need to be calculated only once."
//
// We run the same two microbenchmarks through the same cache model, the
// same memory-time formula (ExecEngine::mem_time) and the same sampler
// capture loop the runtime uses online, so the factors absorb exactly the
// modeling errors the paper's factors absorb (sampling loss, MLP overlap).
//
// Lifetime: like the paper's, calibration runs once per machine, not once
// per World.  calibrate() memoizes its result process-wide, keyed on every
// input the measurement reads (the speed fields of both tiers, the cache
// model's type and geometry, and the timing), and single-flight:
// concurrent ranks on one miss wait for one measurement.  The scratch
// region's address is not in the key because the result does not depend
// on it: each microbenchmark starts from a reset cache and touches lines
// at fixed offsets from the region's first line, and moving all of them by
// the same number of lines only relabels the sets of the exact LLC.
#pragma once

#include <cstddef>

#include "common/units.h"
#include "core/exec_engine.h"
#include "core/models.h"
#include "simcache/cache_model.h"
#include "simclock/timing_params.h"
#include "simmem/tier_config.h"

namespace unimem::rt {

/// Bytes of the microbenchmarks' working set (>> LLC).
inline constexpr std::size_t kCalibrationRegionBytes = 16 * kMiB;

/// Measure BW_peak / CF_bw / CF_lat for a machine whose fastest tier is
/// `dram` and whose backstop is `nvm`, with the given cache + timing, and
/// return a ready-to-use ModelParams.  Memoized as described above.
ModelParams calibrate(const mem::TierConfig& dram, const mem::TierConfig& nvm,
                      cache::CacheModel& cache,
                      const clk::TimingParams& timing);

/// The measurement itself, unmemoized, with the microbenchmarks' addresses
/// in the kCalibrationRegionBytes at `region` (which is never dereferenced).
ModelParams calibrate_at(const std::byte* region, const mem::TierConfig& dram,
                         const mem::TierConfig& nvm, cache::CacheModel& cache,
                         const clk::TimingParams& timing);

}  // namespace unimem::rt
