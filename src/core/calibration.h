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
#pragma once

#include "core/exec_engine.h"
#include "core/models.h"
#include "simcache/cache_model.h"
#include "simclock/timing_params.h"
#include "simmem/tier_config.h"

namespace unimem::rt {

/// Measure BW_peak / CF_bw / CF_lat for a machine whose fastest tier is
/// `dram` and whose backstop is `nvm`, with the given cache + timing, and
/// return a ready-to-use ModelParams.
ModelParams calibrate(const mem::TierConfig& dram, const mem::TierConfig& nvm,
                      cache::CacheModel& cache,
                      const clk::TimingParams& timing);

}  // namespace unimem::rt
