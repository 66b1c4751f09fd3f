#include "core/calibration.h"

#include <algorithm>

#include "common/units.h"
#include "perfmon/sampler.h"

namespace unimem::rt {

namespace {

/// Microbenchmark working set (>> LLC) and sampler base seed.
constexpr std::size_t kRegionBytes = 16 * kMiB;
constexpr std::uint64_t kSamplerSeed = 7;

struct MicrobenchResult {
  std::uint64_t est_accesses = 0;  ///< from the sampled counters
  double time_fraction = 0;
  double phase_time_s = 0;
  double measured_mem_s = 0;       ///< the "ground truth" timing
};

/// Run one synthetic descriptor through cache + timing + sampler, exactly
/// like an application phase, and recover the sampled view of it.
MicrobenchResult run_microbench(const cache::AccessDescriptor& d,
                                const mem::TierConfig& tier,
                                cache::CacheModel& cache,
                                const clk::TimingParams& timing,
                                std::uint64_t seed) {
  cache.reset();
  cache::AccessResult r = cache.process(d, timing.default_mlp);

  const double mem_s = ExecEngine::mem_time(r, tier, d.write_fraction);

  // A microbenchmark phase: negligible compute, one memory window.
  perf::Sampler sampler(timing, seed);
  std::vector<perf::MemWindow> windows{perf::MemWindow{
      reinterpret_cast<std::uint64_t>(d.base), d.region_bytes, r.misses,
      mem_s}};
  perf::PhaseSamples s = sampler.sample_phase(windows, 0.0, mem_s);

  MicrobenchResult out;
  out.phase_time_s = mem_s;
  out.measured_mem_s = mem_s;
  if (s.total_samples > 0) {
    // All addresses belong to the single region; apportionment is trivial
    // but goes through the same arithmetic the profiler uses.
    std::uint64_t n_attr = s.miss_addresses.size();
    out.est_accesses = n_attr == 0 ? 0 : s.total_miss_count;
    out.time_fraction =
        static_cast<double>(n_attr) / static_cast<double>(s.total_samples);
  }
  return out;
}

}  // namespace

ModelParams calibrate(const mem::TierConfig& dram, const mem::TierConfig& nvm,
                      cache::CacheModel& cache,
                      const clk::TimingParams& timing) {
  ModelParams p;

  // A scratch buffer to give descriptors real addresses (contents unused).
  std::vector<std::byte> scratch(kRegionBytes);

  // --- BW_peak: STREAM over NVM, maximum concurrency (Eq. 1) -------------
  cache::AccessDescriptor stream;
  stream.base = scratch.data();
  stream.region_bytes = kRegionBytes;
  stream.pattern = cache::Pattern::kSequential;
  stream.accesses = 2 * (kRegionBytes / 8);  // two passes over doubles
  stream.access_bytes = 8;

  MicrobenchResult nvm_stream =
      run_microbench(stream, nvm, cache, timing, kSamplerSeed);
  if (nvm_stream.time_fraction > 0) {
    p.bw_peak = static_cast<double>(nvm_stream.est_accesses) * 64.0 /
                (nvm_stream.time_fraction * nvm_stream.phase_time_s);
  } else {
    p.bw_peak = nvm.read_bw;  // degenerate (no samples): fall back
  }

  // --- CF_bw: STREAM, predicted vs measured on DRAM ----------------------
  MicrobenchResult dram_stream =
      run_microbench(stream, dram, cache, timing, kSamplerSeed + 1);
  double predicted_bw_s =
      static_cast<double>(dram_stream.est_accesses) * 64.0 / dram.read_bw;
  p.cf_bw = predicted_bw_s > 0 ? dram_stream.measured_mem_s / predicted_bw_s
                               : 1.0;

  // --- CF_lat: pointer chase (single thread, no concurrency) on DRAM -----
  cache::AccessDescriptor chase;
  chase.base = scratch.data();
  chase.region_bytes = kRegionBytes;
  chase.pattern = cache::Pattern::kPointerChase;
  chase.accesses = std::max<std::uint64_t>(1, kRegionBytes / 1024);
  chase.access_bytes = 8;

  MicrobenchResult dram_chase =
      run_microbench(chase, dram, cache, timing, kSamplerSeed + 2);
  double predicted_lat_s =
      static_cast<double>(dram_chase.est_accesses) * dram.read_latency_s;
  p.cf_lat = predicted_lat_s > 0
                 ? dram_chase.measured_mem_s / predicted_lat_s
                 : 1.0;

  cache.reset();
  return p;
}

}  // namespace unimem::rt
