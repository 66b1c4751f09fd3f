// Hardware performance-counter emulation.
//
// Paper §3.1.1: "we collect the number of last level cache miss events, and
// then map the event information to data objects.  Leveraging the common
// sampling mode in performance counters (e.g., Precise Event-Based Sampling
// from Intel ...), we collect memory addresses whose associated memory
// references cause last level cache misses."
//
// The sampler reproduces that evidence stream: given the ground-truth
// per-region memory activity of a phase (which the cache+timing substrate
// knows), it emits
//   * the aggregate LLC-miss count for the phase (a precise counter),
//   * one sample every `sample_interval_cycles` of virtual time; a sample
//     carries the address of an in-flight miss if one exists at that time.
// Unimem's profiler consumes ONLY this output — never the ground truth —
// so modeling error and the paper's CF_bw / CF_lat correction factors stay
// meaningful.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "perfmon/sample_gate.h"
#include "simclock/timing_params.h"

namespace unimem::perf {

/// Ground-truth memory activity of one region during one phase, as known by
/// the simulation substrate (not visible to the Unimem planner).
struct MemWindow {
  std::uint64_t region_base = 0;   ///< start address of the live allocation
  std::uint64_t region_bytes = 0;
  std::uint64_t misses = 0;        ///< LLC misses served from main memory
  double mem_time_s = 0;           ///< modeled stall time of this region
};

/// What the "PMU" hands to the profiler for one phase.
struct PhaseSamples {
  std::uint64_t total_samples = 0;     ///< time samples taken in the phase
  std::uint64_t total_miss_count = 0;  ///< aggregate LLC-miss counter
  /// Addresses captured by samples that observed an in-flight miss.
  std::vector<std::uint64_t> miss_addresses;
};

/// Sampled-tier schedule for one phase (RuntimeOptions::sample_period > 0):
/// only every ~`period`-th base PMU event is captured, on a SampleGate
/// schedule seeded per (rank, phase, epoch) — see perfmon/sample_gate.h
/// for the determinism contract.
struct SampledConfig {
  std::uint64_t period = 64;  ///< base PMU periods per captured sample
  std::uint64_t seed = 0;     ///< schedule_seed(base, rank, phase, epoch)
};

class Sampler {
 public:
  explicit Sampler(clk::TimingParams params, std::uint64_t seed = 12345)
      : params_(params), rng_(seed) {}

  /// Emulate sampling over one phase.  The phase timeline is laid out as
  /// `compute_time_s` of computation followed by the memory windows in
  /// order; each time sample falling inside a window captures a uniformly
  /// random address within that window's region.
  PhaseSamples sample_phase(const std::vector<MemWindow>& windows,
                            double compute_time_s, double phase_time_s);

  /// Sampled-tier emulation of the same phase: the base sample clock still
  /// ticks every sample_interval_cycles, but only gate-selected ticks are
  /// captured.  total_samples counts the captured ticks (the denominator
  /// of Eq. 1's time fraction) and total_miss_count stays the precise
  /// aggregate counter, so apportioned estimates remain unbiased — just
  /// noisier by ~sqrt(period).  Uses only `cfg.seed` (never the member
  /// RNG), so exact-mode streams are bit-identical with or without
  /// sampled-mode calls interleaved.
  PhaseSamples sample_phase(const std::vector<MemWindow>& windows,
                            double compute_time_s, double phase_time_s,
                            const SampledConfig& cfg);

  const clk::TimingParams& params() const { return params_; }

 private:
  clk::TimingParams params_;
  Rng rng_;
};

}  // namespace unimem::perf
