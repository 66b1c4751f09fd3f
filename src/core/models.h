// Unimem's lightweight performance models (paper §3.1.2, Equations 1-4).
//
//   Eq. 1  BW_obj  = accessed-data-size / fraction-of-time-accessing
//   Eq. 2  BFT_bw  = (A*64/NVM_bw - A*64/DRAM_bw) * CF_bw
//   Eq. 3  BFT_lat = (A*NVM_lat - A*DRAM_lat)     * CF_lat
//   Eq. 4  COST    = max(size/copy_bw - overlap, 0)
//
// Classification thresholds: BW_obj >= t1% of peak NVM bandwidth =>
// bandwidth-sensitive (use Eq. 2); <= t2% => latency-sensitive (Eq. 3);
// in between => max(Eq. 2, Eq. 3).  Paper values: t1 = 80, t2 = 10.
//
// CF_bw / CF_lat are constant factors measured once per platform by running
// STREAM (bandwidth) and pointer-chasing (latency) benchmarks and taking
// the ratio of measured to predicted performance (see calibration.h).
#pragma once

#include <algorithm>
#include <cstdint>

#include "simmem/hetero_memory.h"

namespace unimem::rt {

/// What the profiler estimated for one (object-unit, phase) pair — derived
/// purely from sampled counters, never from simulator ground truth.
struct UnitPhaseProfile {
  std::uint64_t est_accesses = 0;  ///< estimated main-memory accesses
  double time_fraction = 0;        ///< fraction of phase time with accesses
  double phase_time_s = 0;         ///< profiled phase duration
};

enum class Sensitivity : int { kBandwidth, kLatency, kEither };

inline const char* sensitivity_name(Sensitivity s) {
  switch (s) {
    case Sensitivity::kBandwidth: return "bandwidth";
    case Sensitivity::kLatency: return "latency";
    case Sensitivity::kEither: return "either";
  }
  return "?";
}

/// Sensitivity thresholds (§3.1.2), as percentages of BW_peak: at or
/// above T1 a unit is bandwidth-sensitive, at or below T2
/// latency-sensitive.
inline constexpr double kT1Percent = 80.0;
inline constexpr double kT2Percent = 10.0;

struct ModelParams {
  double bw_peak = 0;        ///< measured peak NVM bandwidth (bytes/s)
  double cf_bw = 1.0;        ///< constant factor for Eq. 2
  double cf_lat = 1.0;       ///< constant factor for Eq. 3
};

class PerformanceModel {
 public:
  PerformanceModel(ModelParams params, const mem::TierConfig& dram,
                   const mem::TierConfig& nvm)
      : p_(params), dram_(dram), nvm_(nvm) {}

  const ModelParams& params() const { return p_; }

  /// Eq. 1: estimated main-memory bandwidth consumption of the object.
  double consumed_bandwidth(const UnitPhaseProfile& u) const {
    double active = u.time_fraction * u.phase_time_s;
    if (active <= 0) return 0;
    return static_cast<double>(u.est_accesses) * 64.0 / active;
  }

  Sensitivity classify(const UnitPhaseProfile& u) const {
    double bw = consumed_bandwidth(u);
    if (p_.bw_peak <= 0) return Sensitivity::kEither;
    double pct = 100.0 * bw / p_.bw_peak;
    if (pct >= kT1Percent) return Sensitivity::kBandwidth;
    if (pct <= kT2Percent) return Sensitivity::kLatency;
    return Sensitivity::kEither;
  }

  /// Benefit of DRAM residence over NVM (s): the Eq. 2/3 forms below on
  /// the model's own (DRAM, NVM) pair.
  double benefit(const UnitPhaseProfile& u) const {
    return benefit_between(u, dram_, nvm_);
  }

  /// Eq. 4: migration cost net of the overlappable part (s), from the
  /// copy's seconds (HeteroMemory::copy_seconds, as MigrationEngine
  /// charges it).
  double migration_cost(double copy_s, double overlap_s) const {
    return std::max(copy_s - overlap_s, 0.0);
  }

  // ---- Eqs. 2/3 for an arbitrary (fast, slow) tier pair -----------------
  // The benefit of residence in `fast` relative to `slow`.  The classic
  // searches score DRAM against NVM through benefit(); the N-tier search
  // scores every tier against the backstop.

  /// Eq. 2: benefit for a bandwidth-sensitive unit (s).
  double benefit_bandwidth_between(const UnitPhaseProfile& u,
                                   const mem::TierConfig& fast,
                                   const mem::TierConfig& slow) const {
    double bytes = static_cast<double>(u.est_accesses) * 64.0;
    return (bytes / slow.read_bw - bytes / fast.read_bw) * p_.cf_bw;
  }

  /// Eq. 3: benefit for a latency-sensitive unit (s).
  double benefit_latency_between(const UnitPhaseProfile& u,
                                 const mem::TierConfig& fast,
                                 const mem::TierConfig& slow) const {
    double a = static_cast<double>(u.est_accesses);
    return (a * slow.read_latency_s - a * fast.read_latency_s) * p_.cf_lat;
  }

  /// Sensitivity-dispatched benefit of `fast` over `slow` (paper: the
  /// "either" band takes the max of the two estimates; classification
  /// depends only on the profile and the calibrated peak, not the pair).
  double benefit_between(const UnitPhaseProfile& u, const mem::TierConfig& fast,
                         const mem::TierConfig& slow) const {
    switch (classify(u)) {
      case Sensitivity::kBandwidth: return benefit_bandwidth_between(u, fast, slow);
      case Sensitivity::kLatency: return benefit_latency_between(u, fast, slow);
      case Sensitivity::kEither:
        return std::max(benefit_bandwidth_between(u, fast, slow),
                        benefit_latency_between(u, fast, slow));
    }
    return 0;
  }

 private:
  ModelParams p_;
  mem::TierConfig dram_;
  mem::TierConfig nvm_;
};

}  // namespace unimem::rt
