// Workload interface: phase-structured iterative MPI mini-apps mirroring
// the paper's benchmarks (NPB CG/FT/BT/LU/SP/MG and Nek5000-eddy).
//
// Each workload allocates the *same target data objects* as the paper's
// Table 3, runs an iterative main loop whose phases are delineated by
// (mini-)MPI calls, performs real (scaled-down) arithmetic on the object
// payloads so data integrity across migrations is checkable, and declares
// its per-phase access patterns to the memory substrate through PhaseWork
// descriptors.
//
// A workload runs against any rt::Context — the Unimem runtime or a static
// placement baseline — which is how the paper's policy comparisons are
// produced.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/units.h"
#include "core/context.h"

namespace unimem::wl {

struct WorkloadConfig {
  /// NPB-style input class, scaled down with the memory sizes: S/A/C/D.
  char cls = 'C';
  int iterations = 10;
  /// Ranks sharing the global problem (strong scaling divides the data).
  int nranks = 4;

  // ---- drift injection (dynamic-workload scenarios) ---------------------
  /// Amplitude of the seeded multiplicative perturbation DriftSchedule
  /// applies to each phase's declared access counts: factors are drawn
  /// uniformly from [1 - a, 1 + a).  0 (default) = static workload.
  /// Perturbs only the *modeled* traffic, never the touch kernels, so
  /// checksums stay placement- and drift-invariant.
  double drift_amplitude = 0.0;
  /// Iterations per drift window: factors re-draw every `drift_period`
  /// iterations (piecewise-constant step drifts, the shape the adaptive
  /// re-planner's epoch cadence is built to catch).
  int drift_period = 4;
  std::uint64_t drift_seed = 0x9e3779b9ull;

  /// Global problem footprint for the class across all ranks.  Chosen so
  /// that at the paper's base configuration (class C, 4 ranks, 8 MiB DRAM
  /// ~ 256 MB) a rank's target objects are ~2x the DRAM allowance — the
  /// same "most-but-not-all fits" regime as NPB class C vs 256 MB.
  std::size_t global_footprint() const {
    switch (cls) {
      case 'S': return 8 * kMiB;
      case 'A': return 24 * kMiB;
      case 'C': return 48 * kMiB;
      case 'D': return 96 * kMiB;
      default: return 48 * kMiB;
    }
  }
  /// Per-rank share of the footprint.
  std::size_t rank_bytes() const {
    return global_footprint() / static_cast<std::size_t>(nranks < 1 ? 1 : nranks);
  }
};

/// Seeded drift-injection schedule: a multiplicative access-weight factor
/// per (iteration window, phase), piecewise-constant over
/// `drift_period` iterations.  Pure function of the config — identical on
/// every rank, so collectives stay balanced and runs stay deterministic.
/// Workloads feed the factor to WorkBuilder's scale so per-unit profile
/// weights genuinely shift between windows (each phase drifts
/// independently, and units mix phases differently).
class DriftSchedule {
 public:
  explicit DriftSchedule(const WorkloadConfig& cfg);

  bool active() const { return amplitude_ > 0; }

  /// Scale factor for phase `phase` of iteration `iteration`; 1.0 when
  /// drift is off.  Clamped to >= 0.05 so extreme amplitudes never turn a
  /// phase's traffic negative.
  double factor(int iteration, std::size_t phase) const;

 private:
  double amplitude_;
  int period_;
  std::uint64_t seed_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// SPMD body: runs on every rank inside World::run.  Returns a checksum
  /// that must be identical for the same config under any placement
  /// policy (migration-integrity check).
  virtual double run_rank(rt::Context& ctx, const WorkloadConfig& cfg) = 0;
};

/// Factory: "cg", "ft", "bt", "lu", "sp", "mg", "nek".
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace unimem::wl
