// Phase profiler (paper §3.1.1, "Step 1").
//
// Consumes the PMU sample stream of each profiled phase, maps sampled miss
// addresses back to object units through the registry's interval map, and
// estimates per-(unit, phase):
//   * est_accesses  — the aggregate LLC-miss counter apportioned by the
//                     unit's share of address samples, and
//   * time_fraction — the fraction of samples attributing to the unit
//                     (Eq. 1's  #samples_with_data_accesses / #samples).
// It also maintains the phase->units reference table the planner uses for
// dependency windows and proactive-migration trigger points.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/models.h"
#include "core/registry.h"
#include "perfmon/sampler.h"

namespace unimem::rt {

struct PhaseObservation {
  double phase_time_s = 0;
  bool is_communication = false;
  std::map<UnitRef, UnitPhaseProfile> units;

  bool references(UnitRef u) const { return units.count(u) != 0; }
};

/// Outcome of Profiler::fold (see below).
enum class FoldStatus {
  kOk,            ///< every recorded phase participated in the average
  kTruncated,     ///< a non-divisible tail was dropped before folding
  kKindMismatch,  ///< phase kinds disagree across periods; nothing folded
};

class Profiler {
 public:
  explicit Profiler(const Registry* registry) : registry_(registry) {}

  /// Forget the previous iteration's observations.
  void begin_iteration() { phases_.clear(); }

  /// Record one computation phase from its sample stream: the precise
  /// aggregate miss counter is split by each unit's share of attributed
  /// address samples, and time_fraction is Eq. 1's samples-with-data /
  /// total-samples.  Returns the number of address samples attributed to
  /// a unit.
  std::uint64_t record_phase(const perf::PhaseSamples& samples,
                             double phase_time_s);

  /// Record a communication phase (no object attribution).
  void record_comm_phase(double phase_time_s);

  const std::vector<PhaseObservation>& phases() const { return phases_; }
  std::size_t phase_count() const { return phases_.size(); }

  /// Merge `periods` consecutive profiled iterations into one averaged
  /// iteration profile (paper §3: "profiles memory references ... with a
  /// few invocations of each phase").
  ///
  /// Contract:
  ///  * When the recorded phase count is not a multiple of `periods`, the
  ///    largest divisible prefix is folded, the tail is dropped, and
  ///    kTruncated is returned (a partially recorded last iteration must
  ///    not silently keep the profile un-averaged, as it used to).
  ///  * Phase kinds (compute vs communication) must agree across periods
  ///    position-for-position; on disagreement nothing is folded and
  ///    kKindMismatch is returned.
  ///  * est_accesses are averaged by summing raw counts and dividing once,
  ///    round-to-nearest — folding N identical periods reproduces one
  ///    period's counts exactly.
  FoldStatus fold(std::size_t periods);

  /// Most recent phase index < `phase` (cyclically, scanning at most one
  /// full iteration) that references `u`; -1 when no other phase does.
  int last_reference_before(std::size_t phase, UnitRef u) const;

 private:
  const Registry* registry_;
  std::vector<PhaseObservation> phases_;
};

}  // namespace unimem::rt
