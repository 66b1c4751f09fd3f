#include "core/profiler.h"

#include "common/log.h"

namespace unimem::rt {

std::uint64_t Profiler::record_phase(const perf::PhaseSamples& samples,
                                    double phase_time_s) {
  PhaseObservation obs;
  obs.phase_time_s = phase_time_s;

  // Attribute each sampled miss address to a unit.
  std::map<UnitRef, std::uint64_t> counts;
  std::uint64_t attributed = 0;
  for (std::uint64_t addr : samples.miss_addresses) {
    if (auto unit = registry_->attribute(addr)) {
      ++counts[*unit];
      ++attributed;
    }
  }

  if (attributed > 0 && samples.total_samples > 0) {
    for (const auto& [unit, n] : counts) {
      UnitPhaseProfile p;
      // Apportion the precise aggregate miss counter by sample share.
      p.est_accesses = static_cast<std::uint64_t>(
          static_cast<double>(samples.total_miss_count) *
          static_cast<double>(n) / static_cast<double>(attributed));
      p.time_fraction = static_cast<double>(n) /
                        static_cast<double>(samples.total_samples);
      p.phase_time_s = phase_time_s;
      if (p.est_accesses > 0) obs.units.emplace(unit, p);
    }
  }
  phases_.push_back(std::move(obs));
  return attributed;
}

void Profiler::record_comm_phase(double phase_time_s) {
  PhaseObservation obs;
  obs.phase_time_s = phase_time_s;
  obs.is_communication = true;
  phases_.push_back(std::move(obs));
}

FoldStatus Profiler::fold(std::size_t periods) {
  if (periods <= 1 || phases_.empty()) return FoldStatus::kOk;
  // Fold the largest divisible prefix; a partially recorded trailing
  // iteration is dropped rather than silently leaving the profile
  // un-averaged.
  const std::size_t usable = (phases_.size() / periods) * periods;
  const bool truncated = usable != phases_.size();
  if (usable == 0) {
    Log::info("profiler: fold(%zu) has only %zu phases; nothing folded",
              periods, phases_.size());
    return FoldStatus::kTruncated;
  }
  const std::size_t P = usable / periods;
  // Phase kinds must agree position-for-position across periods — a
  // mismatch means the periods are not repetitions of the same iteration
  // structure and averaging them would be meaningless.
  for (std::size_t i = P; i < usable; ++i) {
    if (phases_[i].is_communication != phases_[i % P].is_communication) {
      Log::info(
          "profiler: fold(%zu) phase-kind mismatch at phase %zu; "
          "nothing folded",
          periods, i);
      return FoldStatus::kKindMismatch;
    }
  }
  std::vector<PhaseObservation> folded(P);
  // Accumulate raw sums, divide once at the end: per-period integer
  // division would lose up to periods-1 accesses per unit.
  std::vector<std::map<UnitRef, std::uint64_t>> access_sums(P);
  for (std::size_t i = 0; i < usable; ++i) {
    PhaseObservation& dst = folded[i % P];
    const PhaseObservation& src = phases_[i];
    dst.phase_time_s += src.phase_time_s / static_cast<double>(periods);
    dst.is_communication = src.is_communication;
    for (const auto& [u, prof] : src.units) {
      UnitPhaseProfile& agg = dst.units[u];
      access_sums[i % P][u] += prof.est_accesses;
      agg.time_fraction += prof.time_fraction / static_cast<double>(periods);
    }
  }
  for (std::size_t p = 0; p < P; ++p)
    for (auto& [u, prof] : folded[p].units)
      prof.est_accesses = (access_sums[p][u] + periods / 2) / periods;
  for (auto& ph : folded)
    for (auto& [u, prof] : ph.units) prof.phase_time_s = ph.phase_time_s;
  phases_ = std::move(folded);
  if (truncated)
    Log::info("profiler: fold dropped a partial trailing iteration");
  return truncated ? FoldStatus::kTruncated : FoldStatus::kOk;
}

int Profiler::last_reference_before(std::size_t phase, UnitRef u) const {
  const std::size_t P = phases_.size();
  if (P == 0) return -1;
  for (std::size_t back = 1; back < P; ++back) {
    std::size_t idx = (phase + P - back) % P;
    if (phases_[idx].references(u)) return static_cast<int>(idx);
  }
  return -1;
}

}  // namespace unimem::rt
