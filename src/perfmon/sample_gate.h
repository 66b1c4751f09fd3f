// Production-overhead sampling primitives for the sampled profiler tier.
//
// The exact profiler consumes every PMU sample inline; that is fine for
// offline planning but unaffordable always-on.  Sampled mode does the
// less work per PMU event — a countdown gate decides which events are even
// captured, and only the captured addresses are attributed when the phase
// closes — and an adaptive controller widens the sampling period when
// phases already attribute plenty of evidence.
//
// Determinism contract: every schedule is seeded per (rank, phase, epoch)
// via schedule_seed(), so the captured sample set is a pure function of
// the point's configuration, and sweep artifacts stay byte-identical
// across --jobs counts and shard merges.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/rng.h"

namespace unimem::perf {

/// Mix a base seed with the (rank, phase, epoch) coordinates so every
/// profiled phase gets an independent, reproducible sample schedule.
inline std::uint64_t schedule_seed(std::uint64_t base, int rank,
                                   std::uint64_t phase, std::uint64_t epoch) {
  Rng mix(base ^ (static_cast<std::uint64_t>(rank) * 0x9e3779b97f4a7c15ull));
  std::uint64_t h = mix.next() ^ (phase * 0xbf58476d1ce4e5b9ull);
  h = Rng(h).next() ^ (epoch * 0x94d049bb133111ebull);
  return Rng(h).next();
}

/// Per-event capture decision: a countdown with seeded jittered reload
/// around `period`, so the rank-thread cost per PMU event is one
/// decrement-and-test and captures cannot phase-lock with strided access
/// patterns.  period == 1 captures every event (the exact-equivalent
/// schedule).
class SampleGate {
 public:
  SampleGate(std::uint64_t period, std::uint64_t seed)
      : rng_(seed), period_(std::max<std::uint64_t>(1, period)) {
    reload();
  }

  /// True when this event is captured.  O(1), branch-predictable.
  bool take() {
    if (--countdown_ > 0) return false;
    reload();
    return true;
  }

  std::uint64_t period() const { return period_; }

 private:
  void reload() {
    // Uniform in [ceil(period/2), ceil(3*period/2)): mean = period, so the
    // expected capture rate is 1/period regardless of jitter.
    countdown_ = period_ == 1
                     ? 1
                     : (period_ + 1) / 2 + rng_.below(period_);
  }

  Rng rng_;
  std::uint64_t period_;
  std::uint64_t countdown_ = 1;
};

/// Adaptive sample-rate controller (heapprofd-style backoff): when the
/// profile is already statistically solid — many attributed samples per
/// phase — widen the period to shed overhead; when evidence is thin,
/// narrow it back toward the configured base.  Updated only at the end of
/// a profiled iteration, so the period sequence is reproducible.
class AdaptiveRate {
 public:
  /// Widest period the backoff reaches (or the base, when that is wider).
  static constexpr std::uint64_t kMaxPeriod = 4096;
  /// Mean attributed samples per phase above which the period doubles.
  static constexpr std::uint64_t kHighWatermark = 512;
  /// ... below which it halves (down to the base period).
  static constexpr std::uint64_t kLowWatermark = 64;

  explicit AdaptiveRate(std::uint64_t base_period)
      : base_(std::max<std::uint64_t>(1, base_period)),
        max_(std::max(kMaxPeriod, base_)),
        period_(base_) {}

  std::uint64_t period() const { return period_; }

  /// Feed one profiled iteration's totals.
  void observe_iteration(std::uint64_t attributed_samples,
                         std::uint64_t phases) {
    if (phases == 0) return;
    const std::uint64_t per_phase = attributed_samples / phases;
    if (per_phase > kHighWatermark)
      period_ = std::min(period_ * 2, max_);
    else if (per_phase < kLowWatermark)
      period_ = std::max(period_ / 2, base_);
  }

 private:
  std::uint64_t base_;
  std::uint64_t max_;
  std::uint64_t period_;
};

}  // namespace unimem::perf
