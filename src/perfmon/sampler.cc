#include "perfmon/sampler.h"

#include <algorithm>

#include "common/units.h"

namespace unimem::perf {

namespace {

// Lay the windows on the phase timeline after the compute segment.
// (The real interleaving does not matter: only the *fraction* of time a
// region has in-flight misses feeds Eq. 1, and that is preserved.)
struct Segment {
  double begin, end;
  const MemWindow* w;
};

std::vector<Segment> layout_segments(const std::vector<MemWindow>& windows,
                                     double compute_time_s) {
  std::vector<Segment> segs;
  segs.reserve(windows.size());
  double t = compute_time_s;
  for (const auto& w : windows) {
    segs.push_back({t, t + w.mem_time_s, &w});
    t += w.mem_time_s;
  }
  return segs;
}

}  // namespace

PhaseSamples Sampler::sample_phase(
    const std::vector<MemWindow>& windows, double compute_time_s,
    double phase_time_s, const std::optional<SampledConfig>& cfg) {
  if (!cfg)
    return capture(windows, compute_time_s, phase_time_s, rng_, nullptr);
  // Per-phase RNG: jitter and the capture gate both derive from cfg->seed,
  // never from the member stream.
  Rng rng(cfg->seed);
  SampleGate gate(cfg->period, rng.next());
  return capture(windows, compute_time_s, phase_time_s, rng, &gate);
}

PhaseSamples Sampler::capture(const std::vector<MemWindow>& windows,
                              double compute_time_s, double phase_time_s,
                              Rng& rng, SampleGate* gate) const {
  PhaseSamples out;
  const double period = params_.sample_period_s();
  if (phase_time_s <= 0 || period <= 0) return out;

  for (const auto& w : windows) out.total_miss_count += w.misses;

  const std::vector<Segment> segs = layout_segments(windows, compute_time_s);

  const std::uint64_t base_ticks =
      static_cast<std::uint64_t>(phase_time_s / period);
  // Jittered sampling start, as on real hardware.
  double sample_t = rng.uniform() * period;
  std::size_t seg_idx = 0;
  for (std::uint64_t i = 0; i < base_ticks; ++i, sample_t += period) {
    if (gate != nullptr && !gate->take()) continue;  // tick not captured
    ++out.total_samples;  // captured ticks are Eq. 1's denominator
    while (seg_idx < segs.size() && sample_t >= segs[seg_idx].end) ++seg_idx;
    if (seg_idx >= segs.size()) continue;        // tail of the phase
    const Segment& s = segs[seg_idx];
    if (sample_t < s.begin) continue;            // inside the compute segment
    if (s.w->misses == 0 || s.w->region_bytes == 0) continue;
    // A memory-bound window keeps misses in flight essentially all the time;
    // sample a uniformly random line address within the region.
    std::uint64_t line =
        rng.below(std::max<std::uint64_t>(1, s.w->region_bytes / kCacheLine));
    out.miss_addresses.push_back(s.w->region_base + line * kCacheLine);
  }
  return out;
}

}  // namespace unimem::perf
