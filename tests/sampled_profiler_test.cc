// Sampled profiling tier: gate/seed determinism, adaptive-rate control,
// and statistical fidelity of the thinned sample stream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/profiler.h"
#include "core/registry.h"
#include "perfmon/sample_gate.h"
#include "perfmon/sampler.h"

namespace unimem::rt {
namespace {

// ---------------------------------------------------------------------------
// SampleGate / schedule_seed / AdaptiveRate

TEST(SampleGate, SameSeedSameSchedule) {
  perf::SampleGate a(16, 99), b(16, 99);
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(a.take(), b.take());
}

TEST(SampleGate, CaptureRateMatchesPeriod) {
  const std::uint64_t period = 32;
  perf::SampleGate gate(period, 7);
  const int n = 1 << 20;
  int captured = 0;
  for (int i = 0; i < n; ++i) captured += gate.take() ? 1 : 0;
  const double expected = static_cast<double>(n) / period;
  EXPECT_NEAR(captured, expected, 0.05 * expected);
}

TEST(SampleGate, PeriodOneCapturesEverything) {
  perf::SampleGate gate(1, 5);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(gate.take());
}

TEST(ScheduleSeed, StableAndCoordinateSensitive) {
  const std::uint64_t s = perf::schedule_seed(42, 1, 3, 7);
  EXPECT_EQ(s, perf::schedule_seed(42, 1, 3, 7));  // pure function
  EXPECT_NE(s, perf::schedule_seed(42, 0, 3, 7));  // rank matters
  EXPECT_NE(s, perf::schedule_seed(42, 1, 4, 7));  // phase matters
  EXPECT_NE(s, perf::schedule_seed(42, 1, 3, 8));  // epoch matters
  EXPECT_NE(s, perf::schedule_seed(43, 1, 3, 7));  // base seed matters
}

TEST(AdaptiveRate, BacksOffAndRecovers) {
  static_assert(perf::AdaptiveRate::kMaxPeriod == 4096);
  perf::AdaptiveRate rate(64);
  EXPECT_EQ(rate.period(), 64u);
  // 2500/phase: plenty -> widen, doubling up to the cap.
  for (std::uint64_t p = 128; p <= perf::AdaptiveRate::kMaxPeriod; p *= 2) {
    rate.observe_iteration(10000, 4);
    EXPECT_EQ(rate.period(), p);
  }
  rate.observe_iteration(10000, 4);  // clamped at the cap
  EXPECT_EQ(rate.period(), perf::AdaptiveRate::kMaxPeriod);
  rate.observe_iteration(300, 1);    // between the watermarks: holds
  EXPECT_EQ(rate.period(), perf::AdaptiveRate::kMaxPeriod);
  // 25/phase: thin -> narrow, halving back down to the base.
  for (std::uint64_t p = perf::AdaptiveRate::kMaxPeriod / 2; p >= 64; p /= 2) {
    rate.observe_iteration(100, 4);
    EXPECT_EQ(rate.period(), p);
  }
  rate.observe_iteration(100, 4);    // never below base
  EXPECT_EQ(rate.period(), 64u);
}

// ---------------------------------------------------------------------------
// Sampled stream fidelity

class SampledProfilerTest : public ::testing::Test {
 protected:
  SampledProfilerTest()
      : hms_(mem::HmsConfig::scaled(0.5, 1.0, 8 * kMiB, 64 * kMiB)),
        reg_(&hms_, nullptr) {}

  perf::MemWindow window_for(DataObject* o, std::uint64_t misses,
                             double mem_time_s) {
    perf::MemWindow w;
    w.region_base = reinterpret_cast<std::uint64_t>(o->chunk(0).data());
    w.region_bytes = o->bytes();
    w.misses = misses;
    w.mem_time_s = mem_time_s;
    return w;
  }

  mem::HeteroMemory hms_;
  Registry reg_;
};

TEST_F(SampledProfilerTest, ExactStreamUnaffectedBySampledCalls) {
  DataObject* o = reg_.create("o", kMiB, {}, mem::Tier::kNvm);
  std::vector<perf::MemWindow> w{window_for(o, 100000, 2e-3)};
  perf::Sampler a(clk::TimingParams{}, 42), b(clk::TimingParams{}, 42);
  // Interleave sampled-mode calls on `b` only: the exact stream must stay
  // bit-identical because sampled mode never touches the member RNG.
  perf::SampledConfig cfg{8, 1234};
  (void)b.sample_phase(w, 1e-3, 3e-3, cfg);
  perf::PhaseSamples ea = a.sample_phase(w, 1e-3, 3e-3);
  perf::PhaseSamples eb = b.sample_phase(w, 1e-3, 3e-3);
  ASSERT_EQ(ea.miss_addresses.size(), eb.miss_addresses.size());
  EXPECT_EQ(ea.miss_addresses, eb.miss_addresses);
  EXPECT_EQ(ea.total_samples, eb.total_samples);
}

TEST_F(SampledProfilerTest, SampledScheduleIsSeedDeterministic) {
  DataObject* o = reg_.create("o", kMiB, {}, mem::Tier::kNvm);
  std::vector<perf::MemWindow> w{window_for(o, 100000, 2e-3)};
  perf::Sampler s1(clk::TimingParams{}, 1), s2(clk::TimingParams{}, 2);
  perf::SampledConfig cfg{16, perf::schedule_seed(42, 0, 3, 1)};
  // Different member seeds, same SampledConfig: identical capture.
  perf::PhaseSamples p1 = s1.sample_phase(w, 1e-3, 3e-3, cfg);
  perf::PhaseSamples p2 = s2.sample_phase(w, 1e-3, 3e-3, cfg);
  EXPECT_EQ(p1.total_samples, p2.total_samples);
  EXPECT_EQ(p1.miss_addresses, p2.miss_addresses);
  EXPECT_GT(p1.total_samples, 0u);
}

TEST_F(SampledProfilerTest, EstAccessesConvergeToMissShares) {
  // Ground truth: A carries 3/4 of the misses and of the memory time, B
  // 1/4.  The thinned stream must apportion the precise aggregate counter
  // close to those shares — per seed within a loose band, and with the
  // across-seed mean tight around the truth (unbiased, noisier by
  // ~sqrt(period)).
  DataObject* a = reg_.create("a", kMiB, {}, mem::Tier::kNvm);
  DataObject* b = reg_.create("b", kMiB, {}, mem::Tier::kNvm);
  std::vector<perf::MemWindow> w{window_for(a, 300000, 3e-3),
                                 window_for(b, 100000, 1e-3)};
  perf::Sampler sampler(clk::TimingParams{});
  const double phase_time = 5e-3;  // 1e-3 compute + 4e-3 memory
  double sum_a = 0;
  const int kSeeds = 20;
  for (int seed = 0; seed < kSeeds; ++seed) {
    perf::SampledConfig cfg{8, perf::schedule_seed(100 + seed, 0, 0, 0)};
    perf::PhaseSamples s = sampler.sample_phase(w, 1e-3, phase_time, cfg);
    Profiler prof(&reg_);
    prof.record_phase(s, phase_time);
    const auto& units = prof.phases()[0].units;
    const double est_a =
        static_cast<double>(units.at(UnitRef{a->id(), 0}).est_accesses);
    const double est_b =
        static_cast<double>(units.at(UnitRef{b->id(), 0}).est_accesses);
    EXPECT_NEAR(est_a + est_b, 400000.0, 2.0);  // counter stays precise
    EXPECT_NEAR(est_a, 300000.0, 0.15 * 300000.0) << "seed " << seed;
    sum_a += est_a;
  }
  EXPECT_NEAR(sum_a / kSeeds, 300000.0, 0.04 * 300000.0);
}

}  // namespace
}  // namespace unimem::rt
