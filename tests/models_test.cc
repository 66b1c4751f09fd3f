// Tests for the performance models (Eq. 1-4), sensitivity classification
// thresholds, the STREAM / pointer-chase calibration, and the soundness
// of its per-machine memo.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/calibration.h"
#include "core/models.h"
#include "simcache/analytic_cache.h"
#include "simcache/exact_cache.h"

namespace unimem::rt {
namespace {

mem::HmsConfig half_bw() { return mem::HmsConfig::scaled(0.5, 1.0); }
mem::HmsConfig lat4x() { return mem::HmsConfig::scaled(1.0, 4.0); }

ModelParams params_for(const mem::HmsConfig& hms) {
  ModelParams p;
  p.bw_peak = hms.nvm.read_bw;
  p.cf_bw = 1.0;
  p.cf_lat = 1.0;
  return p;
}

TEST(Models, Eq1ConsumedBandwidth) {
  mem::HmsConfig hms = half_bw();
  PerformanceModel m(params_for(hms), hms.dram, hms.nvm);
  // 1e6 accesses over 10 ms of active time = 6.4 GB/s.
  UnitPhaseProfile u{1000000, 1.0, 0.01};
  EXPECT_NEAR(m.consumed_bandwidth(u), 6.4e9, 1e6);
  // Half the phase active -> double the rate during activity.
  u.time_fraction = 0.5;
  EXPECT_NEAR(m.consumed_bandwidth(u), 12.8e9, 1e6);
}

TEST(Models, ClassificationThresholds) {
  mem::HmsConfig hms = half_bw();  // peak = 6.4 GB/s
  PerformanceModel m(params_for(hms), hms.dram, hms.nvm);
  double t = 0.01;
  // Saturating stream: >= 80% of peak -> bandwidth sensitive.
  UnitPhaseProfile stream{
      static_cast<std::uint64_t>(0.9 * 6.4e9 * t / 64), 1.0, t};
  EXPECT_EQ(m.classify(stream), Sensitivity::kBandwidth);
  // Dependent chain at NVM latency under the 4x-latency configuration:
  // 64 B per 320 ns ~ 0.2 GB/s, way below 10% of peak -> latency.
  mem::HmsConfig hl = lat4x();
  PerformanceModel ml(params_for(hl), hl.dram, hl.nvm);
  UnitPhaseProfile chase{static_cast<std::uint64_t>(t / 320e-9), 1.0, t};
  EXPECT_EQ(ml.classify(chase), Sensitivity::kLatency);
  // Mid-band: "either".
  UnitPhaseProfile mid{
      static_cast<std::uint64_t>(0.4 * 6.4e9 * t / 64), 1.0, t};
  EXPECT_EQ(m.classify(mid), Sensitivity::kEither);
}

TEST(Models, Eq2BandwidthBenefit) {
  mem::HmsConfig hms = half_bw();
  PerformanceModel m(params_for(hms), hms.dram, hms.nvm);
  UnitPhaseProfile u{1000000, 1.0, 0.01};
  double bytes = 1000000.0 * 64;
  double expect = bytes / hms.nvm.read_bw - bytes / hms.dram.read_bw;
  EXPECT_NEAR(m.benefit_bandwidth_between(u, hms.dram, hms.nvm), expect, 1e-9);
  EXPECT_GT(expect, 0);
  // benefit() is the same form on the model's own (DRAM, NVM) pair.
  ASSERT_EQ(m.classify(u), Sensitivity::kBandwidth);
  EXPECT_EQ(m.benefit(u), m.benefit_bandwidth_between(u, hms.dram, hms.nvm));
}

TEST(Models, Eq3LatencyBenefit) {
  mem::HmsConfig hms = lat4x();
  PerformanceModel m(params_for(hms), hms.dram, hms.nvm);
  UnitPhaseProfile u{100000, 1.0, 0.01};
  double expect =
      100000.0 * (hms.nvm.read_latency_s - hms.dram.read_latency_s);
  EXPECT_NEAR(m.benefit_latency_between(u, hms.dram, hms.nvm), expect, 1e-12);
}

TEST(Models, LatencyBenefitZeroWhenLatenciesEqual) {
  // At the 1/2-bandwidth configuration latency is unchanged, so a purely
  // latency-sensitive object gains nothing from DRAM (paper Fig. 4: lhs is
  // insensitive to the bandwidth configuration).
  mem::HmsConfig hms = half_bw();
  PerformanceModel m(params_for(hms), hms.dram, hms.nvm);
  UnitPhaseProfile u{100000, 1.0, 0.01};
  EXPECT_DOUBLE_EQ(m.benefit_latency_between(u, hms.dram, hms.nvm), 0.0);
}

TEST(Models, ConstantFactorsScaleBenefits) {
  mem::HmsConfig hms = half_bw();
  ModelParams p = params_for(hms);
  p.cf_bw = 2.0;
  PerformanceModel m2(p, hms.dram, hms.nvm);
  p.cf_bw = 1.0;
  PerformanceModel m1(p, hms.dram, hms.nvm);
  UnitPhaseProfile u{1000000, 1.0, 0.01};
  EXPECT_NEAR(m2.benefit_bandwidth_between(u, hms.dram, hms.nvm),
              2.0 * m1.benefit_bandwidth_between(u, hms.dram, hms.nvm), 1e-12);
}

TEST(Models, Eq4MigrationCostWithOverlap) {
  mem::HmsConfig hms = half_bw();
  PerformanceModel m(params_for(hms), hms.dram, hms.nvm);
  // 6.4 MB at 6.4 GB/s = 1 ms raw.
  const double copy_s = 6400000 / 6.4e9;
  EXPECT_NEAR(m.migration_cost(copy_s, 0.0), 1e-3, 1e-9);
  EXPECT_NEAR(m.migration_cost(copy_s, 0.4e-3), 0.6e-3, 1e-9);
  // Fully overlapped -> zero, never negative.
  EXPECT_DOUBLE_EQ(m.migration_cost(copy_s, 5e-3), 0.0);
}

TEST(Models, EitherBandTakesMaxOfBenefits) {
  mem::HmsConfig hms = half_bw();
  PerformanceModel m(params_for(hms), hms.dram, hms.nvm);
  double t = 0.01;
  UnitPhaseProfile mid{
      static_cast<std::uint64_t>(0.4 * 6.4e9 * t / 64), 1.0, t};
  ASSERT_EQ(m.classify(mid), Sensitivity::kEither);
  EXPECT_NEAR(m.benefit(mid),
              std::max(m.benefit_bandwidth_between(mid, hms.dram, hms.nvm),
                       m.benefit_latency_between(mid, hms.dram, hms.nvm)),
              1e-12);
}

// ---------------------------------------------------------------------------
// Calibration

class Calibration : public ::testing::TestWithParam<bool> {};

TEST_P(Calibration, RecoversPlatformParameters) {
  mem::HmsConfig hms = half_bw();
  clk::TimingParams timing;
  std::unique_ptr<cache::CacheModel> cm;
  if (GetParam())
    cm = std::make_unique<cache::ExactCache>();
  else
    cm = std::make_unique<cache::AnalyticCache>();
  ModelParams p = calibrate(hms.dram, hms.nvm, *cm, timing);
  // BW_peak measured via Eq. 1 on a saturating NVM stream ~ NVM read bw.
  EXPECT_NEAR(p.bw_peak, hms.nvm.read_bw, 0.15 * hms.nvm.read_bw);
  // The constant factors correct modest model error; they must be sane.
  EXPECT_GT(p.cf_bw, 0.3);
  EXPECT_LT(p.cf_bw, 3.0);
  EXPECT_GT(p.cf_lat, 0.3);
  EXPECT_LT(p.cf_lat, 3.0);
  static_assert(kT1Percent == 80.0 && kT2Percent == 10.0);  // §3.1.2
}

INSTANTIATE_TEST_SUITE_P(Caches, Calibration, ::testing::Bool());

TEST(CalibrationLatencyAxis, PeakTracksNvmConfig) {
  clk::TimingParams timing;
  cache::AnalyticCache cm;
  const mem::HmsConfig bw = mem::HmsConfig::scaled(0.25, 1.0);
  const mem::HmsConfig lat = mem::HmsConfig::scaled(1.0, 4.0);
  ModelParams p_bw = calibrate(bw.dram, bw.nvm, cm, timing);
  ModelParams p_lat = calibrate(lat.dram, lat.nvm, cm, timing);
  EXPECT_LT(p_bw.bw_peak, p_lat.bw_peak);  // 1/4 bw NVM has lower peak
}

/// ModelParams as bit patterns, so EXPECT_EQ is bitwise equality.
std::array<std::uint64_t, 3> bits(const ModelParams& p) {
  return {std::bit_cast<std::uint64_t>(p.bw_peak),
          std::bit_cast<std::uint64_t>(p.cf_bw),
          std::bit_cast<std::uint64_t>(p.cf_lat)};
}

class CalibrationMemo : public ::testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<cache::CacheModel> make_cache() const {
    if (GetParam()) return std::make_unique<cache::ExactCache>();
    return std::make_unique<cache::AnalyticCache>();
  }
};

TEST_P(CalibrationMemo, IsAPureFunctionOfItsInputs) {
  // The memo is sound only if a measurement depends on nothing but its
  // key: not on the cache instance's history, not on where the scratch
  // region lies.  The exact LLC maps addresses to sets, so its second
  // region starts at another line and off a line boundary.
  const mem::HmsConfig hms = lat4x();
  clk::TimingParams timing;
  timing.sample_interval_cycles = 997;  // a key no other test calibrates
  const std::unique_ptr<cache::CacheModel> clean = make_cache();
  const std::unique_ptr<cache::CacheModel> dirty = make_cache();
  cache::AccessDescriptor d;
  std::vector<std::byte> buf(kMiB);
  d.base = buf.data();
  d.region_bytes = buf.size();
  d.accesses = 4096;
  d.access_bytes = 8;
  d.pattern = cache::Pattern::kRandom;
  dirty->process(d, timing.default_mlp);

  constexpr std::size_t kSlack = 4096;
  const std::unique_ptr<std::byte[]> a(
      new std::byte[kCalibrationRegionBytes + kSlack]);
  const std::unique_ptr<std::byte[]> b(
      new std::byte[kCalibrationRegionBytes + kSlack]);
  const ModelParams uncached =
      calibrate_at(a.get(), hms.dram, hms.nvm, *clean, timing);
  EXPECT_EQ(bits(uncached), bits(calibrate_at(b.get() + 3 * 64 + 8, hms.dram,
                                              hms.nvm, *dirty, timing)));

  // Ranks of one World calibrate concurrently: every one gets the bits of
  // the uncached measurement, on the first (racing) call and after it.
  std::vector<ModelParams> got(4);
  std::vector<std::thread> ranks;
  for (ModelParams& g : got)
    ranks.emplace_back([&] {
      const std::unique_ptr<cache::CacheModel> cm = make_cache();
      g = calibrate(hms.dram, hms.nvm, *cm, timing);
    });
  for (std::thread& t : ranks) t.join();
  for (const ModelParams& g : got) EXPECT_EQ(bits(g), bits(uncached));
  EXPECT_EQ(bits(calibrate(hms.dram, hms.nvm, *dirty, timing)),
            bits(uncached));

  // A different key is a different machine: it is measured, not reused.
  const mem::HmsConfig other = mem::HmsConfig::scaled(0.25, 1.0);
  EXPECT_EQ(
      bits(calibrate(other.dram, other.nvm, *clean, timing)),
      bits(calibrate_at(a.get(), other.dram, other.nvm, *clean, timing)));
  EXPECT_NE(bits(calibrate(other.dram, other.nvm, *clean, timing)),
            bits(uncached));
}

INSTANTIATE_TEST_SUITE_P(Caches, CalibrationMemo, ::testing::Bool());

}  // namespace
}  // namespace unimem::rt
