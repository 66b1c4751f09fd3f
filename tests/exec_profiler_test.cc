// Tests for the execution engine (descriptor -> time/misses, chunk
// splitting, tier dependence) and the profiler's sample attribution and
// multi-iteration folding.
#include <gtest/gtest.h>

#include "core/exec_engine.h"
#include "core/profiler.h"
#include "core/registry.h"
#include "simcache/analytic_cache.h"

namespace unimem::rt {
namespace {

class ExecEngineTest : public ::testing::Test {
 protected:
  ExecEngineTest()
      : hms_(mem::HmsConfig::scaled(0.5, 1.0, 16 * kMiB, 128 * kMiB)),
        reg_(&hms_, nullptr),
        engine_(&hms_, &cache_, clk::TimingParams{}) {}

  mem::HeteroMemory hms_;
  cache::AnalyticCache cache_;
  Registry reg_;
  ExecEngine engine_;
};

TEST_F(ExecEngineTest, ComputeOnlyWork) {
  PhaseWork w;
  w.flops = 9.6e6;
  PhaseExec e = engine_.run(w);
  EXPECT_NEAR(e.compute_s, 1e-3, 1e-9);
  EXPECT_DOUBLE_EQ(e.mem_s, 0.0);
  EXPECT_TRUE(e.windows.empty());
}

TEST_F(ExecEngineTest, NvmStreamSlowerThanDram) {
  DataObject* n = reg_.create("n", 4 * kMiB, {}, mem::Tier::kNvm);
  DataObject* d = reg_.create("d", 4 * kMiB, {}, mem::Tier::kNvm);
  ASSERT_TRUE(reg_.migrate(UnitRef{d->id(), 0}, mem::Tier::kDram));
  auto work = [](DataObject* o) {
    PhaseWork w;
    w.accesses.push_back(
        ObjectAccess{o, cache::Pattern::kSequential, 4 * kMiB / 8});
    return w;
  };
  double t_nvm = engine_.run(work(n)).mem_s;
  double t_dram = engine_.run(work(d)).mem_s;
  EXPECT_GT(t_nvm, 1.9 * t_dram);  // 1/2 bandwidth NVM
}

TEST_F(ExecEngineTest, PointerChaseInsensitiveToBandwidthConfig) {
  // At the 1/2-BW configuration latencies are equal: a dependent chain
  // costs the same on both tiers (paper Fig. 4, lhs panel).
  DataObject* n = reg_.create("n2", 4 * kMiB, {}, mem::Tier::kNvm);
  DataObject* d = reg_.create("d2", 4 * kMiB, {}, mem::Tier::kNvm);
  ASSERT_TRUE(reg_.migrate(UnitRef{d->id(), 0}, mem::Tier::kDram));
  auto work = [](DataObject* o) {
    PhaseWork w;
    w.accesses.push_back(
        ObjectAccess{o, cache::Pattern::kPointerChase, 100000});
    return w;
  };
  EXPECT_NEAR(engine_.run(work(n)).mem_s, engine_.run(work(d)).mem_s, 1e-9);
}

TEST_F(ExecEngineTest, ChunkSplitPreservesTotals) {
  DataObject* whole = reg_.create("w", 6 * kMiB, {}, mem::Tier::kNvm);
  DataObject* chunked = reg_.create("c", 6 * kMiB, ObjectTraits{true, -1},
                                    mem::Tier::kNvm, kMiB);
  ASSERT_EQ(chunked->chunk_count(), 6u);
  auto work = [](DataObject* o) {
    PhaseWork w;
    w.accesses.push_back(
        ObjectAccess{o, cache::Pattern::kSequential, 6 * kMiB / 8});
    return w;
  };
  PhaseExec ew = engine_.run(work(whole));
  PhaseExec ec = engine_.run(work(chunked));
  ASSERT_EQ(ec.unit_results.size(), 6u);
  std::uint64_t misses_c = 0;
  for (auto& [u, r] : ec.unit_results) misses_c += r.misses;
  // Same logical traversal: totals agree within rounding.
  EXPECT_NEAR(static_cast<double>(misses_c),
              static_cast<double>(ew.unit_results[0].second.misses),
              0.02 * static_cast<double>(ew.unit_results[0].second.misses));
  EXPECT_NEAR(ec.mem_s, ew.mem_s, 0.05 * ew.mem_s);
}

TEST_F(ExecEngineTest, SubRangeAccessesOnlyPartOfObject) {
  DataObject* o = reg_.create("r", 8 * kMiB, {}, mem::Tier::kNvm);
  PhaseWork w;
  ObjectAccess a{o, cache::Pattern::kSequential, kMiB / 8};
  a.offset = kMiB;
  a.length = kMiB;
  w.accesses.push_back(a);
  PhaseExec e = engine_.run(w);
  ASSERT_EQ(e.windows.size(), 1u);
  EXPECT_EQ(e.windows[0].region_bytes, kMiB);
  auto base = reinterpret_cast<std::uint64_t>(o->chunk(0).data());
  EXPECT_EQ(e.windows[0].region_base, base + kMiB);
}

TEST_F(ExecEngineTest, WriteFractionUsesWriteBandwidth) {
  DataObject* o = reg_.create("wf", 4 * kMiB, {}, mem::Tier::kNvm);
  PhaseWork rd, wr;
  ObjectAccess a{o, cache::Pattern::kSequential, 4 * kMiB / 8};
  rd.accesses.push_back(a);
  a.write_fraction = 1.0;
  wr.accesses.push_back(a);
  // NVM write bandwidth < read bandwidth => writes cost more.
  EXPECT_GT(engine_.run(wr).mem_s, engine_.run(rd).mem_s);
}

class ProfilerTest : public ::testing::Test {
 protected:
  ProfilerTest()
      : hms_(mem::HmsConfig::scaled(0.5, 1.0, 8 * kMiB, 64 * kMiB)),
        reg_(&hms_, nullptr),
        prof_(&reg_) {}

  perf::PhaseSamples samples_for(DataObject* o, std::uint64_t n_addr,
                                 std::uint64_t misses) {
    perf::PhaseSamples s;
    s.total_samples = 1000;
    s.total_miss_count = misses;
    auto base = reinterpret_cast<std::uint64_t>(o->chunk(0).data());
    for (std::uint64_t i = 0; i < n_addr; ++i)
      s.miss_addresses.push_back(base + (i * 64) % o->bytes());
    return s;
  }

  mem::HeteroMemory hms_;
  Registry reg_;
  Profiler prof_;
};

TEST_F(ProfilerTest, AttributesAddressesToUnits) {
  DataObject* o = reg_.create("o", kMiB, {}, mem::Tier::kNvm);
  prof_.record_phase(samples_for(o, 500, 80000), 1e-3);
  ASSERT_EQ(prof_.phase_count(), 1u);
  const auto& ph = prof_.phases()[0];
  auto it = ph.units.find(UnitRef{o->id(), 0});
  ASSERT_NE(it, ph.units.end());
  EXPECT_EQ(it->second.est_accesses, 80000u);  // all samples hit this object
  EXPECT_NEAR(it->second.time_fraction, 0.5, 1e-9);
}

TEST_F(ProfilerTest, UnknownAddressesIgnored) {
  reg_.create("o", kMiB, {}, mem::Tier::kNvm);
  perf::PhaseSamples s;
  s.total_samples = 100;
  s.total_miss_count = 1000;
  s.miss_addresses = {1, 2, 3};  // not any object's range
  prof_.record_phase(s, 1e-3);
  EXPECT_TRUE(prof_.phases()[0].units.empty());
}

TEST_F(ProfilerTest, LastReferenceBeforeWrapsCyclically) {
  DataObject* a = reg_.create("a", kMiB, {}, mem::Tier::kNvm);
  DataObject* b = reg_.create("b", kMiB, {}, mem::Tier::kNvm);
  prof_.record_phase(samples_for(a, 100, 1000), 1e-3);  // phase 0: a
  prof_.record_comm_phase(1e-4);                        // phase 1
  prof_.record_phase(samples_for(b, 100, 1000), 1e-3);  // phase 2: b
  EXPECT_EQ(prof_.last_reference_before(2, UnitRef{a->id(), 0}), 0);
  EXPECT_EQ(prof_.last_reference_before(0, UnitRef{b->id(), 0}), 2);  // wrap
  EXPECT_EQ(prof_.last_reference_before(2, UnitRef{b->id(), 0}), -1);
}

TEST_F(ProfilerTest, FoldAveragesIterations) {
  DataObject* o = reg_.create("o", kMiB, {}, mem::Tier::kNvm);
  // Two profiled iterations of the same 2-phase structure with different
  // sampled intensities: folding averages them.
  prof_.record_phase(samples_for(o, 100, 60000), 2e-3);
  prof_.record_comm_phase(1e-4);
  prof_.record_phase(samples_for(o, 100, 20000), 1e-3);
  prof_.record_comm_phase(1e-4);
  EXPECT_EQ(prof_.fold(2), FoldStatus::kOk);
  ASSERT_EQ(prof_.phase_count(), 2u);
  const auto& u = prof_.phases()[0].units.at(UnitRef{o->id(), 0});
  EXPECT_EQ(u.est_accesses, 40000u);                    // mean of 60k/20k
  EXPECT_NEAR(prof_.phases()[0].phase_time_s, 1.5e-3, 1e-9);
  EXPECT_TRUE(prof_.phases()[1].is_communication);
}

TEST_F(ProfilerTest, FoldTruncatesNonDivisibleTail) {
  DataObject* o = reg_.create("o", kMiB, {}, mem::Tier::kNvm);
  // 3 phases, period 2: the largest divisible prefix (2 phases = 2 periods
  // of the 1-phase iteration) folds; the partial tail is dropped instead
  // of silently leaving the profile un-averaged.
  prof_.record_phase(samples_for(o, 10, 60000), 1e-3);
  prof_.record_phase(samples_for(o, 10, 20000), 1e-3);
  prof_.record_phase(samples_for(o, 10, 999999), 1e-3);
  EXPECT_EQ(prof_.fold(2), FoldStatus::kTruncated);
  ASSERT_EQ(prof_.phase_count(), 1u);
  const auto& u = prof_.phases()[0].units.at(UnitRef{o->id(), 0});
  EXPECT_EQ(u.est_accesses, 40000u);  // tail phase did not contaminate
}

TEST_F(ProfilerTest, FoldOfIdenticalPeriodsIsExact) {
  DataObject* o = reg_.create("o", kMiB, {}, mem::Tier::kNvm);
  // est_accesses = 100003 is not divisible by 3: per-period integer
  // division would report 100002 (or worse).  Summing raw counts and
  // dividing once must reproduce one period's counts exactly.
  for (int i = 0; i < 3; ++i) {
    prof_.record_phase(samples_for(o, 10, 100003), 1e-3);
    prof_.record_comm_phase(1e-4);
  }
  EXPECT_EQ(prof_.fold(3), FoldStatus::kOk);
  ASSERT_EQ(prof_.phase_count(), 2u);
  const auto& u = prof_.phases()[0].units.at(UnitRef{o->id(), 0});
  EXPECT_EQ(u.est_accesses, 100003u);
}

TEST_F(ProfilerTest, FoldRejectsPhaseKindMismatch) {
  DataObject* o = reg_.create("o", kMiB, {}, mem::Tier::kNvm);
  // Period 1 is (compute, comm) but period 2 is (comm, compute): the
  // periods are not repetitions of one iteration structure, so nothing
  // folds and the caller is told why.
  prof_.record_phase(samples_for(o, 10, 100), 1e-3);
  prof_.record_comm_phase(1e-4);
  prof_.record_comm_phase(1e-4);
  prof_.record_phase(samples_for(o, 10, 100), 1e-3);
  EXPECT_EQ(prof_.fold(2), FoldStatus::kKindMismatch);
  EXPECT_EQ(prof_.phase_count(), 4u);  // untouched
}

}  // namespace
}  // namespace unimem::rt
