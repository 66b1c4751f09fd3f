// Tests for the Unimem runtime end to end on synthetic applications:
// PMPI phase detection, profiling -> planning -> enforcement, initial
// placement, the C API, and the variation monitor.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <stdexcept>

#include "core/runtime.h"
#include "minimpi/comm.h"

namespace unimem::rt {
namespace {

struct TestRig {
  explicit TestRig(std::size_t dram = 8 * kMiB)
      : hms(mem::HmsConfig{mem::TierConfig::dram_basis(2 * dram + 4 * kMiB),
                           mem::TierConfig::nvm_scaled(128 * kMiB, 0.5, 1.0)}),
        arbiter(dram) {}
  mem::HeteroMemory hms;
  mem::DramArbiter arbiter;
};

/// A synthetic iterative app: one hot streamed object, one cold one, three
/// phases per iteration (compute / allreduce / compute).
void run_app(Runtime& rt, mpi::Comm& comm, int iterations,
             DataObject* hot, DataObject* cold, std::uint64_t hot_accesses) {
  rt.start();
  for (int it = 0; it < iterations; ++it) {
    rt.iteration_begin();
    PhaseWork w1;
    w1.flops = 1e5;
    w1.accesses.push_back(
        ObjectAccess{hot, cache::Pattern::kSequential, hot_accesses});
    rt.compute(w1);
    double v[1] = {1.0};
    comm.allreduce(v, 1);
    PhaseWork w2;
    w2.flops = 1e5;
    w2.accesses.push_back(
        ObjectAccess{cold, cache::Pattern::kSequential, 1024});
    w2.accesses.push_back(
        ObjectAccess{hot, cache::Pattern::kSequential, hot_accesses / 2});
    rt.compute(w2);
  }
  rt.end();
}

TEST(Runtime, PhaseDetectionViaPmpi) {
  TestRig rig;
  mpi::World world(2);
  world.run([&](mpi::Comm& comm) {
    RuntimeOptions opts;
    Runtime rt(opts, &rig.hms, &rig.arbiter, &comm);
    DataObject* hot = rt.malloc_object("hot", 2 * kMiB);
    DataObject* cold = rt.malloc_object("cold", 2 * kMiB);
    run_app(rt, comm, 4, hot, cold, 1 << 18);
    // 3 phases per iteration discovered in the profiled iteration:
    // [compute][allreduce][compute-tail].
    EXPECT_EQ(rt.profiler().phase_count(), 3u);
    EXPECT_FALSE(rt.profiler().phases()[0].is_communication);
    EXPECT_TRUE(rt.profiler().phases()[1].is_communication);
  });
}

TEST(Runtime, ProfilerAttributesHotObject) {
  TestRig rig;
  mpi::World world(1);
  world.run([&](mpi::Comm& comm) {
    RuntimeOptions opts;
    opts.enable_initial_placement = false;
    Runtime rt(opts, &rig.hms, &rig.arbiter, &comm);
    DataObject* hot = rt.malloc_object("hot", 2 * kMiB);
    DataObject* cold = rt.malloc_object("cold", 2 * kMiB);
    run_app(rt, comm, 3, hot, cold, 1 << 19);
    const auto& ph0 = rt.profiler().phases()[0];
    auto it = ph0.units.find(UnitRef{hot->id(), 0});
    ASSERT_NE(it, ph0.units.end());
    EXPECT_GT(it->second.est_accesses, 0u);
    // Phase 0 never touches `cold`.
    EXPECT_EQ(ph0.units.count(UnitRef{cold->id(), 0}), 0u);
  });
}

TEST(Runtime, EnforcementPlacesHotObjectInDram) {
  TestRig rig;
  mpi::World world(1);
  world.run([&](mpi::Comm& comm) {
    RuntimeOptions opts;
    opts.enable_initial_placement = false;  // force a runtime migration
    Runtime rt(opts, &rig.hms, &rig.arbiter, &comm);
    DataObject* hot = rt.malloc_object("hot", 2 * kMiB);
    DataObject* cold = rt.malloc_object("cold", 2 * kMiB);
    EXPECT_EQ(hot->chunk(0).current_tier(), mem::Tier::kNvm);
    run_app(rt, comm, 5, hot, cold, 1 << 19);
    EXPECT_EQ(hot->chunk(0).current_tier(), mem::Tier::kDram);
    RuntimeStats s = rt.stats();
    EXPECT_GE(s.migration.migrations, 1u);
    EXPECT_NE(s.plan_kind, Plan::Kind::kNone);
  });
}

/// Threads of this process, as the kernel lists them.
std::ptrdiff_t host_threads() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

TEST(Runtime, OwnsNoHostThreads) {
  // Migrations copy at commit and sampled profiles attribute at phase
  // close, both on the rank thread: a Runtime that profiles, plans and
  // migrates starts no thread of its own.
  TestRig rig;
  mpi::World world(1);
  world.run([&](mpi::Comm& comm) {
    const std::ptrdiff_t before = host_threads();
    RuntimeOptions opts;
    opts.enable_initial_placement = false;  // force runtime migrations
    opts.sample_period = 64;
    Runtime rt(opts, &rig.hms, &rig.arbiter, &comm);
    DataObject* hot = rt.malloc_object("hot", 2 * kMiB);
    DataObject* cold = rt.malloc_object("cold", 2 * kMiB);
    run_app(rt, comm, 5, hot, cold, 1 << 19);
    EXPECT_GE(rt.stats().migration.migrations, 1u);
    EXPECT_GT(rt.stats().profile_samples, 0u);
    EXPECT_EQ(host_threads(), before);
  });
}

TEST(Runtime, UnimemFasterThanNoManagement) {
  TestRig rig;
  double managed = 0, unmanaged = 0;
  {
    mpi::World world(1);
    world.run([&](mpi::Comm& comm) {
      RuntimeOptions opts;
      Runtime rt(opts, &rig.hms, &rig.arbiter, &comm);
      DataObject* hot = rt.malloc_object("hot", 2 * kMiB);
      DataObject* cold = rt.malloc_object("cold", 2 * kMiB);
      run_app(rt, comm, 8, hot, cold, 1 << 19);
      managed = rt.stats().total_time_s;
      rt.free_object(hot);
      rt.free_object(cold);
    });
  }
  {
    TestRig rig2;
    mpi::World world(1);
    world.run([&](mpi::Comm& comm) {
      RuntimeOptions opts;
      opts.enable_initial_placement = false;
      opts.enable_local_search = false;
      opts.enable_global_search = false;  // plans never move anything
      Runtime rt(opts, &rig2.hms, &rig2.arbiter, &comm);
      DataObject* hot = rt.malloc_object("hot", 2 * kMiB);
      DataObject* cold = rt.malloc_object("cold", 2 * kMiB);
      run_app(rt, comm, 8, hot, cold, 1 << 19);
      unmanaged = rt.stats().total_time_s;
    });
  }
  EXPECT_LT(managed, unmanaged);
}

TEST(Runtime, InitialPlacementUsesSymbolicEstimates) {
  TestRig rig;
  mpi::World world(1);
  world.run([&](mpi::Comm& comm) {
    RuntimeOptions opts;
    Runtime rt(opts, &rig.hms, &rig.arbiter, &comm);
    ObjectTraits hot_traits;
    hot_traits.estimated_references = 1e9;
    ObjectTraits unknown;  // estimated_references = -1
    DataObject* hot = rt.malloc_object("hot", 2 * kMiB, hot_traits);
    DataObject* unk = rt.malloc_object("unknown", 2 * kMiB, unknown);
    rt.start();  // triggers initial placement
    EXPECT_EQ(hot->chunk(0).current_tier(), mem::Tier::kDram);
    EXPECT_EQ(unk->chunk(0).current_tier(), mem::Tier::kNvm);
    rt.end();
  });
}

TEST(Runtime, OverheadStaysSmall) {
  TestRig rig;
  mpi::World world(1);
  world.run([&](mpi::Comm& comm) {
    RuntimeOptions opts;
    Runtime rt(opts, &rig.hms, &rig.arbiter, &comm);
    DataObject* hot = rt.malloc_object("hot", 2 * kMiB);
    DataObject* cold = rt.malloc_object("cold", 2 * kMiB);
    run_app(rt, comm, 10, hot, cold, 1 << 19);
    // Paper Table 4: pure runtime cost < 3% in all cases.
    EXPECT_LT(rt.stats().overhead_percent(), 3.0);
  });
}

TEST(Runtime, VariationTriggersReprofile) {
  TestRig rig;
  mpi::World world(1);
  world.run([&](mpi::Comm& comm) {
    RuntimeOptions opts;
    Runtime rt(opts, &rig.hms, &rig.arbiter, &comm);
    DataObject* a = rt.malloc_object("a", 2 * kMiB);
    DataObject* b = rt.malloc_object("b", 2 * kMiB);
    rt.start();
    for (int it = 0; it < 14; ++it) {
      rt.iteration_begin();
      PhaseWork w;
      w.flops = 1e5;
      // Phase workload shifts dramatically after iteration 7.
      DataObject* target = it < 7 ? a : b;
      std::uint64_t n = it < 7 ? (1 << 18) : (1 << 20);
      w.accesses.push_back(
          ObjectAccess{target, cache::Pattern::kSequential, n});
      rt.compute(w);
      double v[1] = {1.0};
      comm.allreduce(v, 1);
    }
    rt.end();
    EXPECT_GE(rt.stats().reprofiles, 1u);
  });
}

TEST(Runtime, RejectsNullCommunicator) {
  // The rank's communicator is the Runtime's clock and its phase source.
  TestRig rig;
  EXPECT_THROW(Runtime(RuntimeOptions{}, &rig.hms, &rig.arbiter, nullptr),
               std::invalid_argument);
}

TEST(Runtime, StatsReportPlanKindAndMigrations) {
  TestRig rig;
  mpi::World world(1);
  world.run([&](mpi::Comm& comm) {
    RuntimeOptions opts;
    opts.enable_initial_placement = false;
    Runtime rt(opts, &rig.hms, &rig.arbiter, &comm);
    DataObject* hot = rt.malloc_object("hot", 2 * kMiB);
    DataObject* cold = rt.malloc_object("cold", 2 * kMiB);
    run_app(rt, comm, 6, hot, cold, 1 << 19);
    RuntimeStats s = rt.stats();
    EXPECT_GT(s.total_time_s, 0.0);
    EXPECT_GT(s.phases_executed, 0u);
    EXPECT_GE(s.migration.overlap_percent(), 0.0);
    EXPECT_LE(s.migration.overlap_percent(), 100.0);
  });
}

}  // namespace
}  // namespace unimem::rt
