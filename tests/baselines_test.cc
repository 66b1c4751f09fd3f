// Tests for the static-placement baselines and the X-Men placement logic.
#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/static_context.h"
#include "baselines/xmen.h"
#include "minimpi/comm.h"

namespace unimem::baseline {
namespace {

TEST(PlacementFns, Basics) {
  EXPECT_EQ(nvm_only()("anything", 1), mem::Tier::kNvm);
  auto m = manual({"a", "b"});
  EXPECT_EQ(m("a", 1), mem::Tier::kDram);
  EXPECT_EQ(m("c", 1), mem::Tier::kNvm);
}

TEST(StaticContext, PlacesAndTimesWork) {
  mem::HeteroMemory hms(mem::HmsConfig::scaled(0.5, 1.0, 8 * kMiB, 64 * kMiB));
  mpi::World world(1);
  world.run([&](mpi::Comm& comm) {
    StaticContextOptions opts;
    StaticContext ctx(opts, &hms, nullptr, &comm, manual({"fast"}));
    rt::DataObject* fast = ctx.malloc_object("fast", kMiB, {});
    rt::DataObject* slow = ctx.malloc_object("slow", kMiB, {});
    EXPECT_EQ(fast->chunk(0).current_tier(), mem::Tier::kDram);
    EXPECT_EQ(slow->chunk(0).current_tier(), mem::Tier::kNvm);

    rt::PhaseWork w;
    w.accesses.push_back(
        rt::ObjectAccess{slow, cache::Pattern::kSequential, 1 << 18});
    double before = ctx.now();
    ctx.compute(w);
    EXPECT_GT(ctx.now(), before);
    EXPECT_EQ(ctx.now(), comm.clock().now());
  });
}

TEST(StaticContext, OfflineProfileRecordsGroundTruth) {
  mem::HeteroMemory hms(mem::HmsConfig::scaled(0.5, 1.0, 8 * kMiB, 64 * kMiB));
  mpi::World world(1);
  world.run([&](mpi::Comm& comm) {
    StaticContextOptions opts;
    opts.record_profile = true;
    StaticContext ctx(opts, &hms, nullptr, &comm, nvm_only());
    rt::DataObject* a = ctx.malloc_object("a", 4 * kMiB, {});
    rt::PhaseWork w;
    w.accesses.push_back(
        rt::ObjectAccess{a, cache::Pattern::kSequential, 1 << 19});
    ctx.compute(w);
    const auto& profs = ctx.profiles();
    ASSERT_EQ(profs.count("a"), 1u);
    EXPECT_GT(profs.at("a").misses, 0u);
    EXPECT_EQ(profs.at("a").bytes, 4 * kMiB);
    EXPECT_EQ(profs.at("a").dominant_pattern(), cache::Pattern::kSequential);
  });
}

TEST(StaticContext, RejectsNullCommunicator) {
  // The rank's communicator carries the clock the context advances.
  mem::HeteroMemory hms(mem::HmsConfig::scaled(0.5, 1.0, 8 * kMiB, 64 * kMiB));
  EXPECT_THROW(StaticContext(StaticContextOptions{}, &hms, nullptr, nullptr,
                             nvm_only()),
               std::invalid_argument);
}

TEST(XMen, PacksByBenefitDensity) {
  mem::HmsConfig hms = mem::HmsConfig::scaled(0.5, 1.0);
  std::map<std::string, ObjectProfile> profs;
  auto mk = [&](const char* n, std::uint64_t misses, std::uint64_t bytes,
                cache::Pattern p) {
    ObjectProfile op;
    op.misses = misses;
    op.serialized_misses = static_cast<double>(misses);
    op.bytes = bytes;
    op.misses_by_pattern[p] = misses;
    profs[n] = op;
  };
  mk("hot_small", 1000000, 1 * kMiB, cache::Pattern::kSequential);
  mk("hot_big", 1100000, 6 * kMiB, cache::Pattern::kSequential);
  mk("cold", 10, 1 * kMiB, cache::Pattern::kSequential);

  auto placed = xmen_placement(profs, hms.dram, hms.nvm, 4 * kMiB);
  // Greedy by density: hot_small first; hot_big does not fit the 4 MiB
  // budget; cold has positive (tiny) benefit so X-Men still packs it.
  ASSERT_FALSE(placed.empty());
  EXPECT_EQ(placed[0], "hot_small");
  for (const auto& n : placed) EXPECT_NE(n, "hot_big");
}

TEST(XMen, LatencyPatternUsesLatencyBenefit) {
  // At the 1/2-bandwidth NVM config, latencies are equal, so a pure
  // pointer-chasing object has zero benefit and is never placed.
  mem::HmsConfig hms = mem::HmsConfig::scaled(0.5, 1.0);
  std::map<std::string, ObjectProfile> profs;
  ObjectProfile chase;
  chase.misses = 1000000;
  chase.serialized_misses = 1000000;
  chase.bytes = kMiB;
  chase.misses_by_pattern[cache::Pattern::kPointerChase] = 1000000;
  profs["chase"] = chase;
  EXPECT_TRUE(xmen_placement(profs, hms.dram, hms.nvm, 8 * kMiB).empty());

  // At the 4x-latency config the same object is worth placing.
  mem::HmsConfig hms_lat = mem::HmsConfig::scaled(1.0, 4.0);
  auto placed = xmen_placement(profs, hms_lat.dram, hms_lat.nvm, 8 * kMiB);
  ASSERT_EQ(placed.size(), 1u);
  EXPECT_EQ(placed[0], "chase");
}

TEST(XMen, EmptyProfilesGiveEmptyPlacement) {
  const mem::HmsConfig hms = mem::HmsConfig::scaled(0.5, 1.0);
  EXPECT_TRUE(xmen_placement({}, hms.dram, hms.nvm, 8 * kMiB).empty());
}

TEST(XMen, RespectsBudgetExactly) {
  mem::HmsConfig hms = mem::HmsConfig::scaled(0.5, 1.0);
  std::map<std::string, ObjectProfile> profs;
  for (int i = 0; i < 6; ++i) {
    ObjectProfile op;
    op.misses = 100000 + i;
    op.serialized_misses = op.misses;
    op.bytes = kMiB;
    op.misses_by_pattern[cache::Pattern::kSequential] = op.misses;
    // Append (not operator+) dodges GCC 12's -Wrestrict false positive
    // at -O3, which broke Release builds.
    std::string name("o");
    name += std::to_string(i);
    profs[name] = op;
  }
  auto placed = xmen_placement(profs, hms.dram, hms.nvm, 3 * kMiB);
  EXPECT_EQ(placed.size(), 3u);
}

}  // namespace
}  // namespace unimem::baseline
