// Tests for the object registry: allocation, chunking, migration with
// handle/alias repointing, address attribution, and arbiter integration.
#include <gtest/gtest.h>

#include <cstring>

#include "core/registry.h"
#include "simmem/dram_arbiter.h"

namespace unimem::rt {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest()
      : hms_(mem::HmsConfig::scaled(0.5, 1.0, 4 * kMiB, 64 * kMiB)),
        arbiter_(2 * kMiB),
        reg_(&hms_, &arbiter_) {}

  mem::HeteroMemory hms_;
  mem::DramArbiter arbiter_;
  Registry reg_;
};

TEST_F(RegistryTest, CreateZeroesPayload) {
  DataObject* o = reg_.create("x", 4096, {}, mem::Tier::kNvm);
  auto s = o->as_span<double>();
  for (double v : s) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(o->bytes(), 4096u);
  EXPECT_EQ(o->chunk_count(), 1u);
  EXPECT_EQ(o->name(), "x");
}

TEST_F(RegistryTest, ChunkingSplitsLargeObjects) {
  DataObject* o =
      reg_.create("big", 5 * kMiB, ObjectTraits{true, -1}, mem::Tier::kNvm,
                  kMiB);
  EXPECT_EQ(o->chunk_count(), 5u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < o->chunk_count(); ++i)
    total += o->chunk(i).bytes;
  EXPECT_GE(total, 5 * kMiB);
  // Units enumerate per chunk.
  EXPECT_EQ(reg_.all_units().size(), 5u);
}

TEST_F(RegistryTest, ChunkHelperRespectsThreshold) {
  EXPECT_EQ(chunk_bytes_for(true, kChunkThreshold), 0u);
  EXPECT_EQ(chunk_bytes_for(true, kChunkThreshold + 1), kChunkBytes);
  EXPECT_EQ(chunk_bytes_for(false, 100 * kMiB), 0u);
}

TEST_F(RegistryTest, MigratePreservesData) {
  DataObject* o = reg_.create("m", 64 * kKiB, {}, mem::Tier::kNvm);
  auto s = o->as_span<double>();
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i);
  void* old = o->chunk(0).data();
  ASSERT_TRUE(reg_.migrate(UnitRef{o->id(), 0}, mem::Tier::kDram));
  EXPECT_EQ(o->chunk(0).current_tier(), mem::Tier::kDram);
  EXPECT_NE(o->chunk(0).data(), old);
  auto s2 = o->as_span<double>();
  for (std::size_t i = 0; i < s2.size(); ++i)
    ASSERT_EQ(s2[i], static_cast<double>(i));
}

TEST_F(RegistryTest, MigrateToSameTierIsNoOp) {
  DataObject* o = reg_.create("n", 4096, {}, mem::Tier::kNvm);
  void* p = o->chunk(0).data();
  EXPECT_TRUE(reg_.migrate(UnitRef{o->id(), 0}, mem::Tier::kNvm));
  EXPECT_EQ(o->chunk(0).data(), p);
}

TEST_F(RegistryTest, MigrationFailsWhenArbiterRefuses) {
  // Arbiter allows 2 MiB; a 3 MiB object cannot be promoted.
  DataObject* o = reg_.create("big", 3 * kMiB, {}, mem::Tier::kNvm);
  EXPECT_FALSE(reg_.migrate(UnitRef{o->id(), 0}, mem::Tier::kDram));
  EXPECT_EQ(o->chunk(0).current_tier(), mem::Tier::kNvm);
  EXPECT_EQ(arbiter_.granted_tier(0), 0u);  // grant rolled back
}

TEST_F(RegistryTest, AliasRepointedOnMigration) {
  DataObject* o = reg_.create("a", 4096, {}, mem::Tier::kNvm);
  void* alias = nullptr;
  reg_.add_alias(o->id(), &alias);
  EXPECT_EQ(alias, o->chunk(0).data());
  ASSERT_TRUE(reg_.migrate(UnitRef{o->id(), 0}, mem::Tier::kDram));
  EXPECT_EQ(alias, o->chunk(0).data());  // follows the move
}

TEST_F(RegistryTest, AttributionFollowsMigration) {
  DataObject* o = reg_.create("t", 4096, {}, mem::Tier::kNvm);
  auto addr = reinterpret_cast<std::uint64_t>(o->chunk(0).data());
  auto hit = reg_.attribute(addr + 100);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->object, o->id());
  ASSERT_TRUE(reg_.migrate(UnitRef{o->id(), 0}, mem::Tier::kDram));
  // Old address no longer attributes; new one does.
  EXPECT_FALSE(reg_.attribute(addr + 100).has_value());
  auto naddr = reinterpret_cast<std::uint64_t>(o->chunk(0).data());
  EXPECT_TRUE(reg_.attribute(naddr + 100).has_value());
}

TEST_F(RegistryTest, AttributionPerChunk) {
  DataObject* o =
      reg_.create("c", 3 * kMiB, ObjectTraits{true, -1}, mem::Tier::kNvm,
                  kMiB);
  ASSERT_EQ(o->chunk_count(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto a = reinterpret_cast<std::uint64_t>(o->chunk(i).data());
    auto hit = reg_.attribute(a + 5);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->chunk, i);
  }
}

TEST_F(RegistryTest, DestroyReleasesEverything) {
  std::size_t before = hms_.arena(mem::Tier::kNvm).used();
  DataObject* o = reg_.create("d", kMiB, {}, mem::Tier::kNvm);
  auto addr = reinterpret_cast<std::uint64_t>(o->chunk(0).data());
  reg_.destroy(o->id());
  EXPECT_EQ(hms_.arena(mem::Tier::kNvm).used(), before);
  EXPECT_FALSE(reg_.attribute(addr).has_value());
  EXPECT_TRUE(reg_.all_units().empty());
}

TEST_F(RegistryTest, ResidentBytesTracksTiers) {
  reg_.create("a", kMiB, {}, mem::Tier::kNvm);
  DataObject* b = reg_.create("b", kMiB, {}, mem::Tier::kNvm);
  EXPECT_EQ(reg_.resident_bytes(mem::Tier::kNvm), 2 * kMiB);
  EXPECT_EQ(reg_.resident_bytes(mem::Tier::kDram), 0u);
  ASSERT_TRUE(reg_.migrate(UnitRef{b->id(), 0}, mem::Tier::kDram));
  EXPECT_EQ(reg_.resident_bytes(mem::Tier::kNvm), kMiB);
  EXPECT_EQ(reg_.resident_bytes(mem::Tier::kDram), kMiB);
}

TEST_F(RegistryTest, ThrowsWhenNvmFull) {
  EXPECT_THROW(reg_.create("huge", 65 * kMiB, {}, mem::Tier::kNvm),
               std::bad_alloc);
}

}  // namespace
}  // namespace unimem::rt
