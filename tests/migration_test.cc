// Tests for the migration engine (the paper's helper thread, modeled in
// virtual time): FIFO processing, virtual completion times, overlap
// accounting (Table 4's %overlap), and failure handling.
#include <gtest/gtest.h>

#include "core/migration.h"
#include "core/registry.h"

namespace unimem::rt {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest()
      : hms_(mem::HmsConfig::scaled(0.5, 1.0, 8 * kMiB, 64 * kMiB)),
        reg_(&hms_, nullptr),
        eng_(&reg_) {}

  mem::HeteroMemory hms_;
  Registry reg_;
  MigrationEngine eng_;
};

TEST_F(MigrationTest, MovesDataAndRepointsHandle) {
  DataObject* o = reg_.create("x", kMiB, {}, mem::Tier::kNvm);
  o->as_span<double>()[5] = 42.0;
  eng_.enqueue_batch({{UnitRef{o->id(), 0}, mem::Tier::kDram, 0.0}});
  double done = eng_.wait_for(UnitRef{o->id(), 0});
  EXPECT_GT(done, 0.0);
  EXPECT_EQ(o->chunk(0).current_tier(), mem::Tier::kDram);
  EXPECT_EQ(o->as_span<double>()[5], 42.0);
  MigrationStats s = eng_.stats();
  EXPECT_EQ(s.migrations, 1u);
  EXPECT_EQ(s.bytes_moved, kMiB);
}

TEST_F(MigrationTest, CompletionTimeMatchesCopyModel) {
  DataObject* o = reg_.create("x", kMiB, {}, mem::Tier::kNvm);
  const double enqueue_vt = 1.0;
  eng_.enqueue_batch({{UnitRef{o->id(), 0}, mem::Tier::kDram, enqueue_vt}});
  double done = eng_.wait_for(UnitRef{o->id(), 0});
  double expect =
      enqueue_vt + hms_.copy_seconds(o->chunk(0).bytes, mem::Tier::kNvm,
                                     mem::Tier::kDram);
  EXPECT_NEAR(done, expect, 1e-12);
}

TEST_F(MigrationTest, FifoSerializesRequests) {
  DataObject* a = reg_.create("a", kMiB, {}, mem::Tier::kNvm);
  DataObject* b = reg_.create("b", kMiB, {}, mem::Tier::kNvm);
  eng_.enqueue_batch({{UnitRef{a->id(), 0}, mem::Tier::kDram, 0.0}});
  eng_.enqueue_batch({{UnitRef{b->id(), 0}, mem::Tier::kDram, 0.0}});
  double da = eng_.wait_for(UnitRef{a->id(), 0});
  double db = eng_.wait_for(UnitRef{b->id(), 0});
  // b cannot start before a finished: db >= 2x single copy.
  double one = hms_.copy_seconds(kMiB, mem::Tier::kNvm, mem::Tier::kDram);
  EXPECT_NEAR(da, one, 1e-12);
  EXPECT_NEAR(db, 2 * one, 1e-12);
}

TEST_F(MigrationTest, WaitForIdleUnitReturnsZero) {
  DataObject* o = reg_.create("x", kMiB, {}, mem::Tier::kNvm);
  EXPECT_DOUBLE_EQ(eng_.wait_for(UnitRef{o->id(), 0}), 0.0);
}

TEST_F(MigrationTest, NoOpWhenAlreadyInTargetTier) {
  DataObject* o = reg_.create("x", kMiB, {}, mem::Tier::kNvm);
  eng_.enqueue_batch({{UnitRef{o->id(), 0}, mem::Tier::kNvm, 0.0}});
  eng_.drain();
  MigrationStats s = eng_.stats();
  EXPECT_EQ(s.migrations, 0u);
  EXPECT_EQ(s.bytes_moved, 0u);
}

TEST_F(MigrationTest, FailedMoveIsCountedAndHarmless) {
  // DRAM tier is 8 MiB; a 12 MiB object cannot fit.
  DataObject* o = reg_.create("big", 12 * kMiB, {}, mem::Tier::kNvm);
  eng_.enqueue_batch({{UnitRef{o->id(), 0}, mem::Tier::kDram, 0.0}});
  eng_.drain();
  EXPECT_EQ(o->chunk(0).current_tier(), mem::Tier::kNvm);
  MigrationStats s = eng_.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.migrations, 0u);
}

TEST_F(MigrationTest, OverlapPercentAccounting) {
  DataObject* o = reg_.create("x", kMiB, {}, mem::Tier::kNvm);
  eng_.enqueue_batch({{UnitRef{o->id(), 0}, mem::Tier::kDram, 0.0}});
  eng_.drain();
  // Suppose 1/4 of the copy time was exposed to the application.
  MigrationStats before = eng_.stats();
  eng_.add_exposed_wait(before.copy_time_s / 4);
  MigrationStats s = eng_.stats();
  EXPECT_NEAR(s.overlap_percent(), 75.0, 0.01);
}

TEST_F(MigrationTest, FullyOverlappedWhenNothingExposed) {
  DataObject* o = reg_.create("x", kMiB, {}, mem::Tier::kNvm);
  eng_.enqueue_batch({{UnitRef{o->id(), 0}, mem::Tier::kDram, 0.0}});
  eng_.drain();
  EXPECT_DOUBLE_EQ(eng_.stats().overlap_percent(), 100.0);
}

TEST_F(MigrationTest, RoundTripPreservesPayload) {
  DataObject* o = reg_.create("rt", 2 * kMiB, {}, mem::Tier::kNvm);
  auto s = o->as_span<double>();
  for (std::size_t i = 0; i < s.size(); i += 7) s[i] = 1.0 / (1.0 + i);
  eng_.enqueue_batch({{UnitRef{o->id(), 0}, mem::Tier::kDram, 0.0}});
  eng_.enqueue_batch({{UnitRef{o->id(), 0}, mem::Tier::kNvm, 0.0}});
  eng_.enqueue_batch({{UnitRef{o->id(), 0}, mem::Tier::kDram, 0.0}});
  eng_.drain();
  EXPECT_EQ(o->chunk(0).current_tier(), mem::Tier::kDram);
  auto s2 = o->as_span<double>();
  for (std::size_t i = 0; i < s2.size(); i += 7)
    ASSERT_EQ(s2[i], 1.0 / (1.0 + i));
  EXPECT_EQ(eng_.stats().migrations, 3u);
}

TEST_F(MigrationTest, BatchFillBeforeEvictionSelfCorrects) {
  // DRAM holds 8 MiB.  With "a" (6 MiB) resident, the batch lists the
  // 4 MiB fill of "b" BEFORE the eviction of "a" — the wrap ordering.
  // The fill must defer, the eviction must free the space, and the retry
  // wave must land the fill: no failed move anywhere.
  DataObject* a = reg_.create("a", 6 * kMiB, {}, mem::Tier::kNvm);
  DataObject* b = reg_.create("b", 4 * kMiB, {}, mem::Tier::kNvm);
  eng_.enqueue_batch({{UnitRef{a->id(), 0}, mem::Tier::kDram, 0.0}});
  eng_.enqueue_batch({
      MigrationEngine::Item{UnitRef{b->id(), 0}, mem::Tier::kDram, 1.0},
      MigrationEngine::Item{UnitRef{a->id(), 0}, mem::Tier::kNvm, 1.0},
  });
  eng_.drain();
  EXPECT_EQ(a->chunk(0).current_tier(), mem::Tier::kNvm);
  EXPECT_EQ(b->chunk(0).current_tier(), mem::Tier::kDram);
  MigrationStats s = eng_.stats();
  EXPECT_EQ(s.migrations, 3u);
  EXPECT_EQ(s.failed, 0u);
}

TEST_F(MigrationTest, DeferredFillRetriesInALaterBatch) {
  // The cross-iteration wrap: the fill's batch carries no eviction at
  // all; the eviction arrives only in the NEXT batch.  The deferred fill
  // must ride along behind it instead of failing terminally.
  DataObject* a = reg_.create("a", 6 * kMiB, {}, mem::Tier::kNvm);
  DataObject* b = reg_.create("b", 4 * kMiB, {}, mem::Tier::kNvm);
  eng_.enqueue_batch({{UnitRef{a->id(), 0}, mem::Tier::kDram, 0.0}});
  // b defers; a's eviction frees its space and b retries.
  eng_.enqueue_batch({{UnitRef{b->id(), 0}, mem::Tier::kDram, 1.0}});
  eng_.enqueue_batch({{UnitRef{a->id(), 0}, mem::Tier::kNvm, 2.0}});
  eng_.drain();
  EXPECT_EQ(b->chunk(0).current_tier(), mem::Tier::kDram);
  EXPECT_EQ(eng_.stats().failed, 0u);
  EXPECT_EQ(eng_.stats().migrations, 3u);
}

TEST_F(MigrationTest, DecisionsAreSynchronousWithEnqueue) {
  // The determinism contract: tier state and completion time are decided
  // by enqueue order alone.  Immediately after enqueue returns — no
  // drain, no wait — the logical location has already changed and the
  // payload has been copied.
  DataObject* o = reg_.create("x", kMiB, {}, mem::Tier::kNvm);
  o->as_span<double>()[7] = 3.5;
  eng_.enqueue_batch({{UnitRef{o->id(), 0}, mem::Tier::kDram, 0.0}});
  EXPECT_EQ(o->chunk(0).current_tier(), mem::Tier::kDram);
  EXPECT_EQ(o->as_span<double>()[7], 3.5);
}

TEST_F(MigrationTest, DrainReturnsLastCompletion) {
  DataObject* a = reg_.create("a", kMiB, {}, mem::Tier::kNvm);
  DataObject* b = reg_.create("b", 2 * kMiB, {}, mem::Tier::kNvm);
  eng_.enqueue_batch({{UnitRef{a->id(), 0}, mem::Tier::kDram, 0.0}});
  eng_.enqueue_batch({{UnitRef{b->id(), 0}, mem::Tier::kDram, 0.0}});
  double last = eng_.drain();
  double expect = hms_.copy_seconds(kMiB, mem::Tier::kNvm, mem::Tier::kDram) +
                  hms_.copy_seconds(2 * kMiB, mem::Tier::kNvm,
                                    mem::Tier::kDram);
  EXPECT_NEAR(last, expect, 1e-12);
}

}  // namespace
}  // namespace unimem::rt
