// Tests for the cache substrate: exact LRU behaviour, descriptor
// arithmetic, and the exact-vs-analytic agreement property the benches
// depend on (they use the analytic model; tests anchor it to ground truth).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "simcache/access_descriptor.h"
#include "simcache/analytic_cache.h"
#include "simcache/exact_cache.h"

namespace unimem::cache {
namespace {

constexpr int kMlp = 32;

TEST(AccessDescriptor, LineTouchArithmetic) {
  AccessDescriptor d;
  d.region_bytes = kMiB;
  d.accesses = 1024;
  d.access_bytes = 8;
  d.pattern = Pattern::kSequential;
  EXPECT_EQ(d.line_touches(), 128u);  // 8 doubles per line
  d.pattern = Pattern::kRandom;
  EXPECT_EQ(d.line_touches(), 1024u);  // every access a fresh line
  d.pattern = Pattern::kStrided;
  d.stride_bytes = 128;
  EXPECT_EQ(d.line_touches(), 1024u);  // stride >= line
  d.stride_bytes = 32;
  EXPECT_EQ(d.line_touches(), 512u);  // two accesses share a line
}

TEST(AccessDescriptor, FootprintLines) {
  AccessDescriptor d;
  d.region_bytes = kMiB;
  d.pattern = Pattern::kSequential;
  EXPECT_EQ(d.footprint_lines(), kMiB / 64);
  d.pattern = Pattern::kStrided;
  d.stride_bytes = 256;
  EXPECT_EQ(d.footprint_lines(), kMiB / 256);  // only every 4th line
}

TEST(AccessDescriptor, EffectiveMlp) {
  AccessDescriptor d;
  d.pattern = Pattern::kSequential;
  EXPECT_EQ(effective_mlp(d, kMlp), kMlp);
  d.pattern = Pattern::kPointerChase;
  EXPECT_EQ(effective_mlp(d, kMlp), 1);  // dependent chain, always 1
  d.mlp = 16;
  EXPECT_EQ(effective_mlp(d, kMlp), 1);  // override cannot break dependence
  d.pattern = Pattern::kRandom;
  EXPECT_EQ(effective_mlp(d, kMlp), 16);  // override honoured
  d.mlp = 0;
  EXPECT_EQ(effective_mlp(d, kMlp), kMlp / 4);
}

TEST(ExactCache, ColdMissThenHit) {
  ExactCache c(CacheConfig{64 * kKiB, 16, 64});
  EXPECT_TRUE(c.touch(0));
  EXPECT_FALSE(c.touch(0));
  EXPECT_FALSE(c.touch(32));  // same line
  EXPECT_TRUE(c.touch(64));   // next line
}

TEST(ExactCache, LruEvictionOrder) {
  // Direct-mapped-like tiny config: 4 sets x 2 ways, line 64.
  ExactCache c(CacheConfig{512, 2, 64});
  // Three lines mapping to the same set (set stride = 4 lines = 256 B).
  EXPECT_TRUE(c.touch(0));
  EXPECT_TRUE(c.touch(256));
  EXPECT_FALSE(c.touch(0));    // still resident
  EXPECT_TRUE(c.touch(512));   // evicts 256 (LRU), not 0
  EXPECT_FALSE(c.touch(0));
  EXPECT_TRUE(c.touch(256));   // was evicted
}

TEST(ExactCache, SmallRegionIsCapturedAfterWarmup) {
  ExactCache c;  // 1 MiB
  std::vector<std::byte> buf(256 * kKiB);
  AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = buf.size();
  d.pattern = Pattern::kSequential;
  d.accesses = 8 * (buf.size() / 8);  // 8 passes
  AccessResult r = c.process(d, kMlp);
  // Only the first pass misses.
  EXPECT_NEAR(static_cast<double>(r.misses),
              static_cast<double>(buf.size() / 64),
              static_cast<double>(buf.size() / 64) * 0.05);
}

TEST(ExactCache, StreamLargerThanCacheMissesEveryLine) {
  ExactCache c;  // 1 MiB
  std::vector<std::byte> buf(8 * kMiB);
  AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = buf.size();
  d.pattern = Pattern::kSequential;
  d.accesses = 2 * (buf.size() / 8);  // 2 passes, both should miss fully
  AccessResult r = c.process(d, kMlp);
  EXPECT_EQ(r.line_touches, 2 * buf.size() / 64);
  EXPECT_NEAR(static_cast<double>(r.misses),
              static_cast<double>(r.line_touches),
              static_cast<double>(r.line_touches) * 0.01);
}

TEST(ExactCache, ResetClearsState) {
  ExactCache c;
  EXPECT_TRUE(c.touch(0));
  EXPECT_FALSE(c.touch(0));
  c.reset();
  EXPECT_TRUE(c.touch(0));
}

TEST(AnalyticCache, SerializedMissesFollowMlp) {
  AnalyticCache c;
  std::vector<std::byte> buf(8 * kMiB);
  AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = buf.size();
  d.accesses = buf.size() / 8;
  d.pattern = Pattern::kSequential;
  AccessResult seq = c.process(d, kMlp);
  d.pattern = Pattern::kPointerChase;
  AccessResult chase = c.process(d, kMlp);
  EXPECT_NEAR(seq.serialized_misses * kMlp, static_cast<double>(seq.misses),
              1.0);
  EXPECT_DOUBLE_EQ(chase.serialized_misses,
                   static_cast<double>(chase.misses));
}

TEST(AnalyticCache, ChunkSlicesShareTheCache) {
  // Fourteen 1 MiB slices of one 14 MiB logical sweep must NOT each be
  // treated as cache-resident (the regression behind the FT bug).
  AnalyticCache c;
  std::vector<std::byte> buf(kMiB);
  AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = kMiB;
  d.logical_bytes = 14 * kMiB;
  d.pattern = Pattern::kSequential;
  d.accesses = 4 * (kMiB / 8);  // several passes over the slice
  AccessResult r = c.process(d, kMlp);
  EXPECT_NEAR(static_cast<double>(r.misses),
              static_cast<double>(r.line_touches),
              static_cast<double>(r.line_touches) * 0.01);
}

// ---------------------------------------------------------------------------
// Property: ExactCache's bulk process() path (per-set pass shortcuts, CSR
// strided streams) is access-for-access equivalent to the retained touch()
// oracle.  The oracle below replays the descriptor's address stream one
// byte address at a time — the definitional reference implementation.

AccessResult oracle_process(ExactCache& c, const AccessDescriptor& d,
                            int default_mlp) {
  AccessResult r;
  if (d.accesses == 0 || d.region_bytes == 0 || d.base == nullptr) return r;
  const auto base = reinterpret_cast<std::uint64_t>(d.base);
  // Same seeding as ExactCache::process so randomized streams coincide.
  Rng rng(d.seed * 0x2545F4914F6CDD1Dull + 7);
  auto touch_count = [&](std::uint64_t addr) {
    ++r.line_touches;
    if (c.touch(addr)) ++r.misses;
  };
  switch (d.pattern) {
    case Pattern::kSequential: {
      const std::uint64_t touches = d.line_touches();
      const std::uint64_t region_lines = lines_of(d.region_bytes);
      for (std::uint64_t i = 0; i < touches; ++i)
        touch_count(base + (i % region_lines) * kCacheLine);
      break;
    }
    case Pattern::kStrided: {
      const std::uint64_t slots = std::max<std::uint64_t>(
          1, d.region_bytes / std::max<std::size_t>(d.stride_bytes, 1));
      for (std::uint64_t i = 0; i < d.accesses; ++i)
        touch_count(base + (i % slots) * d.stride_bytes);
      break;
    }
    case Pattern::kRandom:
    case Pattern::kGather: {
      const std::uint64_t region_lines = lines_of(d.region_bytes);
      for (std::uint64_t i = 0; i < d.accesses; ++i)
        touch_count(base + rng.below(region_lines) * kCacheLine);
      break;
    }
    case Pattern::kPointerChase: {
      const std::uint64_t region_lines = lines_of(d.region_bytes);
      std::uint64_t line_idx = rng.below(region_lines);
      for (std::uint64_t i = 0; i < d.accesses; ++i) {
        touch_count(base + line_idx * kCacheLine);
        line_idx = (line_idx * 6364136223846793005ull +
                    rng.below(region_lines)) %
                   region_lines;
      }
      break;
    }
  }
  r.serialized_misses =
      static_cast<double>(r.misses) / effective_mlp(d, default_mlp);
  return r;
}

struct EquivCase {
  const char* name;
  Pattern pattern;
  std::size_t region;
  std::uint64_t accesses;
  std::size_t stride = 64;
  std::size_t base_offset = 0;  ///< misalign the base address
};

class BulkOracleEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(BulkOracleEquivalence, BulkPathMatchesTouchOracle) {
  const EquivCase& tc = GetParam();
  // Cache small enough that every family exercises evictions, with an
  // odd (non-power-of-two-sets) sibling config to cover the modulo path.
  for (const CacheConfig cfg :
       {CacheConfig{256 * kKiB, 16, 64}, CacheConfig{192 * kKiB, 16, 64}}) {
    ExactCache bulk(cfg);
    ExactCache byhand(cfg);
    std::vector<std::byte> buf(tc.region + tc.base_offset);
    AccessDescriptor d;
    d.base = buf.data() + tc.base_offset;
    d.region_bytes = tc.region;
    d.pattern = tc.pattern;
    d.accesses = tc.accesses;
    d.stride_bytes = tc.stride;
    AccessResult rb = bulk.process(d, kMlp);
    AccessResult ro = oracle_process(byhand, d, kMlp);
    EXPECT_EQ(rb.line_touches, ro.line_touches) << tc.name;
    EXPECT_EQ(rb.misses, ro.misses) << tc.name;
    EXPECT_DOUBLE_EQ(rb.serialized_misses, ro.serialized_misses) << tc.name;
    // Warm-state equivalence: a second, different descriptor must see the
    // exact same (tag, age) state in both instances.
    AccessDescriptor d2 = d;
    d2.pattern = tc.pattern == Pattern::kSequential ? Pattern::kRandom
                                                    : Pattern::kSequential;
    d2.accesses = 4096;
    d2.seed = 99;
    EXPECT_EQ(bulk.process(d2, kMlp).misses,
              oracle_process(byhand, d2, kMlp).misses)
        << tc.name << " (warm state diverged)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DescriptorFamilies, BulkOracleEquivalence,
    ::testing::Values(
        // Sequential: single pass, multi pass, partial tail, tiny region,
        // cache-resident region, and a misaligned base.
        EquivCase{"seq_one_pass_oversized", Pattern::kSequential, 4 * kMiB,
                  4 * kMiB / 8},
        EquivCase{"seq_multi_pass", Pattern::kSequential, kMiB,
                  3 * kMiB / 8 + 1234},
        EquivCase{"seq_fits_in_cache", Pattern::kSequential, 128 * kKiB,
                  8 * 128 * kKiB / 8},
        EquivCase{"seq_partial_pass_only", Pattern::kSequential, 4 * kMiB,
                  kMiB / 8},
        EquivCase{"seq_tiny_region", Pattern::kSequential, 300, 5000},
        EquivCase{"seq_misaligned_base", Pattern::kSequential, 2 * kMiB,
                  6 * kMiB / 8 + 7, 64, 24},
        // Strided: stride >= line (distinct lines), a non-line-multiple
        // stride, dense sub-line strides, and stride > region.
        EquivCase{"strided_256", Pattern::kStrided, 4 * kMiB, 80000, 256},
        EquivCase{"strided_96", Pattern::kStrided, 4 * kMiB, 100000, 96},
        EquivCase{"strided_misaligned", Pattern::kStrided, 2 * kMiB, 50000,
                  192, 40},
        EquivCase{"strided_dense_32", Pattern::kStrided, kMiB, 120000, 32},
        EquivCase{"strided_dense_48", Pattern::kStrided, kMiB, 120000, 48},
        EquivCase{"strided_gt_region", Pattern::kStrided, 4 * kKiB, 1000,
                  8 * kKiB},
        // Random / gather / pointer chase share the RNG stream contract.
        EquivCase{"random_oversized", Pattern::kRandom, 4 * kMiB, 200000},
        EquivCase{"random_resident", Pattern::kRandom, 64 * kKiB, 100000},
        EquivCase{"gather", Pattern::kGather, 2 * kMiB, 150000},
        EquivCase{"pointer_chase", Pattern::kPointerChase, 2 * kMiB, 100000}),
    [](const ::testing::TestParamInfo<EquivCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Property: the analytic model agrees with the exact simulator across the
// pattern space (within tolerance) for both cache-resident and oversized
// regions.

struct AgreeCase {
  Pattern pattern;
  std::size_t region;
  std::uint64_t accesses;
  double tolerance;  ///< relative miss-count tolerance
};

class CacheAgreement : public ::testing::TestWithParam<AgreeCase> {};

TEST_P(CacheAgreement, AnalyticTracksExact) {
  const AgreeCase& tc = GetParam();
  ExactCache exact;
  AnalyticCache analytic;
  std::vector<std::byte> buf(tc.region);
  AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = tc.region;
  d.pattern = tc.pattern;
  d.accesses = tc.accesses;
  d.stride_bytes = 256;
  AccessResult re = exact.process(d, kMlp);
  AccessResult ra = analytic.process(d, kMlp);
  ASSERT_GT(re.misses, 0u);
  double rel = std::abs(static_cast<double>(ra.misses) -
                        static_cast<double>(re.misses)) /
               static_cast<double>(re.misses);
  EXPECT_LE(rel, tc.tolerance) << "exact=" << re.misses
                               << " analytic=" << ra.misses;
}

// The test names carry a byte dump of each case, padding included. Static
// storage zero-initialises that padding, so the names are identical on every
// run; stack temporaries would leak stack bytes into them.
constexpr AgreeCase kAgreeCases[] = {
    // Oversized streams: both should miss ~every line.
    AgreeCase{Pattern::kSequential, 8 * kMiB, 4 * kMiB / 8, 0.05},
    AgreeCase{Pattern::kSequential, 4 * kMiB, 2 * kMiB / 8, 0.05},
    AgreeCase{Pattern::kStrided, 8 * kMiB, 32768, 0.05},
    // Random over oversized region: steady-state miss probability.
    AgreeCase{Pattern::kRandom, 8 * kMiB, 200000, 0.15},
    AgreeCase{Pattern::kRandom, 16 * kMiB, 200000, 0.15},
    AgreeCase{Pattern::kGather, 8 * kMiB, 200000, 0.15},
    // Pointer chase over oversized region.
    AgreeCase{Pattern::kPointerChase, 8 * kMiB, 100000, 0.15},
    // Small region, many passes: cold misses only.
    AgreeCase{Pattern::kSequential, 256 * kKiB, 8 * 256 * kKiB / 8, 0.10},
    AgreeCase{Pattern::kRandom, 256 * kKiB, 100000, 0.25},
};

INSTANTIATE_TEST_SUITE_P(Patterns, CacheAgreement,
                         ::testing::ValuesIn(kAgreeCases));

}  // namespace
}  // namespace unimem::cache
