// Tests for the tiered-memory substrate: arena allocator invariants,
// tier configs (Table 1), the HMS copy model, the DRAM arbiter, and the
// N-tier topology layer (backend registry, parse_topology, per-tier
// arbiter allowances).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "simmem/arena.h"
#include "simmem/dram_arbiter.h"
#include "simmem/hetero_memory.h"
#include "simmem/tier_config.h"

namespace unimem::mem {
namespace {

TEST(Arena, BasicAllocFree) {
  Arena a(kMiB);
  void* p = a.allocate(1000);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(a.contains(p));
  EXPECT_EQ(a.used(), align_up(1000, kCacheLine));
  a.deallocate(p);
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.free_bytes(), a.capacity());
}

TEST(Arena, AlignmentIs64) {
  Arena a(kMiB);
  for (int i = 0; i < 10; ++i) {
    void* p = a.allocate(i * 7 + 1);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kCacheLine, 0u);
  }
}

TEST(Arena, ReturnsNullWhenFull) {
  Arena a(64 * kKiB);
  void* p = a.allocate(64 * kKiB);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a.allocate(64), nullptr);
  a.deallocate(p);
  EXPECT_NE(a.allocate(64), nullptr);
}

TEST(Arena, ZeroAllocation) {
  Arena a(kMiB);
  EXPECT_EQ(a.allocate(0), nullptr);
  a.deallocate(nullptr);  // must be a no-op
}

TEST(Arena, CoalescingAllowsFullReuse) {
  Arena a(256 * kKiB);
  void* p1 = a.allocate(64 * kKiB);
  void* p2 = a.allocate(64 * kKiB);
  void* p3 = a.allocate(64 * kKiB);
  ASSERT_NE(p3, nullptr);
  // Free in an order that exercises both-side coalescing.
  a.deallocate(p1);
  a.deallocate(p3);
  a.deallocate(p2);
  EXPECT_EQ(a.largest_free_block(), a.capacity());
  EXPECT_NE(a.allocate(a.capacity()), nullptr);
}

TEST(Arena, PeakTracking) {
  Arena a(kMiB);
  void* p1 = a.allocate(256 * kKiB);
  void* p2 = a.allocate(128 * kKiB);
  a.deallocate(p1);
  EXPECT_EQ(a.peak_used(), 384 * kKiB);
  a.deallocate(p2);
  EXPECT_EQ(a.peak_used(), 384 * kKiB);
}

TEST(Arena, WritesDoNotCorruptNeighbours) {
  Arena a(kMiB);
  auto* p1 = static_cast<unsigned char*>(a.allocate(4096));
  auto* p2 = static_cast<unsigned char*>(a.allocate(4096));
  std::memset(p1, 0xAA, 4096);
  std::memset(p2, 0x55, 4096);
  EXPECT_EQ(p1[4095], 0xAA);
  EXPECT_EQ(p2[0], 0x55);
}

/// Property test: random alloc/free stress keeps the accounting exact and
/// never produces overlapping blocks.
class ArenaStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArenaStress, RandomAllocFree) {
  Arena a(2 * kMiB);
  Rng rng(GetParam());
  struct Block {
    std::byte* p;
    std::size_t len;
  };
  std::vector<Block> live;
  std::size_t expected_used = 0;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.uniform() < 0.55) {
      std::size_t want = 64 + rng.below(16 * kKiB);
      void* p = a.allocate(want);
      if (p != nullptr) {
        std::size_t len = align_up(want, kCacheLine);
        // No overlap with any live block.
        auto* np = static_cast<std::byte*>(p);
        for (const Block& b : live)
          EXPECT_TRUE(np + len <= b.p || b.p + b.len <= np);
        live.push_back({np, len});
        expected_used += len;
      }
    } else {
      std::size_t i = rng.below(live.size());
      a.deallocate(live[i].p);
      expected_used -= live[i].len;
      live[i] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(a.used(), expected_used);
    ASSERT_EQ(a.live_blocks(), live.size());
  }
  for (const Block& b : live) a.deallocate(b.p);
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.largest_free_block(), a.capacity());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaStress,
                         ::testing::Values(1, 2, 3, 17, 99, 123456));

TEST(TierConfig, NvmScalingRatios) {
  TierConfig d = TierConfig::dram_basis(kMiB);
  TierConfig n = TierConfig::nvm_scaled(kMiB, 0.5, 4.0);
  EXPECT_DOUBLE_EQ(n.read_bw, d.read_bw * 0.5);
  EXPECT_DOUBLE_EQ(n.write_bw, d.write_bw * 0.5);
  EXPECT_DOUBLE_EQ(n.read_latency_s, d.read_latency_s * 4.0);
  EXPECT_DOUBLE_EQ(n.write_latency_s, d.write_latency_s * 4.0);
}

TEST(TierConfig, NumaEmulationMatchesPaper) {
  // §4: "the emulated NVM has 60% of DRAM bandwidth and 1.89x latency".
  TierConfig d = TierConfig::dram_basis(kMiB);
  TierConfig n = TierConfig::nvm_numa_emulated(kMiB);
  EXPECT_NEAR(n.read_bw / d.read_bw, 0.60, 1e-12);
  EXPECT_NEAR(n.read_latency_s / d.read_latency_s, 1.89, 1e-12);
}

TEST(TierConfig, Table1HasFourTechnologies) {
  std::size_t n = 0;
  const NvmTechnology* t = table1_technologies(&n);
  ASSERT_EQ(n, 4u);
  EXPECT_EQ(t[0].name, "DRAM");
  EXPECT_EQ(t[1].name, "STT-RAM (ITRS'13)");
  EXPECT_EQ(t[2].name, "PCRAM");
  EXPECT_EQ(t[3].name, "ReRAM");
  // STT-RAM per Table 1: 60ns read, 80ns write, 800/600 MB/s.
  EXPECT_DOUBLE_EQ(t[1].read_ns_lo, 60);
  EXPECT_DOUBLE_EQ(t[1].write_ns_lo, 80);
  EXPECT_DOUBLE_EQ(t[1].rand_read_mbps_lo, 800);
  EXPECT_DOUBLE_EQ(t[1].rand_write_mbps_lo, 600);
}

TEST(HeteroMemory, TierOfAndAllocation) {
  HeteroMemory hms(HmsConfig::scaled(0.5, 1.0, kMiB, 4 * kMiB));
  void* d = hms.allocate(Tier::kDram, 1000);
  void* n = hms.allocate(Tier::kNvm, 1000);
  ASSERT_NE(d, nullptr);
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(hms.tier_of(d), Tier::kDram);
  EXPECT_EQ(hms.tier_of(n), Tier::kNvm);
  hms.deallocate(Tier::kDram, d);
  hms.deallocate(Tier::kNvm, n);
}

TEST(HeteroMemory, CopyCostModel) {
  HeteroMemory hms(HmsConfig::scaled(0.5, 1.0, kMiB, 4 * kMiB));
  // NVM -> DRAM limited by min(nvm.read_bw, dram.write_bw) = nvm.read_bw.
  const TierConfig& nvm = hms.tier_config(Tier::kNvm);
  double up = hms.copy_seconds(kMiB, Tier::kNvm, Tier::kDram);
  EXPECT_NEAR(up, static_cast<double>(kMiB) / nvm.read_bw, 1e-12);
  // Moving down is limited by NVM write bandwidth (= the slower side).
  double down = hms.copy_seconds(kMiB, Tier::kDram, Tier::kNvm);
  EXPECT_NEAR(down, static_cast<double>(kMiB) / nvm.write_bw, 1e-12);
  EXPECT_GT(down, 0.0);
}

TEST(DramArbiter, EnforcesAllowance) {
  DramArbiter arb(kMiB);
  // The single-allowance form meters tier 0 (DRAM) only.
  EXPECT_TRUE(arb.constrains(0));
  EXPECT_FALSE(arb.constrains(1));
  EXPECT_EQ(arb.allowance_tier(0), kMiB);
  EXPECT_TRUE(arb.request_tier(0, 512 * kKiB));
  EXPECT_TRUE(arb.request_tier(0, 512 * kKiB));
  EXPECT_FALSE(arb.request_tier(0, 1));
  arb.release_tier(0, 512 * kKiB);
  EXPECT_TRUE(arb.request_tier(0, 256 * kKiB));
  EXPECT_EQ(arb.granted_tier(0), 768 * kKiB);
}

TEST(TierBackends, BuiltinsRegisteredAndLookupWorks) {
  const std::vector<std::string> names = tier_backend_names();
  for (const char* want : {"cxl", "dram", "hbm", "nvm", "remote"})
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  TierFactory f = find_tier_backend("hbm");
  ASSERT_TRUE(f);
  const TierConfig t = f(kMiB);
  EXPECT_EQ(t.capacity_bytes, kMiB);
  EXPECT_DOUBLE_EQ(t.read_bw, TierConfig::hbm(kMiB).read_bw);
  EXPECT_FALSE(find_tier_backend("no-such-backend"));
}

TEST(TierBackends, RegistrationRejectsDuplicates) {
  auto toy = [](std::size_t cap) { return TierConfig::dram_basis(cap); };
  EXPECT_TRUE(register_tier_backend("simmem-test-toy", toy));
  EXPECT_FALSE(register_tier_backend("simmem-test-toy", toy));  // taken
  EXPECT_FALSE(register_tier_backend("dram", toy));             // built-in
  // The registered backend is immediately parseable.
  TopologyConfig topo = parse_topology("simmem-test-toy:1MiB,nvm:4MiB");
  ASSERT_EQ(topo.num_tiers(), 2u);
  EXPECT_EQ(topo.tiers[0].capacity_bytes, kMiB);
}

TEST(ParseTopology, LaddersSuffixesAndErrors) {
  TopologyConfig topo = parse_topology("hbm:1MiB,dram:4MiB,nvm:512MiB");
  ASSERT_EQ(topo.num_tiers(), 3u);
  EXPECT_EQ(topo.tiers[0].name, "HBM");
  EXPECT_EQ(topo.tiers[0].capacity_bytes, kMiB);
  EXPECT_EQ(topo.tiers[1].name, "DRAM");
  EXPECT_EQ(topo.tiers[1].capacity_bytes, 4 * kMiB);
  EXPECT_EQ(topo.tiers[2].capacity_bytes, 512 * kMiB);
  // KiB/GiB suffixes and plain bytes.
  EXPECT_EQ(parse_topology("dram:64KiB,nvm:1GiB").tiers[0].capacity_bytes,
            64 * kKiB);
  EXPECT_EQ(parse_topology("dram:4096,nvm:1MiB").tiers[0].capacity_bytes,
            4096u);
  EXPECT_THROW(parse_topology(""), std::invalid_argument);
  EXPECT_THROW(parse_topology("dram:1MiB"), std::invalid_argument);  // < 2
  EXPECT_THROW(parse_topology("bogus:1MiB,nvm:1MiB"), std::invalid_argument);
  EXPECT_THROW(parse_topology("dram:xx,nvm:1MiB"), std::invalid_argument);
  // Capacities that do not fit size_t: a product that wraps (2^44 MiB =
  // 2^64 bytes) and a count past ULLONG_MAX.
  EXPECT_THROW(parse_topology("dram:17592186044416MiB,nvm:1MiB"),
               std::invalid_argument);
  EXPECT_THROW(parse_topology("dram:99999999999999999999999,nvm:1MiB"),
               std::invalid_argument);
}

TEST(HeteroMemory, NTierTopologyAllocationAndBackstop) {
  TopologyConfig topo = parse_topology("hbm:1MiB,dram:2MiB,nvm:16MiB");
  HeteroMemory hms(topo);
  EXPECT_EQ(hms.num_tiers(), 3u);
  EXPECT_EQ(hms.backstop_tier(), tier(2));
  // The fastest tier and the backstop are the ladder's ends.
  EXPECT_DOUBLE_EQ(hms.tier_config(tier(0)).read_bw,
                   TierConfig::hbm(0).read_bw);
  EXPECT_EQ(hms.tier_config(hms.backstop_tier()).capacity_bytes, 16 * kMiB);
  // Every tier allocates from its own arena and tier_of() round-trips.
  for (int k = 0; k < 3; ++k) {
    void* p = hms.allocate(tier(k), 1000);
    ASSERT_NE(p, nullptr) << "tier " << k;
    EXPECT_EQ(hms.tier_of(p), tier(k));
    hms.deallocate(tier(k), p);
  }
  // Copy cost between adjacent tiers is limited by the slower endpoint.
  const double down = hms.copy_seconds(kMiB, tier(0), tier(2));
  EXPECT_NEAR(down,
              static_cast<double>(kMiB) / hms.tier_config(tier(2)).write_bw,
              1e-12);
}

TEST(DramArbiter, PerTierAllowances) {
  DramArbiter arb({kMiB, 2 * kMiB, DramArbiter::kUnbounded});
  EXPECT_TRUE(arb.constrains(0));
  EXPECT_TRUE(arb.constrains(1));
  EXPECT_FALSE(arb.constrains(2));   // explicit kUnbounded
  EXPECT_FALSE(arb.constrains(7));   // past the vector: unmetered
  EXPECT_FALSE(arb.constrains(-1));
  // Tiers meter independently.
  EXPECT_TRUE(arb.request_tier(0, kMiB));
  EXPECT_FALSE(arb.request_tier(0, 1));
  EXPECT_TRUE(arb.request_tier(1, 2 * kMiB));
  EXPECT_FALSE(arb.request_tier(1, 1));
  EXPECT_TRUE(arb.request_tier(2, std::size_t{1} << 40));  // never refused
  arb.release_tier(1, kMiB);
  EXPECT_TRUE(arb.request_tier(1, kMiB));
  EXPECT_EQ(arb.granted_tier(1), 2 * kMiB);
  EXPECT_EQ(arb.allowance_tier(2), DramArbiter::kUnbounded);
  EXPECT_EQ(arb.granted_tier(0), kMiB);
}

TEST(DramArbiter, ConcurrentRequestsStayBounded) {
  DramArbiter arb(1000 * kCacheLine);
  std::vector<std::thread> threads;
  std::atomic<int> granted{0};
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i)
        if (arb.request_tier(0, kCacheLine)) ++granted;
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(granted.load(), 1000);
  EXPECT_EQ(arb.granted_tier(0), arb.allowance_tier(0));
}

}  // namespace
}  // namespace unimem::mem
