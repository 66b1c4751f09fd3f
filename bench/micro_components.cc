// Micro-benchmarks (google-benchmark) for the core components: the knapsack
// DP (the paper's 0-1 placement as the one-constrained-tier MCKP), cache
// models (exact vs analytic), the arena allocator, minimpi collectives,
// and the migration engine's copy path.
//
// The *Production benchmarks below are the before/after anchors recorded in
// BENCH_components.json (see scripts/bench_components.sh and the README
// "Perf methodology" section): they size the exact-cache and knapsack hot
// paths the way the planning loop sees them at production problem scales.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/knapsack.h"
#include "core/migration.h"
#include "core/profiler.h"
#include "core/registry.h"
#include "minimpi/comm.h"
#include "perfmon/sample_gate.h"
#include "simcache/analytic_cache.h"
#include "simcache/exact_cache.h"
#include "simmem/arena.h"
#include "trace/trace.h"

namespace {

using namespace unimem;

std::vector<rt::KnapsackItem> make_items(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<rt::KnapsackItem> items;
  for (std::size_t i = 0; i < n; ++i)
    items.push_back(
        rt::KnapsackItem{rng.uniform(0.0, 1.0), 64 * (1 + rng.below(4096))});
  return items;
}

/// Production-shaped instances: chunk-sized objects (64 KiB .. 8 MiB), the
/// regime the planner's per-phase knapsack sees on class C/D inputs.
std::vector<rt::KnapsackItem> make_production_items(std::size_t n,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<rt::KnapsackItem> items;
  for (std::size_t i = 0; i < n; ++i)
    items.push_back(rt::KnapsackItem{rng.uniform(0.0, 1.0),
                                     64 * kKiB * (1 + rng.below(127))});
  return items;
}

/// The planner's 2-tier packing shape: weights {w, 0} over one constrained
/// tier (DRAM) and the unbounded NVM backstop.
std::vector<rt::MckpItem> two_tier(const std::vector<rt::KnapsackItem>& items) {
  std::vector<rt::MckpItem> out;
  for (const rt::KnapsackItem& it : items)
    out.push_back(rt::MckpItem{{it.weight, 0.0}, it.bytes});
  return out;
}

void BM_KnapsackDP(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto items = two_tier(make_items(n, 42));
  rt::KnapsackSolver solver(64 * 1024);
  for (auto _ : state) {
    auto r =
        solver.solve_mckp(items, {8 << 20, rt::KnapsackSolver::kUnbounded});
    benchmark::DoNotOptimize(r.total_weight);
  }
}
BENCHMARK(BM_KnapsackDP)->Arg(8)->Arg(32)->Arg(128);

// ---------------------------------------------------------------------------
// Production-size sweeps (BENCH_components.json anchors).

void BM_KnapsackDPProduction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t cap = static_cast<std::size_t>(state.range(1)) * kMiB;
  auto items = two_tier(make_production_items(n, 42));
  rt::KnapsackSolver solver(64 * kKiB);
  for (auto _ : state) {
    auto r = solver.solve_mckp(items, {cap, rt::KnapsackSolver::kUnbounded});
    benchmark::DoNotOptimize(r.total_weight);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// n items vs DRAM-allowance capacity (MiB); item sizes are chunk-scale, so
// every instance is heavily over-subscribed and the DP must actually choose.
BENCHMARK(BM_KnapsackDPProduction)
    ->Args({512, 32})
    ->Args({2048, 128})
    ->Args({2048, 512})
    ->Unit(benchmark::kMillisecond);

// Adaptive re-planning (core/replan.h): the epoch-cadence choice is
// between a full knapsack re-solve over every item — which is exactly
// BM_KnapsackDPProduction/2048/512 above, the anchor the speedup is
// computed against — and the bounded warm-start repair below, which
// classifies per-item weight drift (one linear pass) and re-scores only
// the drifted items over the freed capacity slice.  The repair must beat
// the full DP by a wide margin for the adaptive path to stay cheap at
// any epoch cadence (BENCH_components.json `replan_incremental_speedup`).

/// `state.range(2)` percent of the items drifted: classify + bounded
/// re-score over the proportional capacity slice (the repair's exact
/// shape; the non-drifted residents keep their bytes without being
/// re-packed).
void BM_ReplanIncrementalRepairProduction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t cap = static_cast<std::size_t>(state.range(1)) * kMiB;
  const auto pct = static_cast<std::size_t>(state.range(2));
  auto old_items = make_production_items(n, 42);
  auto new_items = old_items;
  Rng rng(77);
  for (auto& it : new_items)
    if (rng.below(100) < pct) it.weight *= rng.uniform(0.2, 3.0);
  rt::KnapsackSolver solver(64 * kKiB);
  for (auto _ : state) {
    // Drift classification: one pass over the per-item weight deltas.
    std::vector<rt::KnapsackItem> drifted;
    for (std::size_t i = 0; i < n; ++i) {
      const double hi = std::max(old_items[i].weight, new_items[i].weight);
      if (hi > 0 &&
          std::abs(new_items[i].weight - old_items[i].weight) > 0.25 * hi)
        drifted.push_back(new_items[i]);
    }
    // Bounded re-score of the drifted slice only.
    auto r = solver.solve_bounded(drifted, cap * pct / 100);
    benchmark::DoNotOptimize(r.total_weight);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ReplanIncrementalRepairProduction)
    ->Args({2048, 512, 5})
    ->Args({2048, 512, 25})
    ->Unit(benchmark::kMillisecond);

void BM_KnapsackHugeProduction(benchmark::State& state) {
  // Item-count x capacity product far past any sensible dense-DP size; the
  // solver is expected to stay sane here rather than allocate gigabytes.
  auto items = two_tier(make_production_items(8192, 42));
  rt::KnapsackSolver solver(64 * kKiB);
  for (auto _ : state) {
    auto r = solver.solve_mckp(
        items, {std::size_t{4096} * kMiB, rt::KnapsackSolver::kUnbounded});
    benchmark::DoNotOptimize(r.total_weight);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_KnapsackHugeProduction)->Unit(benchmark::kMillisecond);

void BM_KnapsackTierLadderProduction(benchmark::State& state) {
  // The 4-tier instance tier_ladder's cg row solves at its first plan (also
  // pinned in tests/knapsack_test.cc): 9 units over hbm 2 MiB, dram 8 MiB,
  // cxl 32 MiB and the NVM backstop, at the planner's 64 KiB granule.
  const std::vector<rt::MckpItem> items = {
      {{0x1.18bea846db86ap-11, 0x1.79e1dff611056p-14, -0x1.c4c2d9cb7f8c7p-12,
        -0x1.c4c2d9cb7f8c7p-12}, 2072576},
      {{0x1.1734e564f4208p-10, 0x1.5b20372d12ddap-12, -0x1.c4c2d9cb7f8c7p-11,
        0x0p+0}, 4145152},
      {{0x1.821dfceb22a34p-14, 0x1.cb31414092166p-16, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
      {{0x1.96a74bded0b07p-13, 0x1.66e8167f485fap-14, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
      {{0x1.aba9fce91f3dfp-11, 0x1.ce4c7eb3ba2c4p-12, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
      {{0x1.17578a807708dp-12, 0x1.0a53ebe56bd51p-13, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
      {{0x1.95c828ce2a6ffp-13, 0x1.65e912fe8a5f2p-14, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
      {{0x1.94911c1c9638cp-15, 0x1.f53825e13b18ap-17, -0x1.4964864ac0a6ep-15,
        0x0p+0}, 188480},
      {{0x1.3625d6d437a52p-14, 0x1.1d8c57e79d88ap-16, -0x1.4947e436e8662p-14,
        0x0p+0}, 376832},
  };
  const std::vector<std::size_t> caps = {2 * kMiB, 8 * kMiB, 32 * kMiB,
                                         rt::KnapsackSolver::kUnbounded};
  rt::KnapsackSolver solver(64 * kKiB);
  for (auto _ : state) {
    auto r = solver.solve_mckp(items, caps);
    benchmark::DoNotOptimize(r.total_weight);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items.size()));
}
BENCHMARK(BM_KnapsackTierLadderProduction)->Unit(benchmark::kMillisecond);

/// One descriptor sized like a class-D rank's dominant object.
void BM_ExactCacheSeqPassProduction(benchmark::State& state) {
  cache::ExactCache c;
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  cache::AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = buf.size();
  d.pattern = cache::Pattern::kSequential;
  d.accesses = buf.size() / 8;  // one full pass
  for (auto _ : state) {
    auto r = c.process(d, 32);
    benchmark::DoNotOptimize(r.misses);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_ExactCacheSeqPassProduction)->Arg(64 << 20)->Unit(benchmark::kMillisecond);

/// Iterative-solver shape: the same region swept eight times per phase.
void BM_ExactCacheSeqMultiPassProduction(benchmark::State& state) {
  cache::ExactCache c;
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  cache::AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = buf.size();
  d.pattern = cache::Pattern::kSequential;
  d.accesses = 8 * (buf.size() / 8);  // eight passes
  for (auto _ : state) {
    auto r = c.process(d, 32);
    benchmark::DoNotOptimize(r.misses);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_ExactCacheSeqMultiPassProduction)->Arg(16 << 20)->Unit(benchmark::kMillisecond);

void BM_ExactCacheStridedProduction(benchmark::State& state) {
  cache::ExactCache c;
  std::vector<std::byte> buf(64 << 20);
  cache::AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = buf.size();
  d.pattern = cache::Pattern::kStrided;
  d.stride_bytes = static_cast<std::size_t>(state.range(0));
  const std::uint64_t slots =
      buf.size() / static_cast<std::size_t>(state.range(0));
  d.accesses = 2 * slots;  // two passes over the strided slots
  for (auto _ : state) {
    auto r = c.process(d, 32);
    benchmark::DoNotOptimize(r.misses);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.accesses));
}
BENCHMARK(BM_ExactCacheStridedProduction)->Arg(256)->Arg(96)->Unit(benchmark::kMillisecond);

void BM_ExactCacheRandomProduction(benchmark::State& state) {
  cache::ExactCache c;
  std::vector<std::byte> buf(64 << 20);
  cache::AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = buf.size();
  d.pattern = cache::Pattern::kRandom;
  d.accesses = 2 << 20;
  for (auto _ : state) {
    auto r = c.process(d, 32);
    benchmark::DoNotOptimize(r.misses);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.accesses));
}
BENCHMARK(BM_ExactCacheRandomProduction)->Unit(benchmark::kMillisecond);

void BM_ExactCachePointerChaseProduction(benchmark::State& state) {
  cache::ExactCache c;
  std::vector<std::byte> buf(32 << 20);
  cache::AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = buf.size();
  d.pattern = cache::Pattern::kPointerChase;
  d.accesses = 1 << 20;
  for (auto _ : state) {
    auto r = c.process(d, 32);
    benchmark::DoNotOptimize(r.misses);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(d.accesses));
}
BENCHMARK(BM_ExactCachePointerChaseProduction)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Profiling tiers (BENCH_components.json `profiler_sampled_speedup`): the
// cost of consuming one PMU miss event on the rank thread.  Exact mode
// attributes every address through the registry's locked interval map;
// sampled mode pays one countdown-gate check per event and attributes only
// the few captured addresses.  Registry shape is production-like: hundreds
// of chunk-scale objects, so attribution walks a deep map with a
// cache-hostile random stream.

constexpr std::size_t kProfObjects = 1024;
constexpr std::size_t kProfEvents = 1 << 18;

std::vector<rt::DataObject*> make_profiled_objects(rt::Registry& reg) {
  std::vector<rt::DataObject*> objs;
  for (std::size_t i = 0; i < kProfObjects; ++i)
    objs.push_back(reg.create("o" + std::to_string(i), 64 * kKiB, {},
                              mem::Tier::kNvm));
  return objs;
}

std::vector<std::uint64_t> make_miss_stream(
    const std::vector<rt::DataObject*>& objs, std::size_t n) {
  Rng rng(42);
  std::vector<std::uint64_t> addrs(n);
  for (auto& a : addrs) {
    const rt::Chunk& c = objs[rng.below(objs.size())]->chunk(0);
    a = reinterpret_cast<std::uint64_t>(c.data()) +
        rng.below(c.bytes / kCacheLine) * kCacheLine;
  }
  return addrs;
}

void BM_ProfilerExactAccessProduction(benchmark::State& state) {
  mem::HeteroMemory hms(mem::HmsConfig::scaled(0.5, 1.0, 16 << 20, 64 << 20));
  rt::Registry reg(&hms, nullptr);
  const auto addrs = make_miss_stream(make_profiled_objects(reg), kProfEvents);
  perf::PhaseSamples s;
  s.total_samples = addrs.size();
  s.total_miss_count = addrs.size();
  s.miss_addresses = addrs;
  rt::Profiler prof(&reg);
  for (auto _ : state) {
    prof.begin_iteration();
    prof.record_phase(s, 1.0);
    benchmark::DoNotOptimize(prof.phase_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_ProfilerExactAccessProduction)->Unit(benchmark::kMillisecond);

void BM_ProfilerSampledAccessProduction(benchmark::State& state) {
  mem::HeteroMemory hms(mem::HmsConfig::scaled(0.5, 1.0, 16 << 20, 64 << 20));
  rt::Registry reg(&hms, nullptr);
  const auto addrs = make_miss_stream(make_profiled_objects(reg), kProfEvents);
  rt::Profiler prof(&reg);
  Rng seeds(7);
  for (auto _ : state) {
    // What the rank thread does at phase close: gate every event, capture
    // the few that pass, and attribute them.
    perf::SampleGate gate(64, seeds.next());
    perf::PhaseSamples ps;
    ps.total_miss_count = addrs.size();
    for (std::uint64_t a : addrs) {
      if (!gate.take()) continue;
      ++ps.total_samples;
      ps.miss_addresses.push_back(a);
    }
    prof.begin_iteration();
    benchmark::DoNotOptimize(prof.record_phase(ps, 1.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(addrs.size()));
}
BENCHMARK(BM_ProfilerSampledAccessProduction)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------

void BM_ExactCacheStream(benchmark::State& state) {
  cache::ExactCache c;
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  cache::AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = buf.size();
  d.pattern = cache::Pattern::kSequential;
  d.accesses = buf.size() / 8;
  for (auto _ : state) {
    auto r = c.process(d, 32);
    benchmark::DoNotOptimize(r.misses);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_ExactCacheStream)->Arg(1 << 20)->Arg(8 << 20);

void BM_AnalyticCacheStream(benchmark::State& state) {
  cache::AnalyticCache c;
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  cache::AccessDescriptor d;
  d.base = buf.data();
  d.region_bytes = buf.size();
  d.pattern = cache::Pattern::kSequential;
  d.accesses = buf.size() / 8;
  for (auto _ : state) {
    auto r = c.process(d, 32);
    benchmark::DoNotOptimize(r.misses);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_AnalyticCacheStream)->Arg(1 << 20)->Arg(8 << 20);

void BM_ArenaAllocFree(benchmark::State& state) {
  mem::Arena arena(64 << 20);
  Rng rng(7);
  std::vector<void*> live;
  for (auto _ : state) {
    if (live.size() < 64 && (live.empty() || rng.uniform() < 0.6)) {
      void* p = arena.allocate(64 + rng.below(256 * 1024));
      if (p != nullptr) live.push_back(p);
    } else {
      std::size_t i = rng.below(live.size());
      arena.deallocate(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  for (void* p : live) arena.deallocate(p);
}
BENCHMARK(BM_ArenaAllocFree);

void BM_MiniMpiAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpi::World world(ranks);
    world.run([&](mpi::Comm& c) {
      double v[4] = {1, 2, 3, 4};
      for (int i = 0; i < 50; ++i) c.allreduce(v, 4);
    });
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_MiniMpiAllreduce)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_MigrationRoundTrip(benchmark::State& state) {
  mem::HeteroMemory hms(mem::HmsConfig::scaled(0.5, 1.0, 16 << 20, 64 << 20));
  rt::Registry reg(&hms, nullptr);
  rt::DataObject* o = reg.create("x", static_cast<std::size_t>(state.range(0)),
                                 {}, mem::Tier::kNvm);
  rt::MigrationEngine eng(&reg);
  bool to_dram = true;
  for (auto _ : state) {
    eng.enqueue_batch({{rt::UnitRef{o->id(), 0},
                        to_dram ? mem::Tier::kDram : mem::Tier::kNvm, 0.0}});
    eng.drain();
    to_dram = !to_dram;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MigrationRoundTrip)->Arg(1 << 20)->Arg(4 << 20);

// Trace emit anchors (trace_emit_overhead in BENCH_components.json): the
// runtime-disabled path must be a branch (<= 1 ns/event), the enabled path
// a clock read + SPSC ring push (<= 50 ns/event).
void BM_TraceEmitDisabledProduction(benchmark::State& state) {
  // Recorder never started: every macro site is the relaxed-load fast path.
  std::uint64_t i = 0;
  for (auto _ : state) {
    UNIMEM_TRACE_INSTANT1("bench", "tick", -1.0, "i", i);
    ++i;
  }
  benchmark::DoNotOptimize(i);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEmitDisabledProduction);

void BM_TraceEmitProduction(benchmark::State& state) {
  auto& rec = trace::TraceRecorder::instance();
  rec.start(1 << 20);
  trace::set_thread_track("bench", 0);
  std::uint64_t i = 0;
  for (auto _ : state) {
    UNIMEM_TRACE_INSTANT1("bench", "tick", -1.0, "i", i);
    // Drain (untimed) well before the ring fills so every timed emit
    // measures the push path, never the drop path.
    if ((++i & ((1u << 19) - 1)) == 0) {
      state.PauseTiming();
      rec.flush();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  rec.stop();
}
BENCHMARK(BM_TraceEmitProduction);

}  // namespace

BENCHMARK_MAIN();
