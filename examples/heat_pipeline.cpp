// A custom application written directly against the Unimem API — the
// integration a domain scientist would do (paper Table 2: < 20 changed
// lines): allocate target objects with unimem_malloc-style calls, run the
// iterative loop, and let the runtime place data on the NVM+DRAM node.
//
// The app is a 2-grid heat relaxation pipeline with a halo exchange: grid
// `t_now` and `t_next` are streamed every step (bandwidth-sensitive), a
// particle list gathers through an index (latency-leaning), and a large
// history buffer is appended to once per step (cold).
#include <cstdio>

#include "core/runtime.h"
#include "minimpi/comm.h"
#include "workloads/kernels.h"

using namespace unimem;

int main() {
  constexpr int kRanks = 2;
  constexpr int kSteps = 12;
  constexpr std::size_t kGrid = 3 * kMiB;     // per grid copy
  constexpr std::size_t kHistory = 24 * kMiB; // chunkable append log

  mpi::World world(kRanks);
  std::vector<double> times(kRanks);

  // One node: both ranks share the DRAM arbiter (user-level service).
  mem::HeteroMemory hms(mem::HmsConfig{
      mem::TierConfig::dram_basis(20 * kMiB),
      mem::TierConfig::nvm_scaled(256 * kMiB, 0.5, 1.0)});
  mem::DramArbiter arbiter(8 * kMiB);

  world.run([&](mpi::Comm& comm) {
    rt::RuntimeOptions opts;
    opts.ranks_per_node = kRanks;
    rt::Runtime rt(opts, &hms, &arbiter, &comm);

    rt::ObjectTraits grid_traits;
    grid_traits.estimated_references = kSteps * 2.0 * (kGrid / 8.0);
    rt::DataObject* t_now = rt.malloc_object("t_now", kGrid, grid_traits);
    rt::DataObject* t_next = rt.malloc_object("t_next", kGrid, grid_traits);
    rt::DataObject* particles = rt.malloc_object("particles", kMiB);
    rt::ObjectTraits hist_traits;
    hist_traits.chunkable = true;  // regular 1-D append log
    rt::DataObject* history = rt.malloc_object("history", kHistory, hist_traits);
    rt::DataObject* halo = rt.malloc_object("halo", 256 * kKiB);

    wl::fill_object(*t_now, 1);
    const std::uint64_t cells = kGrid / 8;

    rt.start();
    double residual = 1.0;
    for (int step = 0; step < kSteps; ++step) {
      rt.iteration_begin();

      // Relaxation sweep: read t_now, write t_next (+ history append).
      rt.compute(wl::WorkBuilder()
                     .flops(6.0 * static_cast<double>(cells))
                     .seq(t_now, 2 * cells)
                     .seq(t_next, cells, 1.0)
                     .seq(history, kHistory / 8 / kSteps, 1.0)
                     .work());
      wl::stencil_touch(t_now->as_span<double>(), 8);

      // Halo exchange with the neighbour rank.
      wl::ring_exchange(comm, *halo, *halo, 64 * kKiB, step % 3);

      // Particle gather pass through the fresh grid.
      rt.compute(wl::WorkBuilder()
                     .flops(static_cast<double>(cells) / 4)
                     .gather(t_next, cells / 4)
                     .seq(particles, kMiB / 8, 0.5)
                     .work());

      residual *= 0.9;
      comm.allreduce(&residual, 1, mpi::ReduceOp::kMax);
      std::swap(t_now, t_next);
    }
    rt.end();
    times[comm.rank()] = rt.now();

    if (comm.rank() == 0) {
      rt::RuntimeStats s = rt.stats();
      std::printf("heat_pipeline: %d steps on %d ranks in %.2f ms (virtual)\n",
                  kSteps, kRanks, s.total_time_s * 1e3);
      std::printf(
          "  plan=%s, %llu migrations (%.1f MB), %.1f%% overlapped, "
          "runtime cost %.2f%%\n",
          s.plan_kind == rt::Plan::Kind::kGlobal ? "global" : "local",
          static_cast<unsigned long long>(s.migration.migrations),
          static_cast<double>(s.migration.bytes_moved) / 1e6,
          s.migration.overlap_percent(), s.overhead_percent());
      std::printf("  history chunks: %zu (chunkable 1-D object)\n",
                  history->chunk_count());
    }
    rt.free_object(t_now);
    rt.free_object(t_next);
    rt.free_object(particles);
    rt.free_object(history);
    rt.free_object(halo);
  });
  return 0;
}
