// FT — 3-D FFT PDE solver (NPB).
//
// Target data objects (Table 3): u, u0, u1, u2, twiddle (99% of footprint).
//
// u0/u1/u2 are large contiguous 1-D arrays with regular references — the
// one case where the paper's conservative chunking applies and pays off:
// "we do have a benchmark (FT) benefit from partitioning large data
// objects" (58% of FT's improvement, Fig. 11).  Whole objects exceed the
// DRAM budget and could never migrate; chunks can.  The per-iteration
// all-to-all transpose makes FT communication-heavy.
#include <cmath>
#include <vector>

#include "workloads/kernels.h"
#include "workloads/workload.h"

namespace unimem::wl {

namespace {

class FtWorkload final : public Workload {
 public:
  double run_rank(rt::Context& ctx, const WorkloadConfig& cfg) override {
    // FT's grids are the largest arrays in the suite relative to DRAM (the
    // paper runs FT at CLASS C because D is too long): a single grid array
    // exceeds the DRAM allowance, so whole-object placement is impossible
    // and chunked placement is the only way to use DRAM at all.
    const std::size_t B = cfg.rank_bytes() * 5 / 2;
    const double iters = cfg.iterations;
    auto elems = [](std::size_t bytes) { return bytes / sizeof(double); };

    const std::size_t n_grid = elems(B * 29 / 100);  // u0/u1/u2 each
    const std::size_t n_tw = elems(B * 10 / 100);
    const std::size_t n_roots = elems(B / 100);

    auto dobj = [&](const char* n, std::size_t e, double est,
                    bool chunkable) {
      rt::ObjectTraits t;
      t.estimated_references = est;
      t.chunkable = chunkable;  // regular 1-D references: safe to chunk
      return ctx.malloc_object(n, e * sizeof(double), t);
    };
    rt::DataObject* u = dobj("u", n_roots, iters * n_roots, false);
    rt::DataObject* u0 = dobj("u0", n_grid, iters * 3.0 * n_grid, true);
    rt::DataObject* u1 = dobj("u1", n_grid, iters * 4.0 * n_grid, true);
    rt::DataObject* u2 = dobj("u2", n_grid, iters * 2.0 * n_grid, true);
    rt::DataObject* twiddle = dobj("twiddle", n_tw, iters * 2.0 * n_tw, false);

    fill_object(*u0, 61);
    fill_object(*u1, 62);
    fill_object(*twiddle, 63);
    fill_object(*u, 64);

    const int p = ctx.comm()->size();
    // Per-destination transpose slice, rounded to whole doubles.
    const std::size_t a2a_bytes =
        std::max<std::size_t>(4096, n_grid * sizeof(double) /
                                        static_cast<std::size_t>(p) / 4) &
        ~std::size_t{7};
    std::vector<double> sendbuf(a2a_bytes / 8 * static_cast<std::size_t>(p));
    std::vector<double> recvbuf(sendbuf.size());

    double checksum = 0;
    mpi::Comm& comm = *ctx.comm();
    DriftSchedule drift(cfg);
    ctx.start();
    for (int it = 0; it < cfg.iterations; ++it) {
      ctx.iteration_begin();

      // Phase: evolve — u1 = u0 * twiddle^t (bulk streams).
      ctx.compute(WorkBuilder(drift.factor(it, 0))
                      .flops(4.0 * static_cast<double>(n_grid))
                      .seq(u0, n_grid, 0.5)
                      .seq(twiddle, n_tw)
                      .seq(u1, n_grid, 1.0)
                      .work());
      for_each_chunk(*u0, [&](std::span<double> s) {
        checksum += stencil_touch(s, 8);
      });

      // Phase: local 1-D FFTs along the first two dimensions — strided
      // butterfly passes over u1 with the root table u.
      ctx.compute(WorkBuilder(drift.factor(it, 1))
                      .flops(10.0 * static_cast<double>(n_grid))
                      .seq(u, 4 * n_roots)
                      .strided(u1, 2 * n_grid, 128, 0.5)
                      .work());
      for_each_chunk(*u1, [&](std::span<double> s) {
        checksum += stencil_touch(s, 32);
      });

      // Phase: global transpose (all-to-all).
      comm.alltoall(sendbuf.data(), recvbuf.data(), a2a_bytes);

      // Phase: FFT along the third dimension into u2 + checksum taps.
      ctx.compute(WorkBuilder(drift.factor(it, 2))
                      .flops(6.0 * static_cast<double>(n_grid))
                      .seq(u1, n_grid)
                      .seq(u, 2 * n_roots)
                      .seq(u2, n_grid, 1.0)
                      .random(u2, n_grid / 64)
                      .work());
      for_each_chunk(*u2, [&](std::span<double> s) {
        checksum += sum_touch(s) * 1e-6;
      });

      double norm[1] = {checksum * 1e-9};
      comm.allreduce(norm, 1);
    }
    ctx.end();

    checksum += sum_object(*u1) + sum_object(*u0);
    for (rt::DataObject* o : {u, u0, u1, u2, twiddle}) ctx.free_object(o);
    return checksum;
  }
};

}  // namespace

std::unique_ptr<Workload> make_ft() { return std::make_unique<FtWorkload>(); }

}  // namespace unimem::wl
