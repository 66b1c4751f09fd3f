// MG — multigrid V-cycle (NPB).
//
// Target data objects (Table 3): buff, u, v, r (99% of footprint).
//
// u holds all grid levels in one array accessed through aliased views —
// the reason the paper's compiler tool cannot chunk MG ("because of widely
// employed memory alias in the benchmark").  With the scaled-down 4 MiB
// DRAM (paper: 128 MB), neither u nor r fits and Unimem degrades to a 13%
// gap while still closing ~35% of the NVM-DRAM distance (Fig. 13); with
// 8 MiB (256 MB) r+v fit and the gap closes.
#include <cmath>

#include "workloads/kernels.h"
#include "workloads/workload.h"

namespace unimem::wl {

namespace {

class MgWorkload final : public Workload {
 public:
  double run_rank(rt::Context& ctx, const WorkloadConfig& cfg) override {
    const std::size_t B = cfg.rank_bytes();
    const double iters = cfg.iterations;
    auto elems = [](std::size_t bytes) { return bytes / sizeof(double); };

    // u never fits the DRAM allowance and cannot be chunked; r fits the
    // 8 MiB (256 MB-equivalent) budget but not the 4 MiB (128 MB) one —
    // the Fig. 13 degradation case.
    const std::size_t n_u = elems(B * 40 / 100);   // all levels, aliased
    const std::size_t n_r = elems(B * 25 / 100);
    const std::size_t n_v = elems(B * 20 / 100);
    const std::size_t n_buff = elems(B * 10 / 100);

    auto dobj = [&](const char* n, std::size_t e, double est,
                    bool chunkable) {
      rt::ObjectTraits t;
      t.estimated_references = est;
      t.chunkable = chunkable;  // u/r are NOT chunkable (aliases)
      return ctx.malloc_object(n, e * sizeof(double), t);
    };
    rt::DataObject* buff = dobj("buff", n_buff, iters * 2.0 * n_buff, false);
    rt::DataObject* u = dobj("u", n_u, iters * 2.0 * n_u, false);
    rt::DataObject* v = dobj("v", n_v, iters * 2.0 * n_v, false);
    rt::DataObject* r = dobj("r", n_r, iters * 4.0 * n_r, false);

    fill_object(*u, 51);
    fill_object(*v, 52);

    double checksum = 0;
    mpi::Comm& comm = *ctx.comm();
    DriftSchedule drift(cfg);
    ctx.start();
    for (int it = 0; it < cfg.iterations; ++it) {
      ctx.iteration_begin();

      // Phase: residual r = v - A u (stream over the fine level).
      ctx.compute(WorkBuilder(drift.factor(it, 0))
                      .flops(4.0 * static_cast<double>(n_r))
                      .seq(v, n_v)
                      .seq(u, n_u / 2)
                      .seq(r, 2 * n_r, 0.5)
                      .work());
      checksum += axpy_touch(r->as_span<double>(), v->as_span<double>(), 1.0);

      // Phase: halo exchange through buff.
      ctx.compute(
          WorkBuilder(drift.factor(it, 1)).seq(buff, 2 * n_buff, 1.0).work());
      ring_exchange(comm, *buff, *buff, n_buff * sizeof(double) / 2,
                    600 + it % 3);

      // Phase: restrict/prolongate — strided sweeps over the level
      // hierarchy inside u (stride grows with coarsening).
      ctx.compute(WorkBuilder(drift.factor(it, 2))
                      .flops(3.0 * static_cast<double>(n_u))
                      .strided(u, n_u / 2, 128, 0.5)
                      .strided(u, n_u / 8, 512, 0.5)
                      .strided(r, n_r / 2, 256)
                      .work());
      checksum += stencil_touch(u->as_span<double>(), 64);

      // Phase: smoother — psinv stream over u and r.
      ctx.compute(WorkBuilder(drift.factor(it, 3))
                      .flops(4.0 * static_cast<double>(n_u))
                      .seq(r, n_r)
                      .seq(u, n_u, 0.5)
                      .work());
      checksum += axpy_touch(u->as_span<double>(), r->as_span<double>(), 0.5);

      double norm[1] = {checksum * 1e-9};
      comm.allreduce(norm, 1);
    }
    ctx.end();

    checksum += sum_object(*u) + sum_object(*r);
    for (rt::DataObject* o : {buff, u, v, r}) ctx.free_object(o);
    return checksum;
  }
};

}  // namespace

std::unique_ptr<Workload> make_mg() { return std::make_unique<MgWorkload>(); }

}  // namespace unimem::wl
