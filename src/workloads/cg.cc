// CG — conjugate gradient with an implicit sparse matrix (NPB kernel).
//
// Target data objects (paper Table 3): col_idx, a, w, z, p, q, r, rowstr, x
// (42% of the application footprint; the init-only arrays aelt/acol/arow
// are deliberately NOT target objects, as in the paper).
//
// Access character: the SpMV streams a and col_idx (bandwidth) and gathers
// p through col_idx (irregular, latency-leaning); the vector updates are
// short streams.  The pattern is identical in every phase of every
// iteration, which is why the paper finds cross-phase global search
// contributes >90% of Unimem's gain on CG.
#include <cmath>

#include "workloads/kernels.h"
#include "workloads/workload.h"

namespace unimem::wl {

namespace {

class CgWorkload final : public Workload {
 public:
  double run_rank(rt::Context& ctx, const WorkloadConfig& cfg) override {
    // Footprint ~ 132*na bytes: a(8*11na) + col_idx(4*11na) + 7 vectors.
    // CG's target objects are only 42% of the app footprint (Table 3) —
    // the init-only arrays are excluded — so the target set is about half
    // a rank's share and mostly fits the DRAM allowance, as in the paper.
    const std::size_t na =
        std::max<std::size_t>(4096, cfg.rank_bytes() / 2 / 132) &
        ~std::size_t{1023};
    const std::size_t nz = 11 * na;
    const double iters = cfg.iterations;

    rt::ObjectTraits t;
    auto dobj = [&](const char* n, std::size_t elems, double est) {
      rt::ObjectTraits tt = t;
      tt.estimated_references = est;
      return ctx.malloc_object(n, elems * sizeof(double), tt);
    };
    rt::ObjectTraits ti;  // int32 arrays
    ti.estimated_references = iters * static_cast<double>(nz);
    rt::DataObject* col_idx =
        ctx.malloc_object("col_idx", nz * sizeof(std::int32_t), ti);
    rt::DataObject* a = dobj("a", nz, iters * static_cast<double>(nz));
    // w's reference count depends on a convergence test -> unknown at loop
    // entry (exercises the paper's "cannot determine initial placement").
    rt::DataObject* w = dobj("w", na, -1.0);
    rt::DataObject* z = dobj("z", na, iters * 3.0 * static_cast<double>(na));
    rt::DataObject* p = dobj("p", na, iters * static_cast<double>(nz));
    rt::DataObject* q = dobj("q", na, iters * 3.0 * static_cast<double>(na));
    rt::DataObject* r = dobj("r", na, iters * 3.0 * static_cast<double>(na));
    rt::ObjectTraits tr;
    tr.estimated_references = iters * static_cast<double>(na);
    rt::DataObject* rowstr =
        ctx.malloc_object("rowstr", (na + 1) * sizeof(std::int32_t), tr);
    rt::DataObject* x = dobj("x", na, iters * 2.0 * static_cast<double>(na));

    // Real data.
    fill_object(*a, 11);
    fill_object(*p, 12);
    fill_object(*x, 13);
    {
      auto ci = col_idx->as_span<std::int32_t>();
      Rng rng(99);
      for (std::size_t i = 0; i < ci.size(); i += kTouchStride)
        ci[i] = static_cast<std::int32_t>(rng.below(na));
      auto rs = rowstr->as_span<std::int32_t>();
      for (std::size_t i = 0; i < rs.size(); i += kTouchStride)
        rs[i] = static_cast<std::int32_t>(i * 11);
    }

    double checksum = 0;
    mpi::Comm& comm = *ctx.comm();
    DriftSchedule drift(cfg);
    ctx.start();
    for (int it = 0; it < cfg.iterations; ++it) {
      ctx.iteration_begin();

      // Phase: q = A*p  (SpMV: stream a/col_idx, gather p, write q).
      ctx.compute(WorkBuilder(drift.factor(it, 0))
                      .flops(2.0 * static_cast<double>(nz))
                      .seq(a, nz)
                      .seq(col_idx, nz)
                      .strided(rowstr, na, 64)
                      .gather(p, nz)
                      .seq(q, na, 1.0)
                      .work());
      checksum += gather_touch(p->as_span<double>(),
                               col_idx->as_span<std::int32_t>());
      axpy_touch(q->as_span<double>(), a->as_span<double>().subspan(0, na),
                 0.5);

      double dot[1] = {sum_touch(q->as_span<double>())};
      comm.allreduce(dot, 1);
      double alpha = 1.0 / (1.0 + std::abs(dot[0]));

      // Phase: z += alpha p ; r -= alpha q.
      ctx.compute(WorkBuilder(drift.factor(it, 1))
                      .flops(4.0 * static_cast<double>(na))
                      .seq(z, na, 0.5)
                      .seq(p, na)
                      .seq(r, na, 0.5)
                      .seq(q, na)
                      .work());
      checksum += axpy_touch(z->as_span<double>(), p->as_span<double>(), alpha);
      checksum +=
          axpy_touch(r->as_span<double>(), q->as_span<double>(), -alpha);

      double rho[1] = {sum_touch(r->as_span<double>())};
      comm.allreduce(rho, 1);
      double beta = rho[0] / (1.0 + std::abs(dot[0]));

      // Phase: p = r + beta p ; x += alpha z ; w norm work.
      ctx.compute(WorkBuilder(drift.factor(it, 2))
                      .flops(5.0 * static_cast<double>(na))
                      .seq(p, na, 0.5)
                      .seq(r, na)
                      .seq(x, na, 0.5)
                      .seq(z, na)
                      .seq(w, na, 1.0)
                      .work());
      checksum += axpy_touch(p->as_span<double>(), r->as_span<double>(), beta);
      checksum += axpy_touch(x->as_span<double>(), z->as_span<double>(), alpha);
      fill_pattern(w->as_span<double>(), static_cast<std::uint64_t>(it));

      double norm[1] = {sum_touch(x->as_span<double>())};
      comm.allreduce(norm, 1);
      checksum += norm[0] * 1e-3;
    }
    ctx.end();

    checksum += sum_object(*x) + sum_object(*z);
    for (rt::DataObject* o : {col_idx, a, w, z, p, q, r, rowstr, x})
      ctx.free_object(o);
    return checksum;
  }
};

}  // namespace

std::unique_ptr<Workload> make_cg() { return std::make_unique<CgWorkload>(); }

}  // namespace unimem::wl
