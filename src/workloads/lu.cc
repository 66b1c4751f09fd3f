// LU — SSOR solver for the Navier-Stokes equations (NPB).
//
// Target data objects (Table 3): u, rsd, frct, flux, a, b, c, d, buf, buf1.
//
// LU shows the largest NVM-only slowdown in the paper's preliminary study
// (2.19x at 1/2 bandwidth, 2.14x at 2x latency): the SSOR wavefront sweeps
// are memory-bound with limited overlap.  The same objects (rsd, u, the
// a..d block diagonals) are hot in every phase, so cross-phase global
// search captures >90% of the achievable gain (Fig. 11).
#include <cmath>

#include "workloads/kernels.h"
#include "workloads/workload.h"

namespace unimem::wl {

namespace {

class LuWorkload final : public Workload {
 public:
  double run_rank(rt::Context& ctx, const WorkloadConfig& cfg) override {
    const std::size_t B = cfg.rank_bytes();
    const double iters = cfg.iterations;
    auto elems = [](std::size_t bytes) { return bytes / sizeof(double); };

    const std::size_t n_u = elems(B * 12 / 100);
    const std::size_t n_rsd = elems(B * 12 / 100);
    const std::size_t n_frct = elems(B * 10 / 100);
    const std::size_t n_flux = elems(B * 8 / 100);
    const std::size_t n_diag = elems(B * 10 / 100);  // a,b,c,d
    const std::size_t n_buf = elems(B * 2 / 100);

    auto dobj = [&](const char* n, std::size_t e, double est) {
      rt::ObjectTraits t;
      t.estimated_references = est;
      return ctx.malloc_object(n, e * sizeof(double), t);
    };
    rt::DataObject* u = dobj("u", n_u, iters * 3.0 * n_u);
    rt::DataObject* rsd = dobj("rsd", n_rsd, iters * 6.0 * n_rsd);
    rt::DataObject* frct = dobj("frct", n_frct, iters * n_frct);
    rt::DataObject* flux = dobj("flux", n_flux, iters * 2.0 * n_flux);
    rt::DataObject* a = dobj("a", n_diag, iters * 2.0 * n_diag);
    rt::DataObject* b = dobj("b", n_diag, iters * 2.0 * n_diag);
    rt::DataObject* c = dobj("c", n_diag, iters * 2.0 * n_diag);
    rt::DataObject* d = dobj("d", n_diag, iters * 2.0 * n_diag);
    rt::DataObject* buf = dobj("buf", n_buf, iters * n_buf);
    rt::DataObject* buf1 = dobj("buf1", n_buf, iters * n_buf);

    fill_object(*u, 41);
    fill_object(*rsd, 42);
    fill_object(*a, 43);
    fill_object(*d, 44);

    double checksum = 0;
    mpi::Comm& comm = *ctx.comm();
    DriftSchedule drift(cfg);
    ctx.start();
    for (int it = 0; it < cfg.iterations; ++it) {
      ctx.iteration_begin();

      // Phase: rhs — flux-difference streams.
      ctx.compute(WorkBuilder(drift.factor(it, 0))
                      .flops(6.0 * static_cast<double>(n_rsd))
                      .seq(u, n_u)
                      .seq(frct, n_frct)
                      .seq(flux, 2 * n_flux, 0.5)
                      .seq(rsd, 2 * n_rsd, 0.5)
                      .work());
      checksum += axpy_touch(rsd->as_span<double>(), u->as_span<double>(), 0.2);

      // Phase: lower-triangular wavefront (dependent sweep, low MLP).
      ctx.compute(WorkBuilder(drift.factor(it, 1))
                      .flops(8.0 * static_cast<double>(n_diag))
                      .seq(a, n_diag, 0.0, /*mlp=*/12)
                      .seq(b, n_diag, 0.0, /*mlp=*/12)
                      .seq(c, n_diag, 0.0, /*mlp=*/12)
                      .seq(d, n_diag, 0.0, /*mlp=*/12)
                      .seq(rsd, n_rsd, 0.5, /*mlp=*/12)
                      .work());
      checksum += stencil_touch(rsd->as_span<double>(), 4);

      // Phase: wavefront boundary exchange.
      ctx.compute(
          WorkBuilder(drift.factor(it, 2)).seq(buf, 2 * n_buf, 1.0).work());
      ring_exchange(comm, *buf, *buf1, n_buf * sizeof(double), 500 + it % 3);

      // Phase: upper-triangular wavefront.
      ctx.compute(WorkBuilder(drift.factor(it, 3))
                      .flops(8.0 * static_cast<double>(n_diag))
                      .seq(buf1, n_buf)
                      .seq(a, n_diag, 0.0, /*mlp=*/12)
                      .seq(b, n_diag, 0.0, /*mlp=*/12)
                      .seq(c, n_diag, 0.0, /*mlp=*/12)
                      .seq(d, n_diag, 0.0, /*mlp=*/12)
                      .seq(rsd, n_rsd, 0.5, /*mlp=*/12)
                      .work());
      checksum += stencil_touch(rsd->as_span<double>(), 16);

      // Phase: update u from rsd.
      ctx.compute(WorkBuilder(drift.factor(it, 4))
                      .flops(2.0 * static_cast<double>(n_u))
                      .seq(rsd, n_rsd)
                      .seq(u, n_u, 1.0)
                      .work());
      checksum += axpy_touch(u->as_span<double>(), rsd->as_span<double>(), 0.3);

      double norm[1] = {checksum * 1e-9};
      comm.allreduce(norm, 1);
    }
    ctx.end();

    checksum += sum_object(*u) + sum_object(*rsd);
    for (rt::DataObject* o : {u, rsd, frct, flux, a, b, c, d, buf, buf1})
      ctx.free_object(o);
    return checksum;
  }
};

}  // namespace

std::unique_ptr<Workload> make_lu() { return std::make_unique<LuWorkload>(); }

}  // namespace unimem::wl
