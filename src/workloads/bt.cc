// BT — block tridiagonal ADI solver (NPB).
//
// Target data objects (Table 3): rhs, forcing, u, us, vs, ws, qs, rho_i,
// square, out_buffer, in_buffer, fjac, njac, lhsa, lhsb, lhsc.
//
// The x/y/z sweep phases are each hot on a *different* block system
// (lhsa / lhsb / lhsc with fjac/njac), so a single whole-iteration
// placement leaves gains on the table — this is the benchmark where the
// paper's phase-local search adds 19% on top of the global search
// (Fig. 11), at the cost of per-phase migrations (24 per run in Table 4).
#include <cmath>

#include "workloads/kernels.h"
#include "workloads/workload.h"

namespace unimem::wl {

namespace {

class BtWorkload final : public Workload {
 public:
  double run_rank(rt::Context& ctx, const WorkloadConfig& cfg) override {
    const std::size_t B = cfg.rank_bytes();
    const double iters = cfg.iterations;
    auto elems = [](std::size_t bytes) { return bytes / sizeof(double); };

    // The three block systems are sized so one phase's hot set (lhsX +
    // jacobians + rhs) is about one DRAM budget, but all three together are
    // not — the regime where phase-local placement beats a global one.
    const std::size_t n_lhs = elems(B * 20 / 100);  // lhsa/lhsb/lhsc
    const std::size_t n_jac = elems(B * 12 / 100);  // fjac/njac
    const std::size_t n_u = elems(B * 8 / 100);
    const std::size_t n_rhs = elems(B * 10 / 100);
    const std::size_t n_forc = elems(B * 3 / 100);
    const std::size_t n_aux = elems(B / 200);       // 6 aux arrays
    const std::size_t n_buf = elems(B * 3 / 200);

    auto dobj = [&](const char* n, std::size_t e, double est) {
      rt::ObjectTraits t;
      t.estimated_references = est;
      return ctx.malloc_object(n, e * sizeof(double), t);
    };
    rt::DataObject* rhs = dobj("rhs", n_rhs, iters * 5.0 * n_rhs);
    rt::DataObject* forcing = dobj("forcing", n_forc, iters * n_forc);
    rt::DataObject* u = dobj("u", n_u, iters * 2.0 * n_u);
    rt::DataObject* us = dobj("us", n_aux, iters * n_aux);
    rt::DataObject* vs = dobj("vs", n_aux, iters * n_aux);
    rt::DataObject* ws = dobj("ws", n_aux, iters * n_aux);
    rt::DataObject* qs = dobj("qs", n_aux, iters * n_aux);
    rt::DataObject* rho_i = dobj("rho_i", n_aux, iters * n_aux);
    rt::DataObject* square = dobj("square", n_aux, iters * n_aux);
    rt::DataObject* out_buffer = dobj("out_buffer", n_buf, iters * 2.0 * n_buf);
    rt::DataObject* in_buffer = dobj("in_buffer", n_buf, iters * 2.0 * n_buf);
    rt::DataObject* fjac = dobj("fjac", n_jac, iters * 3.0 * n_jac);
    rt::DataObject* njac = dobj("njac", n_jac, iters * 3.0 * n_jac);
    rt::DataObject* lhsa = dobj("lhsa", n_lhs, iters * 2.0 * n_lhs);
    rt::DataObject* lhsb = dobj("lhsb", n_lhs, iters * 2.0 * n_lhs);
    rt::DataObject* lhsc = dobj("lhsc", n_lhs, iters * 2.0 * n_lhs);

    fill_object(*u, 31);
    fill_object(*rhs, 32);
    fill_object(*lhsa, 33);
    fill_object(*lhsb, 34);
    fill_object(*lhsc, 35);

    double checksum = 0;
    mpi::Comm& comm = *ctx.comm();
    DriftSchedule drift(cfg);
    ctx.start();
    for (int it = 0; it < cfg.iterations; ++it) {
      ctx.iteration_begin();

      // Phase: compute_rhs.
      ctx.compute(WorkBuilder(drift.factor(it, 0))
                      .flops(8.0 * static_cast<double>(n_rhs))
                      .seq(u, n_u)
                      .seq(forcing, n_forc)
                      .seq(us, n_aux)
                      .seq(vs, n_aux)
                      .seq(ws, n_aux)
                      .seq(qs, n_aux)
                      .seq(rho_i, n_aux)
                      .seq(square, n_aux)
                      .seq(rhs, 2 * n_rhs, 0.5)
                      .work());
      checksum += axpy_touch(rhs->as_span<double>(), u->as_span<double>(), 0.2);

      // Phase: x_solve — block solves on lhsa (+ jacobians), high traffic.
      ctx.compute(WorkBuilder(drift.factor(it, 1))
                      .flops(10.0 * static_cast<double>(n_lhs))
                      .seq(fjac, 2 * n_jac, 0.3)
                      .seq(njac, 2 * n_jac, 0.3)
                      .seq(lhsa, 6 * n_lhs, 0.4, /*mlp=*/12)
                      .seq(rhs, n_rhs, 0.5)
                      .work());
      checksum += stencil_touch(lhsa->as_span<double>(), 8);

      // Phase: face exchange.
      ctx.compute(WorkBuilder(drift.factor(it, 2))
                      .flops(static_cast<double>(n_buf))
                      .seq(out_buffer, 2 * n_buf, 1.0)
                      .work());
      ring_exchange(comm, *out_buffer, *in_buffer, n_buf * sizeof(double),
                    300 + it % 5);

      // Phase: y_solve — hot on lhsb.
      ctx.compute(WorkBuilder(drift.factor(it, 3))
                      .flops(10.0 * static_cast<double>(n_lhs))
                      .seq(in_buffer, n_buf)
                      .seq(fjac, n_jac, 0.3)
                      .seq(njac, n_jac, 0.3)
                      .seq(lhsb, 6 * n_lhs, 0.4, /*mlp=*/12)
                      .seq(rhs, n_rhs, 0.5)
                      .work());
      checksum += stencil_touch(lhsb->as_span<double>(), 8);

      // Phase: face exchange.
      ctx.compute(WorkBuilder(drift.factor(it, 4))
                      .flops(static_cast<double>(n_buf))
                      .seq(out_buffer, 2 * n_buf, 1.0)
                      .work());
      ring_exchange(comm, *out_buffer, *in_buffer, n_buf * sizeof(double),
                    400 + it % 5);

      // Phase: z_solve + add — hot on lhsc, final u update.
      ctx.compute(WorkBuilder(drift.factor(it, 5))
                      .flops(10.0 * static_cast<double>(n_lhs))
                      .seq(in_buffer, n_buf)
                      .seq(lhsc, 6 * n_lhs, 0.4, /*mlp=*/12)
                      .seq(rhs, n_rhs, 0.3)
                      .seq(u, n_u, 1.0)
                      .work());
      checksum += stencil_touch(lhsc->as_span<double>(), 8);
      checksum += axpy_touch(u->as_span<double>(), rhs->as_span<double>(), 0.1);

      double norm[1] = {checksum * 1e-9};
      comm.allreduce(norm, 1);
    }
    ctx.end();

    checksum += sum_object(*u) + sum_object(*rhs);
    for (rt::DataObject* o :
         {rhs, forcing, u, us, vs, ws, qs, rho_i, square, out_buffer,
          in_buffer, fjac, njac, lhsa, lhsb, lhsc})
      ctx.free_object(o);
    return checksum;
  }
};

}  // namespace

std::unique_ptr<Workload> make_bt() { return std::make_unique<BtWorkload>(); }

}  // namespace unimem::wl
