// SP — scalar pentadiagonal ADI solver (NPB).
//
// Target data objects (Table 3): u, us, vs, ws, qs, rho_i, square, rhs,
// forcing, out_buffer, in_buffer, lhs (98% of footprint).
//
// The paper's Fig. 4 establishes the per-object sensitivities this kernel
// must reproduce:
//   * lhs        — latency-sensitive (dependent line-solve recurrences),
//                  not bandwidth-sensitive;
//   * in/out_buffer — bandwidth-sensitive (bulk pack/unpack streams),
//                  not latency-sensitive;
//   * rhs        — sensitive to both.
// Initial data placement contributes 87% of Unimem's SP improvement
// (Fig. 11): rhs is hot in every phase and its reference count is known
// before the loop.
#include <cmath>

#include "workloads/kernels.h"
#include "workloads/workload.h"

namespace unimem::wl {

namespace {

class SpWorkload final : public Workload {
 public:
  double run_rank(rt::Context& ctx, const WorkloadConfig& cfg) override {
    const std::size_t B = cfg.rank_bytes();
    const double iters = cfg.iterations;
    auto elems = [](std::size_t bytes) { return bytes / sizeof(double); };

    // Size split (fractions of the rank footprint).
    const std::size_t n_lhs = elems(B / 4);          // 25%
    const std::size_t n_u = elems(B * 15 / 100);     // 15%
    const std::size_t n_rhs = elems(B * 15 / 100);   // 15%
    const std::size_t n_forc = elems(B / 10);        // 10%
    const std::size_t n_aux = elems(B * 4 / 100);    // 4% x 6
    const std::size_t n_buf = elems(B * 5 / 100);    // 5% x 2

    auto dobj = [&](const char* n, std::size_t e, double est) {
      rt::ObjectTraits t;
      t.estimated_references = est;
      return ctx.malloc_object(n, e * sizeof(double), t);
    };
    // rhs has by far the largest known reference count (hot in all phases).
    rt::DataObject* u = dobj("u", n_u, iters * 2.0 * n_u);
    rt::DataObject* us = dobj("us", n_aux, iters * n_aux);
    rt::DataObject* vs = dobj("vs", n_aux, iters * n_aux);
    rt::DataObject* ws = dobj("ws", n_aux, iters * n_aux);
    rt::DataObject* qs = dobj("qs", n_aux, iters * n_aux);
    rt::DataObject* rho_i = dobj("rho_i", n_aux, iters * n_aux);
    rt::DataObject* square = dobj("square", n_aux, iters * n_aux);
    rt::DataObject* rhs = dobj("rhs", n_rhs, iters * 6.0 * n_rhs);
    rt::DataObject* forcing = dobj("forcing", n_forc, iters * n_forc);
    rt::DataObject* out_buffer = dobj("out_buffer", n_buf, iters * 4.0 * n_buf);
    rt::DataObject* in_buffer = dobj("in_buffer", n_buf, iters * 4.0 * n_buf);
    rt::DataObject* lhs = dobj("lhs", n_lhs, iters * 3.0 * n_lhs);

    fill_object(*u, 21);
    fill_object(*forcing, 22);
    fill_object(*lhs, 23);
    fill_object(*out_buffer, 24);

    double checksum = 0;
    mpi::Comm& comm = *ctx.comm();
    DriftSchedule drift(cfg);
    ctx.start();
    for (int it = 0; it < cfg.iterations; ++it) {
      ctx.iteration_begin();

      // Phase: compute_rhs — bulk streams over u/forcing/aux into rhs.
      ctx.compute(WorkBuilder(drift.factor(it, 0))
                      .flops(6.0 * static_cast<double>(n_rhs))
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
      checksum += axpy_touch(rhs->as_span<double>(), u->as_span<double>(), 0.3);
      checksum += stencil_touch(u->as_span<double>(), 8);

      // Phase: x_solve — dependent recurrences along lines: lhs is swept
      // with serialized accesses (latency-sensitive), rhs updated.
      ctx.compute(WorkBuilder(drift.factor(it, 1))
                      .flops(4.0 * static_cast<double>(n_lhs))
                      .seq(lhs, n_lhs, 0.3, /*mlp=*/1)
                      .seq(rhs, n_rhs, 0.5, /*mlp=*/12)
                      .work());
      checksum += stencil_touch(lhs->as_span<double>(), 4);

      // Phase: pack + boundary exchange (bandwidth-heavy buffer streams).
      ctx.compute(WorkBuilder(drift.factor(it, 2))
                      .flops(static_cast<double>(n_buf))
                      .seq(rhs, n_buf)
                      .seq(out_buffer, 2 * n_buf, 1.0)
                      .work());
      ring_exchange(comm, *out_buffer, *in_buffer, n_buf * sizeof(double),
                    100 + it % 7);

      // Phase: unpack + y_solve.
      ctx.compute(WorkBuilder(drift.factor(it, 3))
                      .flops(4.0 * static_cast<double>(n_lhs))
                      .seq(in_buffer, 2 * n_buf)
                      .seq(lhs, n_lhs, 0.3, /*mlp=*/1)
                      .seq(rhs, n_rhs, 0.5, /*mlp=*/12)
                      .work());
      checksum += sum_touch(in_buffer->as_span<double>()) * 1e-6;
      checksum += stencil_touch(lhs->as_span<double>(), 16);

      // Phase: second exchange (z sweep boundary).
      ctx.compute(WorkBuilder(drift.factor(it, 4))
                      .flops(static_cast<double>(n_buf))
                      .seq(out_buffer, 2 * n_buf, 1.0)
                      .seq(rhs, n_buf)
                      .work());
      ring_exchange(comm, *out_buffer, *in_buffer, n_buf * sizeof(double),
                    200 + it % 7);

      // Phase: z_solve + add — lhs recurrence, final u update.
      ctx.compute(WorkBuilder(drift.factor(it, 5))
                      .flops(5.0 * static_cast<double>(n_lhs))
                      .seq(lhs, n_lhs, 0.3, /*mlp=*/1)
                      .seq(rhs, n_rhs, 0.3, /*mlp=*/12)
                      .seq(u, n_u, 1.0)
                      .work());
      checksum += axpy_touch(u->as_span<double>(), rhs->as_span<double>(), 0.1);

      double norm[1] = {checksum * 1e-9};
      comm.allreduce(norm, 1);
    }
    ctx.end();

    checksum += sum_object(*u) + sum_object(*rhs);
    for (rt::DataObject* o : {u, us, vs, ws, qs, rho_i, square, rhs, forcing,
                              out_buffer, in_buffer, lhs})
      ctx.free_object(o);
    return checksum;
  }
};

}  // namespace

std::unique_ptr<Workload> make_sp() { return std::make_unique<SpWorkload>(); }

}  // namespace unimem::wl
