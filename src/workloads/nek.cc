// Nek5000 "eddy" — spectral-element CFD production-code proxy.
//
// The paper uses the eddy test problem (256x256 mesh) with 48 target data
// objects: "main simulation variables and geometry arrays in Nek5000 core"
// (35% of the footprint).  Nek5000 is the one code in the evaluation where
// Unimem beats the statically-placed X-Men (~10%): "Nek5000 is a
// production code with various memory access patterns across phases.
// Unimem adapts to those variations."  X-Men installs ONE placement from
// whole-run aggregates; Unimem's phase-local search follows the per-phase
// hot-set rotation, and its variation monitor additionally re-profiles
// when the simulation drifts mid-run (§3.2 workload variation).
//
// The proxy therefore rotates the hot set across the phases of every
// iteration (momentum solve -> pressure solve -> geometry/dealiasing ->
// scalar transport), with each phase's working set comparable to the DRAM
// budget, and applies one mild intensity drift halfway through the run to
// exercise the re-profiling path.
#include <cmath>
#include <cstdio>
#include <vector>

#include "workloads/kernels.h"
#include "workloads/workload.h"

namespace unimem::wl {

namespace {

constexpr int kNumVars = 24;  ///< simulation variables vx,vy,pr,t,...
constexpr int kNumGeom = 24;  ///< geometry arrays g01..g24

class NekWorkload final : public Workload {
 public:
  double run_rank(rt::Context& ctx, const WorkloadConfig& cfg) override {
    // Nek5000's working set is large relative to the DRAM allowance: each
    // solver stage's hot set alone rivals the budget, so a single static
    // placement can cover only a fraction of any stage — the regime where
    // phase-adaptive placement pays.
    const std::size_t B = cfg.rank_bytes() * 8 / 3;
    const double iters = cfg.iterations;
    auto elems = [](std::size_t bytes) { return bytes / sizeof(double); };

    // 48 objects: variables carry 70% of the footprint, geometry 30%.
    const std::size_t n_var = elems(B * 75 / 100 / kNumVars);
    const std::size_t n_geom = elems(B * 25 / 100 / kNumGeom);

    std::vector<rt::DataObject*> vars, geom;
    char nm[32];
    for (int i = 0; i < kNumVars; ++i) {
      std::snprintf(nm, sizeof nm, "v%02d", i);
      rt::ObjectTraits t;
      t.estimated_references = iters * static_cast<double>(n_var) *
                               (i < 8 ? 3.0 : 1.5);
      vars.push_back(ctx.malloc_object(nm, n_var * sizeof(double), t));
    }
    for (int i = 0; i < kNumGeom; ++i) {
      std::snprintf(nm, sizeof nm, "g%02d", i);
      rt::ObjectTraits t;
      t.estimated_references = -1.0;  // geometry use depends on runtime flags
      geom.push_back(ctx.malloc_object(nm, n_geom * sizeof(double), t));
    }
    for (int i = 0; i < 8; ++i) fill_object(*vars[i], 70 + i);
    for (int i = 0; i < 4; ++i) fill_object(*geom[i], 80 + i);

    double checksum = 0;
    mpi::Comm& comm = *ctx.comm();
    DriftSchedule drift(cfg);
    ctx.start();
    for (int it = 0; it < cfg.iterations; ++it) {
      ctx.iteration_begin();
      // Mid-run drift (§3.2 workload variation): halfway through the
      // simulation the pressure preconditioner changes, shifting the hot
      // variable group of the pressure phase — a > 10% phase-time change
      // that the variation monitor must catch and re-plan for.
      const bool late = it * 2 >= cfg.iterations;
      const int p_lo = late ? 12 : 8;
      const int geom_passes = 2;

      // Phase 1: momentum solve — hot on vars[0..7].
      {
        WorkBuilder w(drift.factor(it, 0));
        w.flops(6.0 * static_cast<double>(n_var));
        for (int i = 0; i < 4; ++i) w.seq(vars[i], 6 * n_var, 0.4);
        ctx.compute(w.work());
      }
      checksum += axpy_touch(vars[0]->as_span<double>(),
                             vars[1]->as_span<double>(), 0.01);
      double dot[1] = {checksum * 1e-9};
      comm.allreduce(dot, 1);

      // Phase 2: pressure solve — hot on an 8-variable window that shifts
      // when the preconditioner drifts.
      {
        WorkBuilder w(drift.factor(it, 1));
        w.flops(8.0 * static_cast<double>(n_var));
        for (int i = p_lo; i < p_lo + 4; ++i)
          w.seq(vars[i], 6 * n_var, 0.4);
        w.gather(vars[p_lo], n_var / 2);
        ctx.compute(w.work());
      }
      checksum += stencil_touch(vars[8]->as_span<double>(), 8);
      double dot2[1] = {checksum * 1e-9};
      comm.allreduce(dot2, 1);

      // Phase 3: geometry / dealiasing — hot on the geometry arrays.
      {
        WorkBuilder w(drift.factor(it, 2));
        w.flops(6.0 * static_cast<double>(n_geom) * geom_passes);
        for (int i = 0; i < kNumGeom; ++i)
          w.seq(geom[i], static_cast<std::uint64_t>(geom_passes) * n_geom,
                0.3);
        // Lagged fields touched lightly while geometry dominates.
        for (int i = 20; i < kNumVars; ++i) w.seq(vars[i], n_var / 4, 0.2);
        w.chase(geom[1], n_geom / 8);
        ctx.compute(w.work());
      }
      checksum += stencil_touch(geom[0]->as_span<double>(), 4);
      double dot3[1] = {checksum * 1e-9};
      comm.allreduce(dot3, 1);

      // Phase 4: scalar transport + gs_op — hot on vars[16..23].
      {
        WorkBuilder w(drift.factor(it, 3));
        w.flops(4.0 * static_cast<double>(n_var));
        for (int i = 16; i < 20; ++i) w.seq(vars[i], 6 * n_var, 0.4);
        w.gather(vars[16], n_var / 2);
        ctx.compute(w.work());
      }
      checksum += sum_touch(vars[16]->as_span<double>()) * 1e-6;
      double norm[1] = {checksum * 1e-9};
      comm.allreduce(norm, 1);
    }
    ctx.end();

    checksum += sum_object(*vars[0]) + sum_object(*geom[0]);
    for (auto* o : vars) ctx.free_object(o);
    for (auto* o : geom) ctx.free_object(o);
    return checksum;
  }
};

}  // namespace

std::unique_ptr<Workload> make_nek() { return std::make_unique<NekWorkload>(); }

}  // namespace unimem::wl
