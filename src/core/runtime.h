// The Unimem runtime (paper §3): online profiling -> performance modeling
// -> placement decision -> proactive enforcement, phase by phase.
//
// Workflow (paper Fig. 8):
//   iteration 1             : phase profiling via sampled counters
//   end of iteration 1      : model + knapsack -> local & global plans,
//                             pick the predicted-better one
//   iterations 2..N         : enforce; the modeled helper thread migrates
//                             proactively at trigger phases; phases wait
//                             only for not-yet-finished moves (exposed
//                             cost)
//   any phase drifts > 10%  : re-profile next iteration and re-plan
//
// A Runtime runs only on its rank's thread: migrations copy at commit
// (core/migration.h) and sampled profiles attribute when their phase
// closes.
//
// Phase boundaries are discovered transparently through minimpi's PMPI
// hooks: every MPI call ends the current computation phase and is itself a
// communication phase (paper §2.1).  minimpi offers only blocking calls, so
// the paper's rule that non-blocking calls merge into the following phase
// has nothing to apply to.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/calibration.h"
#include "core/context.h"
#include "core/exec_engine.h"
#include "core/migration.h"
#include "core/models.h"
#include "core/planner.h"
#include "core/profiler.h"
#include "core/registry.h"
#include "core/replan.h"
#include "minimpi/comm.h"
#include "minimpi/pmpi.h"
#include "perfmon/sample_gate.h"
#include "perfmon/sampler.h"
#include "simcache/analytic_cache.h"
#include "simcache/exact_cache.h"
#include "simclock/virtual_clock.h"

namespace unimem::rt {

struct RuntimeOptions {
  // ---- technique switches (Fig. 11 ablation) --------------------------
  bool enable_global_search = true;   ///< technique (1)
  bool enable_local_search = true;    ///< technique (2)
  bool enable_chunking = true;        ///< technique (3)
  bool enable_initial_placement = true;  ///< technique (4)

  // ---- model / substrate ----------------------------------------------
  bool use_exact_cache = false;  ///< exact LLC sim instead of analytic
  cache::CacheConfig cache{};
  clk::TimingParams timing{};

  // ---- adaptive re-planning (drift-aware incremental DP) ----------------
  /// Re-profile every `replan_epoch` enforcing iterations (while still
  /// enforcing the current plan) and let the ReplanController keep,
  /// repair, or fully re-solve the plan from the per-unit weight drift.
  /// 0 = off: one-shot planning plus the paper's 10% variation monitor.
  /// When on, the epoch cadence supersedes the variation monitor (the
  /// controller owns the drift response).
  int replan_epoch = 0;
  /// Per-unit relative weight change that counts as drift.
  double drift_threshold = 0.25;
  /// Max fraction of drifted units repaired incrementally; past this the
  /// full knapsack DP re-runs.
  double drift_budget = 0.25;

  // ---- profiling tier ----------------------------------------------------
  /// 0 = exact profiler: every PMU sample is consumed inline on the rank
  /// thread.  N >= 1 = sampled profiler with base period N (PMU events
  /// per captured sample; 1 captures all): capture is gated on a seeded
  /// schedule, only captured samples are attributed, and the period adapts
  /// at iteration boundaries (perf::AdaptiveRate) — the production-overhead
  /// tier (paper §3.1.1's PEBS framing).
  std::uint64_t sample_period = 0;

  /// Ranks sharing one node's allowances; each plans with its 1/n share.
  int ranks_per_node = 1;
};

struct RuntimeStats {
  MigrationStats migration;
  double overhead_s = 0;        ///< Table 4 "pure runtime cost" (seconds)
  double total_time_s = 0;      ///< virtual time at unimem_end
  std::uint64_t phases_executed = 0;
  std::uint64_t iterations = 0;
  std::uint64_t reprofiles = 0;
  Plan::Kind plan_kind = Plan::Kind::kNone;
  std::size_t planned_migrations_per_iteration = 0;

  // Adaptive re-planning (replan_epoch > 0).
  std::uint64_t replan_checks = 0;        ///< epoch drift evaluations
  std::uint64_t incremental_repairs = 0;  ///< plans repaired in place
  std::uint64_t full_replans = 0;         ///< epoch checks that re-ran the DP
  double last_drift_fraction = 0;         ///< of the most recent check

  // Sampled profiling tier (sample_period > 0; zero in exact mode).
  std::uint64_t profile_samples = 0;      ///< captured (gated) samples
  std::uint64_t profile_attributed = 0;   ///< samples attributed to units
  std::uint64_t sample_period = 0;        ///< current adaptive period

  double overhead_percent() const {
    return total_time_s > 0 ? 100.0 * overhead_s / total_time_s : 0.0;
  }
};

class Runtime final : public Context, public mpi::PmpiHooks {
 public:
  /// `comm` is the rank's communicator and must not be nullptr
  /// (std::invalid_argument): its clock is the Runtime's clock and its
  /// PMPI hooks find the phases.  `arbiter` may be nullptr (then each
  /// tier's capacity bounds placement).  unimem_init: calibrates the
  /// model through rt::calibrate, which measures once per machine (fastest
  /// tier, backstop, cache and timing) in the process and hands later
  /// Runtimes the same bits.
  Runtime(RuntimeOptions opts, mem::HeteroMemory* hms,
          mem::DramArbiter* arbiter, mpi::Comm* comm);
  ~Runtime() override;

  // ---- Context (paper Table 2 API) -------------------------------------
  DataObject* malloc_object(const std::string& name, std::size_t bytes,
                            ObjectTraits traits = ObjectTraits{}) override;
  void free_object(DataObject* obj) override;
  void start() override;
  void iteration_begin() override;
  void end() override;
  void compute(const PhaseWork& work) override;
  mpi::Comm* comm() override { return comm_; }
  double now() const override { return clock().now(); }

  /// Register a programmer alias created before the main loop (§3.3).
  void add_alias(DataObject* obj, void** alias);

  // ---- PmpiHooks --------------------------------------------------------
  void on_pre_op(const mpi::OpInfo& info) override;
  void on_post_op(const mpi::OpInfo& info) override;

  // ---- introspection ----------------------------------------------------
  RuntimeStats stats() const;
  Registry& registry() { return *registry_; }
  const Plan& current_plan() const { return plan_; }
  const Profiler& profiler() const { return profiler_; }

 private:
  enum class Mode { kIdle, kProfiling, kEnforcing };

  clk::VirtualClock& clock() { return comm_->clock(); }
  const clk::VirtualClock& clock() const { return comm_->clock(); }
  void close_phase(bool is_comm);
  void open_phase();
  /// Charge the exposed wait for outstanding migrations of every unit
  /// overlapping [buf, buf+bytes) (the MPI-path twin of compute()'s wait —
  /// see on_pre_op).
  void wait_for_buffer(const void* buf, std::size_t bytes);
  void enqueue_phase_migrations(std::size_t phase_idx);
  /// Sampled tier: feed the phases sampled since the last call to the
  /// adaptive rate.  No-op in exact mode or when none were sampled.
  void step_sample_rate();
  void make_plan();
  /// Consume the just-finished epoch profile: classify drift, then keep
  /// the plan, adopt the controller's incremental repair, or re-run the
  /// full planner.
  void finish_epoch_check();
  void apply_initial_placement();
  void charge_overhead(double seconds);

  RuntimeOptions opts_;
  mem::HeteroMemory* hms_;
  mpi::Comm* comm_;

  std::unique_ptr<cache::CacheModel> cache_;
  std::unique_ptr<Registry> registry_;
  std::unique_ptr<ExecEngine> engine_;
  std::unique_ptr<MigrationEngine> migrator_;
  std::unique_ptr<perf::Sampler> sampler_;
  Profiler profiler_;
  /// Sampled tier only (nullptr in exact mode).
  std::unique_ptr<perf::AdaptiveRate> adaptive_rate_;
  /// Sampled phases, and their attributed samples, since step_sample_rate.
  std::uint64_t rate_phases_ = 0;
  std::uint64_t rate_attributed_ = 0;
  std::uint64_t profile_samples_ = 0;
  std::uint64_t profile_attributed_ = 0;
  std::unique_ptr<PerformanceModel> model_;
  std::unique_ptr<ReplanController> replanner_;
  Plan plan_;

  Mode mode_ = Mode::kIdle;
  bool started_ = false;
  /// Per-rank byte budget of every tier (PlannerOptions::tier_budgets);
  /// [0] is the DRAM budget of initial placement and incremental repair.
  std::vector<std::size_t> tier_budgets_;
  std::size_t phase_idx_ = 0;       ///< within the current iteration
  std::uint64_t iteration_ = 0;
  bool reprofile_requested_ = false;
  int profile_iters_in_row_ = 0;    ///< iterations profiled so far
  /// Enforcing iterations completed under the current plan.  The variation
  /// monitor arms only at >= 3: the first enforcing iteration differs from
  /// the profiled one by design (placement improved), the second can still
  /// absorb the exposed tail of first-time migrations (a fill triggered
  /// late in iteration N completes at the top of N+1), so the first pair
  /// of comparable steady iterations is (3, 4).
  int enforce_iters_since_plan_ = 0;

  // Current-phase accumulation.
  double phase_open_vt_ = 0;
  double phase_compute_s_ = 0;
  std::vector<perf::MemWindow> phase_windows_;

  // Previous-iteration phase times for the variation monitor.
  std::vector<double> prev_phase_times_;
  std::vector<double> cur_phase_times_;

  /// True while the one epoch-cadence re-profiling iteration runs: the
  /// plan keeps being enforced, but phases are sampled again so the
  /// ReplanController can compare weights at iteration end.
  bool epoch_profiling_ = false;

  double overhead_s_ = 0;
  std::uint64_t phases_executed_ = 0;
  std::uint64_t reprofiles_ = 0;
  std::uint64_t replan_checks_ = 0;
  std::uint64_t incremental_repairs_ = 0;
  std::uint64_t full_replans_ = 0;
  double last_drift_fraction_ = 0;
  double end_vt_ = 0;
};

}  // namespace unimem::rt
