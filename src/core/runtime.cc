#include "core/runtime.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/log.h"
#include "trace/trace.h"

namespace unimem::rt {

namespace {

/// "Obvious variation" (§3.2): an enforced phase whose time moved by more
/// than this fraction against the same phase last iteration re-profiles.
constexpr double kReprofileThreshold = 0.10;
/// Iterations profiled before planning ("a few invocations of each
/// phase"); more than one averages out sampling noise.
constexpr int kProfileIterations = 2;
/// Base seed of the PMU sampler and of every sampled-tier schedule.
constexpr std::uint64_t kSamplerSeed = 42;

// Modeled runtime-overhead charges (virtual seconds).
constexpr double kOverheadPerSampleS = 25e-9;  ///< exact: inline handling
/// Sampled: the production tier's gate + buffer cost.  Its attribution is
/// modeled as out of band, so it is not charged, although the simulator
/// runs it inline when the phase closes.
constexpr double kOverheadPerSampleSampledS = 2e-9;
constexpr double kOverheadPerPhaseS = 0.5e-6;  ///< queue status check / sync
constexpr double kOverheadPerPlanItemS = 1e-6;  ///< modeling + knapsack
constexpr double kOverheadPlanFixedS = 20e-6;

}  // namespace

Runtime::Runtime(RuntimeOptions opts, mem::HeteroMemory* hms,
                 mem::DramArbiter* arbiter, mpi::Comm* comm)
    : opts_(opts), hms_(hms), comm_(comm), profiler_(nullptr) {
  if (opts_.use_exact_cache)
    cache_ = std::make_unique<cache::ExactCache>(opts_.cache);
  else
    cache_ = std::make_unique<cache::AnalyticCache>(opts_.cache);

  registry_ = std::make_unique<Registry>(hms_, arbiter);
  profiler_ = Profiler(registry_.get());
  engine_ = std::make_unique<ExecEngine>(hms_, cache_.get(), opts_.timing);
  migrator_ = std::make_unique<MigrationEngine>(registry_.get());
  sampler_ = std::make_unique<perf::Sampler>(opts_.timing, kSamplerSeed);

  // This rank's share of every constrained tier: the node's arbiter
  // allowance, or the tier's capacity where the arbiter does not meter it,
  // split across the node's ranks.  The backstop is unmetered.
  tier_budgets_.assign(hms_->num_tiers(), KnapsackSolver::kUnbounded);
  for (std::size_t k = 0; k + 1 < tier_budgets_.size(); ++k) {
    const int ki = static_cast<int>(k);
    const std::size_t node_cap =
        arbiter != nullptr && arbiter->constrains(ki)
            ? arbiter->allowance_tier(ki)
            : hms_->tier_config(mem::tier(ki)).capacity_bytes;
    tier_budgets_[k] = node_cap / std::max(1, opts_.ranks_per_node);
  }

  // unimem_init: one-time calibration (STREAM + pointer chase, §3.1.2).
  const mem::TierConfig& fast = hms_->tier_config(mem::Tier::kDram);
  const mem::TierConfig& backstop = hms_->tier_config(hms_->backstop_tier());
  model_ = std::make_unique<PerformanceModel>(
      calibrate(fast, backstop, *cache_, opts_.timing), fast, backstop);
  if (opts_.replan_epoch > 0 && opts_.enable_chunking) {
    // The controller re-scores at unit granularity, which equals the
    // planner's group granularity exactly when chunking is on; under the
    // chunking ablation a unit-level repair could split an all-or-nothing
    // object group, so the adaptive path stays off there.
    ReplanOptions ropts;
    ropts.drift_threshold = opts_.drift_threshold;
    ropts.drift_budget = opts_.drift_budget;
    ropts.dram_budget = tier_budgets_[0];
    replanner_ = std::make_unique<ReplanController>(registry_.get(),
                                                    model_.get(), ropts);
  }
  if (opts_.sample_period > 0)
    adaptive_rate_ = std::make_unique<perf::AdaptiveRate>(opts_.sample_period);
  if (comm_ != nullptr) comm_->set_hooks(this);

  // The Runtime is constructed on its rank's thread (see run_once): name
  // that thread's trace track after the rank so the exported timeline
  // reads "rank 0", "rank 1", ... top to bottom.
  if (trace::on()) {
    const int rank = comm_ != nullptr ? comm_->rank() : 0;
    trace::set_thread_track("rank " + std::to_string(rank), rank);
  }
}

Runtime::~Runtime() {
  if (comm_ != nullptr) comm_->set_hooks(nullptr);
}

clk::VirtualClock& Runtime::clock() {
  return comm_ != nullptr ? comm_->clock() : own_clock_;
}
const clk::VirtualClock& Runtime::clock() const {
  return comm_ != nullptr ? comm_->clock() : own_clock_;
}

void Runtime::charge_overhead(double seconds) {
  overhead_s_ += seconds;
  clock().advance(seconds);
}

// ---------------------------------------------------------------------------
// Allocation API

DataObject* Runtime::malloc_object(const std::string& name, std::size_t bytes,
                                   ObjectTraits traits) {
  // All data objects start in NVM by default (§3.2); initial placement
  // promotes the hottest ones at unimem_start.  Chunk layout is policy-
  // invariant (see chunk_bytes_for); enable_chunking only controls whether
  // the planner may place chunks independently.
  const std::size_t cb = chunk_bytes_for(traits.chunkable, bytes);
  return registry_->create(name, bytes, traits, hms_->backstop_tier(), cb);
}

void Runtime::free_object(DataObject* obj) {
  if (obj == nullptr) return;
  registry_->destroy(obj->id());
}

void Runtime::add_alias(DataObject* obj, void** alias) {
  registry_->add_alias(obj->id(), alias);
}

// ---------------------------------------------------------------------------
// Initial data placement (§3.2)

void Runtime::apply_initial_placement() {
  // Rank objects by the compiler-style symbolic reference estimate and
  // greedily promote the most-referenced ones, subject to the DRAM budget.
  struct Cand {
    UnitRef unit;
    double refs;
    std::size_t bytes;
  };
  std::vector<Cand> cands;
  for (const UnitRef& u : registry_->all_units()) {
    const DataObject* obj = registry_->get(u.object);
    if (obj == nullptr) continue;
    double est = obj->traits().estimated_references;
    if (est < 0) continue;  // unknown before the main loop: stays in NVM
    // Spread the estimate across chunks.
    cands.push_back(Cand{u, est / static_cast<double>(obj->chunk_count()),
                         registry_->unit_bytes(u)});
  }
  std::stable_sort(cands.begin(), cands.end(),
                   [](const Cand& a, const Cand& b) { return a.refs > b.refs; });
  std::size_t used = registry_->resident_bytes(mem::Tier::kDram);
  for (const Cand& c : cands) {
    if (c.refs <= 0) break;
    if (used + c.bytes > tier_budgets_[0]) continue;
    if (registry_->migrate(c.unit, mem::Tier::kDram)) used += c.bytes;
  }
}

// ---------------------------------------------------------------------------
// Loop lifecycle

void Runtime::start() {
  started_ = true;
  if (opts_.enable_initial_placement) apply_initial_placement();
  mode_ = Mode::kProfiling;
  profiler_.begin_iteration();
  profile_iters_in_row_ = 0;
  iteration_ = 0;
  phase_idx_ = 0;
  open_phase();
}

void Runtime::iteration_begin() {
  if (!started_) {
    start();
    return;
  }
  if (iteration_ == 0 && phases_executed_ == 0) {
    // First call right after start(): nothing to close yet.
    return;
  }
  // Close the tail phase of the previous iteration.
  close_phase(false);
  // Sampled tier: the adaptive rate steps once per iteration boundary.
  step_sample_rate();
  // Slack mode: refresh the phase DAG from the iteration just closed.
  // Must run at this unconditional point — it contains collectives, and
  // ranks' mode/drift decisions below may diverge.
  update_phase_dag();

  if (mode_ == Mode::kProfiling &&
      ++profile_iters_in_row_ < kProfileIterations) {
    // Keep profiling: "a few invocations of each phase" average out the
    // sampling noise of any single iteration.
  } else if (mode_ == Mode::kProfiling) {
    make_plan();
    mode_ = Mode::kEnforcing;
    enforce_iters_since_plan_ = 0;
  } else if (epoch_profiling_) {
    // The epoch re-profiling iteration just ended (the plan was enforced
    // throughout): let the controller keep/repair/re-solve from the drift.
    epoch_profiling_ = false;
    ++enforce_iters_since_plan_;
    finish_epoch_check();
  } else if (reprofile_requested_) {
    // Variation detected (>10%): re-profile this iteration, re-plan after.
    profiler_.begin_iteration();
    mode_ = Mode::kProfiling;
    reprofile_requested_ = false;
    profile_iters_in_row_ = 0;
    ++reprofiles_;
  } else {
    ++enforce_iters_since_plan_;
    if (replanner_ != nullptr &&
        enforce_iters_since_plan_ % opts_.replan_epoch == 0) {
      // Epoch due: sample the coming iteration without dropping the plan.
      profiler_.begin_iteration();
      epoch_profiling_ = true;
    }
  }

  prev_phase_times_ = std::move(cur_phase_times_);
  cur_phase_times_.clear();
  cur_phase_kinds_.clear();
  ++iteration_;
  phase_idx_ = 0;
  if (mode_ == Mode::kEnforcing) enqueue_phase_migrations(0);
  open_phase();
}

void Runtime::end() {
  close_phase(false);
  step_sample_rate();
  double done_vt = migrator_->drain();
  double waited = clock().wait_until(done_vt);
  migrator_->add_exposed_wait(waited);
  end_vt_ = clock().now();
  mode_ = Mode::kIdle;
  started_ = false;
}

// ---------------------------------------------------------------------------
// Phase machinery

void Runtime::open_phase() {
  phase_open_vt_ = clock().now();
  phase_compute_s_ = 0;
  phase_windows_.clear();
  UNIMEM_TRACE_BEGIN2("runtime", "phase", phase_open_vt_, "iter", iteration_,
                      "phase", phase_idx_);
}

void Runtime::close_phase(bool is_comm) {
  const double phase_time = clock().now() - phase_open_vt_;
  UNIMEM_TRACE_END2("runtime", "phase", clock().now(), "is_comm",
                    is_comm ? 1 : 0, "phase", phase_idx_);
  ++phases_executed_;
  cur_phase_times_.push_back(phase_time);
  cur_phase_kinds_.push_back(is_comm ? 1 : 0);

  if (mode_ == Mode::kProfiling || epoch_profiling_) {
    if (is_comm) {
      profiler_.record_comm_phase(phase_time);
    } else {
      // The exact tier captures every base tick; the sampled tier gates
      // the capture on a per-(rank, phase, epoch) seeded schedule and is
      // charged only the cheap per-sample cost.
      std::optional<perf::SampledConfig> scfg;
      if (adaptive_rate_ != nullptr)
        scfg = perf::SampledConfig{
            adaptive_rate_->period(),
            perf::schedule_seed(kSamplerSeed,
                                comm_ != nullptr ? comm_->rank() : 0,
                                phase_idx_, iteration_)};
      const perf::PhaseSamples samples = sampler_->sample_phase(
          phase_windows_, phase_compute_s_, phase_time, scfg);
      const double per_sample_s =
          scfg ? kOverheadPerSampleSampledS : kOverheadPerSampleS;
      charge_overhead(static_cast<double>(samples.miss_addresses.size()) *
                      per_sample_s);
      const std::uint64_t attributed =
          profiler_.record_phase(samples, phase_time);
      if (scfg) {
        profile_samples_ += samples.total_samples;
        profile_attributed_ += attributed;
        rate_attributed_ += attributed;
        ++rate_phases_;
      }
    }
  }
  if (mode_ == Mode::kEnforcing) {
    charge_overhead(kOverheadPerPhaseS);
    // Variation monitor (§3.2): compare with the same phase last iteration.
    // With the adaptive controller armed, the epoch cadence owns the drift
    // response (a monitor-triggered full re-profile would fight it).
    std::size_t idx = cur_phase_times_.size() - 1;
    if (replanner_ == nullptr && enforce_iters_since_plan_ >= 3 &&
        idx < prev_phase_times_.size()) {
      double prev = prev_phase_times_[idx];
      if (prev > 0 &&
          std::abs(phase_time - prev) > kReprofileThreshold * prev)
        reprofile_requested_ = true;
    }
  }
}

void Runtime::enqueue_phase_migrations(std::size_t phase_idx) {
  if (plan_.kind == Plan::Kind::kNone) return;
  if (phase_idx >= plan_.at_phase.size()) return;
  // One FIFO batch per trigger phase: a fill whose space is freed by a
  // later eviction of the same batch self-corrects inside the batch.
  std::vector<MigrationEngine::Item> batch;
  batch.reserve(plan_.at_phase[phase_idx].size());
  for (const PlannedMigration& m : plan_.at_phase[phase_idx]) {
    charge_overhead(kOverheadPerPhaseS);
    batch.push_back(MigrationEngine::Item{m.unit, m.to, clock().now()});
  }
  if (!batch.empty()) migrator_->enqueue_batch(batch);
}

void Runtime::phase_boundary() {
  close_phase(false);
  ++phase_idx_;
  if (mode_ == Mode::kEnforcing) enqueue_phase_migrations(phase_idx_);
  open_phase();
}

void Runtime::wait_for_buffer(const void* buf, std::size_t bytes) {
  if (buf == nullptr || bytes == 0) return;
  const auto lo = reinterpret_cast<std::uint64_t>(buf);
  for (const UnitRef& u : registry_->units_overlapping(lo, lo + bytes)) {
    double done_vt = migrator_->wait_for(u);
    double waited = clock().wait_until(done_vt);
    if (waited > 0) migrator_->add_exposed_wait(waited);
  }
}

void Runtime::on_pre_op(const mpi::OpInfo& info) {
  if (!started_) return;
  // Mirror of compute(): minimpi is about to memcpy the op's buffers, so
  // the op waits (in virtual time) for outstanding migrations of their
  // owning units.  Applies to non-blocking calls too — an eager isend
  // reads its payload right away.
  wait_for_buffer(info.read_buf, info.read_bytes);
  wait_for_buffer(info.write_buf, info.write_bytes);
  if (!info.blocking) return;
  // The blocking MPI call ends the computation phase and is itself a
  // communication phase.  The comm phase's own planned migrations are NOT
  // enqueued here: a unit the op reads or writes must not start moving
  // before the op is done.  They are issued in on_post_op.
  close_phase(false);
  ++phase_idx_;
  open_phase();
}

void Runtime::on_post_op(const mpi::OpInfo& info) {
  if (!started_ || !info.blocking) return;
  close_phase(true);
  ++phase_idx_;
  if (mode_ == Mode::kEnforcing) {
    enqueue_phase_migrations(phase_idx_ - 1);  // deferred from on_pre_op
    enqueue_phase_migrations(phase_idx_);
  }
  open_phase();
}

// ---------------------------------------------------------------------------
// Compute

void Runtime::compute(const PhaseWork& work) {
  // A phase must not run while its objects are in flight: wait (in
  // virtual time) for any outstanding migration of units this work
  // touches; the remainder of the copy is the exposed (non-overlapped)
  // cost.
  for (const ObjectAccess& a : work.accesses) {
    if (a.object == nullptr) continue;
    for (std::uint32_t c = 0; c < a.object->chunk_count(); ++c) {
      double done_vt = migrator_->wait_for(UnitRef{a.object->id(), c});
      double waited = clock().wait_until(done_vt);
      if (waited > 0) migrator_->add_exposed_wait(waited);
    }
  }

  PhaseExec exec = engine_->run(work);
  clock().advance(exec.total_s());
  phase_compute_s_ += exec.compute_s;
  if (mode_ == Mode::kProfiling || epoch_profiling_)
    phase_windows_.insert(phase_windows_.end(), exec.windows.begin(),
                          exec.windows.end());
}

// ---------------------------------------------------------------------------
// Planning

void Runtime::step_sample_rate() {
  if (adaptive_rate_ == nullptr || rate_phases_ == 0) return;
  adaptive_rate_->observe_iteration(rate_attributed_, rate_phases_);
  rate_attributed_ = 0;
  rate_phases_ = 0;
}

void Runtime::update_phase_dag() {
  if (opts_.dag_schedule != DagSchedule::kSlack) return;
  if (cur_phase_times_.empty()) return;
  std::vector<std::vector<double>> durations;
  std::vector<std::vector<char>> kinds;
  if (comm_ == nullptr || comm_->size() == 1) {
    durations.push_back(cur_phase_times_);
    kinds.push_back(cur_phase_kinds_);
  } else {
    // Symmetric exchange: every rank contributes its per-phase durations
    // and kinds.  The internal collectives must not read as application
    // phases, so the PMPI hooks are suppressed for their duration.
    const int R = comm_->size();
    const int rank = comm_->rank();
    comm_->set_hooks(nullptr);
    std::uint64_t pmax = cur_phase_times_.size();
    comm_->allreduce(&pmax, 1, mpi::ReduceOp::kMax);
    const std::size_t P = static_cast<std::size_t>(pmax);
    std::vector<double> flat(static_cast<std::size_t>(R) * P, 0.0);
    std::vector<std::uint64_t> kflat(static_cast<std::size_t>(R) * P, 0);
    for (std::size_t p = 0; p < cur_phase_times_.size() && p < P; ++p) {
      flat[static_cast<std::size_t>(rank) * P + p] = cur_phase_times_[p];
      kflat[static_cast<std::size_t>(rank) * P + p] =
          p < cur_phase_kinds_.size() && cur_phase_kinds_[p] != 0 ? 1 : 0;
    }
    comm_->allreduce(flat.data(), flat.size(), mpi::ReduceOp::kSum);
    comm_->allreduce(kflat.data(), kflat.size(), mpi::ReduceOp::kMax);
    comm_->set_hooks(this);
    durations.assign(static_cast<std::size_t>(R), {});
    kinds.assign(static_cast<std::size_t>(R), {});
    for (std::size_t r = 0; r < static_cast<std::size_t>(R); ++r)
      for (std::size_t p = 0; p < P; ++p) {
        durations[r].push_back(flat[r * P + p]);
        kinds[r].push_back(kflat[r * P + p] != 0 ? 1 : 0);
      }
  }
  dag_ = PhaseDag::from_profile(durations, kinds);
  if (dag_.compute()) {
    dag_ready_ = true;
    ++dag_builds_;
    UNIMEM_TRACE_INSTANT1("runtime", "dag.build", clock().now(), "nodes",
                          dag_.nodes().size());
  }
}

void Runtime::make_plan() {
  UNIMEM_TRACE_BEGIN1("runtime", "plan.solve", clock().now(), "iter",
                      iteration_);
  profiler_.fold(static_cast<std::size_t>(std::max(1, profile_iters_in_row_)));
  PlannerOptions popts;
  popts.local_search = opts_.enable_local_search;
  popts.global_search = opts_.enable_global_search;
  popts.chunking = opts_.enable_chunking;
  popts.tier_budgets = tier_budgets_;
  if (opts_.dag_schedule == DagSchedule::kSlack && dag_ready_) {
    popts.dag = &dag_;
    popts.rank = comm_ != nullptr ? comm_->rank() : 0;
  }
  Planner planner(registry_.get(), model_.get(), popts);
  plan_ = planner.plan(profiler_);
  std::size_t items = 0;
  for (const auto& ph : profiler_.phases()) items += ph.units.size();
  charge_overhead(kOverheadPlanFixedS +
                  static_cast<double>(items) * kOverheadPerPlanItemS);
  if (replanner_ != nullptr) replanner_->observe(profiler_);
  UNIMEM_TRACE_END2("runtime", "plan.solve", clock().now(), "migrations",
                    plan_.migration_count(), "kind",
                    static_cast<int>(plan_.kind));
  Log::info("rank plan: kind=%d migrations/iter=%zu predicted=%.3fms",
            static_cast<int>(plan_.kind), plan_.migration_count(),
            plan_.predicted_iteration_s * 1e3);
}

void Runtime::finish_epoch_check() {
  ++replan_checks_;
  // Slack mode: only drift referenced in a critical-path phase justifies a
  // repair; off-path drift stays on the cheap keep-stale path.
  std::set<std::size_t> critical;
  const std::set<std::size_t>* critical_ptr = nullptr;
  if (opts_.dag_schedule == DagSchedule::kSlack && dag_ready_) {
    critical = dag_.critical_phases(comm_ != nullptr ? comm_->rank() : 0);
    critical_ptr = &critical;
  }
  ReplanDecision d = replanner_->decide(profiler_, critical_ptr);
  dag_offpath_drift_ += d.drift.off_path;
  last_drift_fraction_ = d.drift.drift_fraction();
  UNIMEM_TRACE_INSTANT2("replan", "decision", clock().now(), "path",
                        static_cast<int>(d.path), "drifted", d.drift.drifted);
  switch (d.path) {
    case ReplanDecision::Path::kFullSolve:
      ++full_replans_;
      // The epoch profile is a single iteration; make_plan folds by the
      // recorded row count.
      profile_iters_in_row_ = 1;
      make_plan();
      enforce_iters_since_plan_ = 0;
      break;
    case ReplanDecision::Path::kIncremental:
      ++incremental_repairs_;
      plan_ = std::move(d.plan);
      // Only the drifted items were re-scored: charge the bounded repair,
      // not a full planning pass over every (unit, phase) profile.
      charge_overhead(kOverheadPlanFixedS +
                      static_cast<double>(d.drift.drifted) *
                          kOverheadPerPlanItemS);
      replanner_->observe(profiler_);
      enforce_iters_since_plan_ = 0;
      break;
    case ReplanDecision::Path::kKeepStale:
      // Plan unchanged; refresh the drift baseline so slow creep is
      // measured against the latest accepted weights.
      replanner_->observe(profiler_);
      break;
  }
  Log::info("replan check: drift=%.3f (%zu/%zu) path=%d",
            d.drift.drift_fraction(), d.drift.drifted, d.drift.tracked,
            static_cast<int>(d.path));
}

// ---------------------------------------------------------------------------
// Stats

RuntimeStats Runtime::stats() const {
  RuntimeStats s;
  s.migration = migrator_->stats();
  s.overhead_s = overhead_s_;
  s.total_time_s = end_vt_ > 0 ? end_vt_ : clock().now();
  s.phases_executed = phases_executed_;
  s.iterations = iteration_ + (phases_executed_ > 0 ? 1 : 0);
  s.reprofiles = reprofiles_;
  s.plan_kind = plan_.kind;
  s.planned_migrations_per_iteration = plan_.migration_count();
  s.replan_checks = replan_checks_;
  s.incremental_repairs = incremental_repairs_;
  s.full_replans = full_replans_;
  s.last_drift_fraction = last_drift_fraction_;
  s.profile_samples = profile_samples_;
  s.profile_attributed = profile_attributed_;
  s.sample_period = adaptive_rate_ != nullptr ? adaptive_rate_->period() : 0;
  s.dag_critical_path_s = dag_ready_ ? dag_.critical_path_s() : 0.0;
  s.dag_builds = dag_builds_;
  s.dag_slack_scheduled = plan_.slack_scheduled;
  s.dag_fallback_triggers = plan_.fallback_triggers;
  s.dag_offpath_drift = dag_offpath_drift_;
  return s;
}

}  // namespace unimem::rt
