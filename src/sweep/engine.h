// SweepEngine: bounded-concurrency batch execution of sweep points.
//
// Each job runs one point to completion — its own World (threads-as-ranks),
// its own memory system, nothing shared with other jobs except the
// memoized BaselineService — so jobs are embarrassingly parallel and the
// engine is a straightforward worker pool with three deliberate policies:
//
//   * Admission is bounded by TOTAL SIMULATED RANKS in flight, not job
//     count: a World of 16 ranks is 16 runnable threads, so packing jobs
//     by rank load keeps host oversubscription flat across heterogeneous
//     specs.  A job larger than the whole budget is admitted alone.
//   * Results land at their point's index: the outcome row order is the
//     spec's deterministic expansion order no matter which job finishes
//     first, and per-point values are bitwise identical across any job
//     count (asserted by SweepDeterminism in tests/sweep_test.cc).
//   * Failure isolation: a throwing job (or a throwing baseline it
//     depends on) marks its own row failed and the batch keeps going.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sweep/baseline_cache.h"
#include "sweep/spec.h"

namespace unimem::sweep {

struct SweepRow {
  std::size_t index = 0;
  std::string label;
  std::map<std::string, std::string> axis;
  bool ok = false;
  std::string error;
  exp::RunResult result{};
  /// Set when the point asked for normalization.
  double baseline_time_s = 0;
  double normalized = 0;  ///< result.time_s / baseline_time_s
};

struct SweepOutcome {
  /// One row per executed point, in point (expansion) order.
  std::vector<SweepRow> rows;
  std::size_t failed = 0;
  double wall_s = 0;  ///< host wall-clock for the whole batch
  /// Worker threads actually used (options.jobs resolved against the
  /// hardware and clamped to the point count).
  int jobs_used = 0;
  /// Point attempts that failed and were re-run under
  /// EngineOptions::max_point_retries.
  std::size_t retries = 0;
  /// Worlds the engine actually executed: point runs + baseline cache
  /// misses.  A naive serial harness would have executed
  /// rows + baseline_requests worlds.
  std::size_t worlds_executed = 0;
  std::size_t baseline_requests = 0;
  std::size_t baseline_computed = 0;
};

/// Capped exponential backoff with deterministic per-(point, attempt)
/// jitter: delay_s() is a pure function of (seed, index, attempt), so a
/// campaign's retry schedule is reproducible run-to-run — the sweep-layer
/// twin of perf::schedule_seed's determinism contract.
struct RetryBackoff {
  double base_s = 0.05;  ///< delay before the first retry (pre-jitter)
  double max_s = 5.0;    ///< cap on the exponential growth
  std::uint64_t seed = 0x5157454550u;  ///< jitter seed ("SWEEP")
  /// Delay before retry `attempt` (1-based) of point `index`:
  /// min(max_s, base_s * 2^(attempt-1)) scaled by a seeded jitter factor
  /// in [0.5, 1.0) so simultaneous retries cannot thundering-herd.
  double delay_s(std::size_t index, int attempt) const;
};

struct EngineOptions {
  /// Concurrent jobs; 0 = std::thread::hardware_concurrency().
  int jobs = 0;
  /// Admission bound on the sum of in-flight simulated ranks; 0 derives
  /// 4x the job count (each paper-scale job is a 4-rank World).
  int max_inflight_ranks = 0;
  /// Streaming result callback, invoked in completion order; calls are
  /// serialized by the engine.
  std::function<void(const SweepRow&)> on_result;
  /// Per-point retry budget: a failing point is re-run up to this many
  /// extra times (with RetryBackoff delays between attempts) before its
  /// failure row is final.  Retried-then-successful rows are bitwise
  /// identical to first-try successes — attempts are an engine counter
  /// (SweepOutcome::retries), never artifact data — so retries preserve
  /// golden determinism.
  int max_point_retries = 0;
  RetryBackoff backoff{};
  /// First attempt number this engine runs (nonzero when a coordinator
  /// re-dispatches points it already saw fail, so `run_point` hooks and
  /// fault-injection schedules observe the campaign-global attempt).
  int attempt_base = 0;
  /// Point execution hook: when set, replaces exp::run_once for the
  /// point's own run (baselines still go through the BaselineService).
  /// Receives the campaign-global attempt number (attempt_base + local
  /// attempt).  Tests inject synthetic runners and seeded transient
  /// faults here; the CLI's --inject-fail rides the same hook.
  std::function<exp::RunResult(const SweepPoint&, int attempt)> run_point;
};

class SweepEngine {
 public:
  /// `baselines` may be shared across batches (e.g. the CLI reusing one
  /// service over several specs); nullptr = engine-owned service.
  explicit SweepEngine(EngineOptions opts = {},
                       BaselineService* baselines = nullptr);

  SweepOutcome run(const std::vector<SweepPoint>& points);

  BaselineService& baselines() { return *baselines_; }

 private:
  EngineOptions opts_;
  BaselineService owned_;
  BaselineService* baselines_;
};

/// Human-readable waitpid status: "exited 3", "killed by signal 9 (Killed)",
/// "stopped"...  Used by the process launchers so every "child died"
/// diagnostic names the actual cause.
std::string describe_wait_status(int status);

}  // namespace unimem::sweep
