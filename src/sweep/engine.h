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
//     Each point runs once: a World is deterministic, so a point that
//     threw would throw again.  Only a dead worker's points re-run
//     (coordinator.h), and --resume re-runs failed rows.
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
  /// Worlds the engine actually executed: point runs + baseline cache
  /// misses.  A naive serial harness would have executed
  /// rows + baseline_requests worlds.
  std::size_t worlds_executed = 0;
  std::size_t baseline_requests = 0;
  std::size_t baseline_computed = 0;
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
  /// Point execution hook: when set, replaces exp::run_once for the
  /// point's own run (baselines still go through the BaselineService).
  /// Tests inject synthetic runners here; perfbench times Worlds here.
  /// The int argument is always 0: it is kept only because perfbench
  /// binds a two-argument lambda.
  std::function<exp::RunResult(const SweepPoint&, int)> run_point;
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
