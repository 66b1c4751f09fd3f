// Campaign coordinator: the sweep service's control plane.
//
// run_campaign() drives a set of sweep points to completion through a
// pluggable Launcher (launcher.h).  It is the only way the sweep CLI runs
// points: `--jobs N` is one in-process worker, `--shards N` is N fork
// workers without stealing, and `--launcher` picks any topology.  On top
// of dispatch it is a fault-tolerant service:
//
//   * CHUNKED DISPATCH — points are dealt to worker slots with
//     shard_slice (whole baseline groups stay together), then each slice
//     is cut into chunks so a finished worker can pick up more work.
//   * WORK STEALING — a worker whose own queue drains takes chunks from
//     the most-loaded sibling's queue tail, so one straggling slice no
//     longer bounds campaign wall-clock.
//   * RETRIES — failed points are re-run with deterministic capped
//     exponential backoff (EngineOptions::max_point_retries inside each
//     task; RetryBackoff schedules are pure functions of seed/point/
//     attempt, so recovery is reproducible).
//   * TASK REASSIGNMENT — a task whose worker DIES (nonzero exit,
//     signal, lost ssh...) has its unfinished points re-dispatched up to
//     max_task_retries times; rows the dead task already streamed are
//     kept (its artifact is read with the crash-tolerant reader).
//   * RESUME — rows from a previous campaign's artifact are accepted
//     up front and their points never re-run (crash-restart).
//
// The coordinator itself NEVER spawns a thread: it is a single-threaded
// event loop around Launcher::wait_any().  That is a hard constraint, not
// a style choice — process launchers fork(), and forking a multi-threaded
// parent whose child spawns threads is forbidden under TSan (and unsound
// in general).  All parallelism lives inside tasks.
//
// Determinism contract: per-point rows are bitwise identical no matter
// which worker ran them, how often they were retried, or whether the
// campaign was resumed — so the final point-ordered rows (and any
// artifact written from them) are byte-identical across every topology.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sweep/launcher.h"

namespace unimem::sweep {

/// Live campaign counters, pushed to on_progress after every task
/// completion (and once at the end with complete=true).  The CLI renders
/// this as the live --summary-json.
struct CampaignProgress {
  std::size_t total = 0;
  std::size_t done = 0;  ///< finalized points (ok + failed + resumed)
  std::size_t failed = 0;
  std::size_t resumed = 0;       ///< points satisfied by resume_rows
  std::size_t retries = 0;       ///< failed point attempts re-run in tasks
  std::size_t steals = 0;        ///< chunks taken from another worker's queue
  std::size_t tasks = 0;         ///< tasks dispatched (incl. re-dispatches)
  std::size_t task_retries = 0;  ///< re-dispatches after a worker died
  bool complete = false;
};

struct CoordinatorOptions {
  Launcher* launcher = nullptr;  ///< required; not owned
  /// Concurrent worker slots (tasks in flight); also the shard_slice
  /// fan-out that decides chunk ownership.
  int workers = 2;
  /// Allow idle workers to take chunks from other workers' queues.
  bool steal = false;
  /// Re-dispatch budget for tasks whose worker died; when exhausted the
  /// task's unfinished points are finalized as failed rows naming the
  /// worker's fate.
  int max_task_retries = 2;
  /// Per-task engine options.  max_point_retries/backoff ride inside
  /// (retries happen in the task, concurrently); on_result is ignored —
  /// rows come back through row events and task artifacts to
  /// on_final_row.
  EngineOptions engine;
  /// Directory for per-task JSONL artifacts + meta sidecars; must exist.
  std::string scratch_dir;
  /// Rows from a previous campaign's JSONL (read_jsonl_tolerant): ok rows
  /// whose index matches a point are finalized immediately and not
  /// re-run.  Failed resume rows ARE re-run (a resume is a second
  /// chance).  A label mismatch against the point list throws — that is
  /// an artifact from a different spec, not a resumable campaign.
  std::vector<SweepRow> resume_rows;
  /// Campaign-level row sink: called once per point — resumed points
  /// first (in point order), then fresh points in completion order.  A
  /// launcher that streams row events (InProcessLauncher) delivers each
  /// row when its point finishes; others at the end of its task.
  std::function<void(const SweepRow&)> on_final_row;
  std::function<void(const CampaignProgress&)> on_progress;
  /// Ask each task to spill a per-task trace shard ("<artifact>.trace",
  /// binary format) for the coordinator to stitch into the campaign
  /// timeline.  Set this for process-backed launchers only; in-process
  /// tasks already emit into the coordinator's recorder.
  bool trace_tasks = false;
  std::size_t trace_buf = 0;  ///< forwarded to LaunchTask::trace_buf
};

struct CampaignOutcome {
  std::vector<SweepRow> rows;  ///< point (expansion) order
  std::size_t failed = 0;
  std::size_t resumed = 0;
  std::size_t retries = 0;
  std::size_t steals = 0;
  std::size_t tasks = 0;
  std::size_t task_retries = 0;
  double wall_s = 0;
  int workers = 0;
  /// Aggregated from task meta sidecars (tasks launched without a
  /// sidecar-writing body contribute zero).
  std::size_t worlds_executed = 0;
  std::size_t baseline_requests = 0;
  std::size_t baseline_computed = 0;
  int jobs_used = 0;  ///< widest per-task engine width observed
  /// One entry per task that finished with points missing from its
  /// artifact: the worker's fate plus how many points it handed back.
  /// Re-dispatch recovers these; the log says why they happened.
  std::vector<std::string> task_failures;
  /// Binary trace shards harvested from finished tasks (trace_tasks on),
  /// in harvest order.  The caller merges them (trace/export.h) before
  /// the scratch directory is removed.
  std::vector<std::string> trace_shards;
};

CampaignOutcome run_campaign(const std::vector<SweepPoint>& points,
                             const CoordinatorOptions& opts);

}  // namespace unimem::sweep
