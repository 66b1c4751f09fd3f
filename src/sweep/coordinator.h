// Campaign coordinator: the sweep CLI's dispatch loop.
//
// run_campaign() drives a set of sweep points to completion through a
// pluggable Launcher (launcher.h).  It is the only way the sweep CLI runs
// points: `--jobs N` is one in-process worker and `--launcher` with
// `--workers N` picks any other topology.  Around dispatch:
//
//   * ONE TASK PER WORKER — points are dealt to worker slots with
//     shard_slice (whole baseline groups stay together), and each slot's
//     slice runs as one task.  A failed row is data: it is final as soon
//     as it arrives, because a World that threw once throws again.
//   * TASK REASSIGNMENT — a task whose worker DIES (nonzero exit,
//     signal, lost ssh...) has its unfinished points re-dispatched as a
//     fresh task on the slot that just freed, up to kMaxTaskRetries
//     times; rows the dead task already streamed are kept (its artifact
//     is read with the crash-tolerant reader).
//   * ONE COUNTER CHANNEL — a process-backed task spills its metrics
//     registry next to its artifact and the coordinator merges it into
//     this process's registry, so engine counters of every topology meet
//     in MetricsRegistry::global().
//   * RESUME — rows from a previous campaign's artifact are accepted
//     up front and their points never re-run (crash-restart).  Failed
//     resume rows re-run, which is how a transient host failure (say,
//     EAGAIN creating a rank thread) is recovered.
//
// The coordinator itself NEVER spawns a thread: it is a single-threaded
// event loop around Launcher::wait_any().  That is a hard constraint, not
// a style choice — process launchers fork(), and forking a multi-threaded
// parent whose child spawns threads is forbidden under TSan (and unsound
// in general).  All parallelism lives inside tasks.
//
// Determinism contract: per-point rows are bitwise identical no matter
// which worker ran them, whether a dead worker's points were re-run, or
// whether the campaign was resumed — so the final point-ordered rows (and
// any artifact written from them) are byte-identical across every
// topology.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sweep/launcher.h"

namespace unimem::sweep {

/// A campaign's result; also its progress so far (on_progress).  Engine
/// counters (worlds, baselines, jobs) are not copied here: they live in
/// MetricsRegistry::global() under "sweep.*".
struct CampaignOutcome {
  std::vector<SweepRow> rows;  ///< point (expansion) order
  std::size_t done = 0;        ///< finalized points (ok + failed + resumed)
  bool complete = false;       ///< every point finalized, every task in
  std::size_t failed = 0;
  std::size_t resumed = 0;       ///< points satisfied by resume_rows
  std::size_t tasks = 0;         ///< tasks dispatched (incl. re-dispatches)
  std::size_t task_retries = 0;  ///< re-dispatches after a worker died
  double wall_s = 0;
  int workers = 0;
  /// One entry per task that finished with points missing from its
  /// artifact: the worker's fate plus how many points it handed back.
  /// Re-dispatch recovers these; the log says why they happened.
  std::vector<std::string> task_failures;
  /// Binary trace shards harvested from finished process-backed tasks
  /// (spilled while the recorder was on), in harvest order.  The caller
  /// merges them (trace/export.h) before the scratch directory is
  /// removed.
  std::vector<std::string> trace_shards;
};

/// Re-dispatch budget for tasks whose worker died; when exhausted the
/// task's unfinished points are finalized as failed rows naming the
/// worker's fate.
inline constexpr int kMaxTaskRetries = 2;

struct CoordinatorOptions {
  Launcher* launcher = nullptr;  ///< required; not owned
  /// Concurrent worker slots (tasks in flight); also the shard_slice
  /// fan-out that deals the points, one task per slot.
  int workers = 2;
  /// Per-task engine options; on_result is ignored — rows come back
  /// through row events and task artifacts to on_final_row.
  EngineOptions engine;
  /// Directory for per-task JSONL artifacts and spills; must exist.
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
  /// The campaign so far, after every task completion and once at the
  /// end with complete=true.  The CLI renders it as the live
  /// --summary-json.
  std::function<void(const CampaignOutcome&)> on_progress;
};

CampaignOutcome run_campaign(const std::vector<SweepPoint>& points,
                             const CoordinatorOptions& opts);

}  // namespace unimem::sweep
