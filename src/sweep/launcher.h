// Launchers: WHERE a coordinator task runs.
//
// The coordinator (coordinator.h) is a single-threaded dispatch loop; a
// Launcher is its asynchronous execution backend.  start() begins a task,
// wait_any() blocks until some started task finishes and reports whether
// the task BODY ran to completion — row-level failures are data inside
// the task's JSONL artifact, not launcher failures.  Keeping the wait
// side asynchronous is what lets one coordinator overlap many workers
// while itself staying single-threaded, which in turn is what makes
// ForkLauncher safe under TSan (fork() from a multi-threaded process
// whose child then spawns threads is undefined enough that TSan aborts).
//
// Three topologies:
//   * InProcessLauncher — one std::thread per task, shared BaselineService.
//   * ForkLauncher      — fork(); the child runs the task body and _exit()s,
//                         owning its whole address space.
//   * CommandLauncher   — fork()+exec of an argv the caller builds per
//                         task (ssh-style: any prefix like {"ssh","host"}
//                         in front of a sweep CLI invocation).  The child
//                         shares nothing with the parent but the artifact
//                         path, which is what makes the artifact format,
//                         not the address space, the contract.
//
// Every task writes rows to its own JSONL artifact; the coordinator reads
// artifacts back with the crash-tolerant reader, so a task killed
// mid-write loses at most its torn last line.  An in-process task also
// hands each row to the coordinator the moment it finishes (a row event
// from wait_any), so campaign outputs stream per point, not per task.
#pragma once

#include <sys/types.h>

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sweep/engine.h"

namespace unimem::sweep {

/// One unit of coordinator work: run `points` through a SweepEngine and
/// stream their rows to the JSONL `artifact`.
struct LaunchTask {
  int slot = 0;               ///< worker slot the coordinator assigned
  std::uint64_t task_id = 0;  ///< unique within a campaign (artifact names)
  std::vector<SweepPoint> points;
  std::string artifact;  ///< JSONL path the task streams rows to
  EngineOptions engine;  ///< per-task engine options (on_result is ignored)
  /// Spill paths, set by ProcessLauncher::start and empty for in-process
  /// tasks, which share the coordinator's registry and recorder.
  /// Non-empty `metrics`: the task resets the metrics registry it
  /// inherited and spills its own there (MetricsRegistry::spill).
  std::string metrics;
  /// Non-empty: the task restarts the trace recorder with `trace_buf`
  /// ring slots per thread and spills a binary trace shard here.
  std::string trace;
  std::size_t trace_buf = 0;
};

/// Where a process-backed task spills next to its artifact; the
/// coordinator harvests whichever of these exist once the task ends.
inline std::string metrics_spill_path(const std::string& artifact) {
  return artifact + ".metrics";
}
inline std::string trace_spill_path(const std::string& artifact) {
  return artifact + ".trace";
}

/// One event from Launcher::wait_any.  A finished task carries the
/// launcher-level verdict: `ok` means the task body ran to completion;
/// when false, `detail` names the cause ("exited 3", "killed by signal 9
/// (Killed)", an exception message, ...).  A row event (finished ==
/// false) carries one `row` the still-running task has just completed;
/// a task's row events always precede its completion.
struct LaunchStatus {
  bool finished = true;
  bool ok = false;
  std::string detail;
  SweepRow row;  ///< row events only
};

/// Task body shared by every launcher: run task.points once each through
/// a SweepEngine streaming to task.artifact, then write the spills the
/// task names (task.metrics, task.trace).  Rows, spills and the exit
/// status are everything a task reports; the coordinator re-runs a dead
/// worker's points and sums counters.  The task's on_result is replaced
/// by the artifact stream plus `on_row`, called (serialized) with each
/// row as it finishes.  `baselines` may be shared across tasks
/// (in-process launcher); nullptr = task-owned service.
SweepOutcome run_task_to_artifact(
    const LaunchTask& task, BaselineService* baselines = nullptr,
    const std::function<void(const SweepRow&)>& on_row = nullptr);

class Launcher {
 public:
  virtual ~Launcher() = default;

  /// Begin a task; returns immediately.  Throws on spawn failure.
  virtual void start(const LaunchTask& task) = 0;

  /// Block until any started task finishes or, for launchers that stream
  /// rows, reports a finished row; returns its slot + the event.
  /// Precondition: at least one task is outstanding.
  virtual std::pair<int, LaunchStatus> wait_any() = 0;

  virtual const char* name() const = 0;
};

/// One std::thread per task inside this process.  Tasks share one
/// BaselineService (keys are pure functions of the point's RunConfig), so
/// baselines memoize across tasks exactly as in a plain engine run, and
/// every finished row is queued as a row event ahead of its task's
/// completion.
class InProcessLauncher : public Launcher {
 public:
  ~InProcessLauncher() override;

  void start(const LaunchTask& task) override;
  std::pair<int, LaunchStatus> wait_any() override;
  const char* name() const override { return "inproc"; }

 private:
  BaselineService baselines_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<int, LaunchStatus>> events_;
  std::map<int, std::thread> threads_;  // slot -> running task thread
};

/// Shared fork/waitpid machinery for the two process-backed launchers.
/// start() alone decides what a task spills: its metrics always (at
/// metrics_spill_path), plus a trace shard (at trace_spill_path, with the
/// parent's ring size) while the parent's recorder is on.  The parent
/// must still be effectively single-threaded when start() is called if
/// the child will spawn threads (the coordinator guarantees this by
/// never threading itself).
class ProcessLauncher : public Launcher {
 public:
  void start(const LaunchTask& task) override;
  std::pair<int, LaunchStatus> wait_any() override;

 protected:
  /// Fork-and-run; returns the child pid (parent side only).
  virtual pid_t spawn(const LaunchTask& task) = 0;

 private:
  std::map<pid_t, int> slot_of_;  // outstanding children
};

/// fork(): the child runs run_task_to_artifact and _exit()s with 0 (ran
/// to completion; failed rows are data in the artifact) or 3
/// (infrastructure failure).
class ForkLauncher : public ProcessLauncher {
 public:
  const char* name() const override { return "fork"; }

 protected:
  pid_t spawn(const LaunchTask& task) override;
};

/// fork()+exec of `prefix + make_argv(task)`.  With an empty prefix this
/// re-invokes a local binary (the sweep CLI launches itself); with
/// {"ssh", "host"} the same argv runs remotely — the artifact path is the
/// only coupling, so any transport that can run a command and share a
/// filesystem path works.
class CommandLauncher : public ProcessLauncher {
 public:
  using ArgvBuilder = std::function<std::vector<std::string>(const LaunchTask&)>;

  CommandLauncher(std::vector<std::string> prefix, ArgvBuilder make_argv)
      : prefix_(std::move(prefix)), make_argv_(std::move(make_argv)) {}

  const char* name() const override { return "cmd"; }

 protected:
  pid_t spawn(const LaunchTask& task) override;

 private:
  std::vector<std::string> prefix_;
  ArgvBuilder make_argv_;
};

}  // namespace unimem::sweep
