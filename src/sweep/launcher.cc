#include "sweep/launcher.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/log.h"
#include "sweep/result_store.h"
#include "trace/export.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace unimem::sweep {

SweepOutcome run_task_to_artifact(
    const LaunchTask& task, BaselineService* baselines,
    const std::function<void(const SweepRow&)>& on_row) {
  // Shed whatever a fork child inherited from the coordinator, so the
  // spills hold this task's own counters and events only.
  if (!task.metrics.empty()) trace::MetricsRegistry::global().reset();
  if (!task.trace.empty()) trace::TraceRecorder::instance().start(task.trace_buf);

  SweepResultStore store;
  store.stream_jsonl(task.artifact);
  EngineOptions eopts = task.engine;
  eopts.attempt_base = task.attempt_base;
  eopts.on_result = [&](const SweepRow& row) {
    store.add(row);
    if (on_row) on_row(row);
  };
  SweepEngine engine(eopts, baselines);
  const SweepOutcome out = engine.run(task.points);
  store.finish();

  if (!task.trace.empty()) {
    trace::TraceData data = trace::TraceRecorder::instance().stop();
    if (!trace::write_binary(data, task.trace))
      Log::warn("sweep task %llu: cannot write trace shard %s",
                static_cast<unsigned long long>(task.task_id),
                task.trace.c_str());
  }
  if (!task.metrics.empty() &&
      !trace::MetricsRegistry::global().spill(task.metrics))
    throw std::runtime_error("cannot write " + task.metrics);
  return out;
}

// ---------------------------------------------------------------------------
// InProcessLauncher

InProcessLauncher::~InProcessLauncher() {
  for (auto& [slot, t] : threads_)
    if (t.joinable()) t.join();
}

void InProcessLauncher::start(const LaunchTask& task) {
  const int slot = task.slot;
  if (threads_.count(slot) != 0)
    throw std::logic_error("InProcessLauncher: slot already running");
  threads_[slot] = std::thread([this, task] {
    auto post = [&](LaunchStatus st) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        events_.emplace_back(task.slot, std::move(st));
      }
      cv_.notify_all();
    };
    LaunchStatus st;
    try {
      run_task_to_artifact(task, &baselines_, [&](const SweepRow& row) {
        LaunchStatus ev;
        ev.finished = false;
        ev.row = row;
        post(std::move(ev));
      });
      st.ok = true;
    } catch (const std::exception& e) {
      st.detail = e.what();
    } catch (...) {
      st.detail = "unknown error";
    }
    post(std::move(st));
  });
}

std::pair<int, LaunchStatus> InProcessLauncher::wait_any() {
  std::pair<int, LaunchStatus> out;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !events_.empty(); });
    out = std::move(events_.front());
    events_.pop_front();
  }
  if (!out.second.finished) return out;
  // Join outside the lock: the task thread's last act (push + notify) is
  // already done, so this join is near-instant.
  auto it = threads_.find(out.first);
  if (it != threads_.end()) {
    it->second.join();
    threads_.erase(it);
  }
  return out;
}

// ---------------------------------------------------------------------------
// ProcessLauncher

void ProcessLauncher::start(const LaunchTask& task) {
  LaunchTask t = task;
  t.metrics = metrics_spill_path(t.artifact);
  if (trace::on()) {
    t.trace = trace_spill_path(t.artifact);
    t.trace_buf = trace::TraceRecorder::instance().buf_events();
  }
  // Flush before forking so buffered output is not duplicated into the
  // child's address space.
  std::fflush(nullptr);
  const pid_t pid = spawn(t);
  slot_of_[pid] = task.slot;
}

std::pair<int, LaunchStatus> ProcessLauncher::wait_any() {
  if (slot_of_.empty())
    throw std::logic_error("ProcessLauncher: wait_any with no children");
  for (;;) {
    int status = 0;
    const pid_t pid = waitpid(-1, &status, 0);
    if (pid == -1) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("ProcessLauncher: waitpid: ") +
                               std::strerror(errno));
    }
    const auto it = slot_of_.find(pid);
    if (it == slot_of_.end()) continue;  // not ours (no other forkers here)
    const int slot = it->second;
    slot_of_.erase(it);
    LaunchStatus st;
    st.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!st.ok) st.detail = describe_wait_status(status);
    return {slot, st};
  }
}

// ---------------------------------------------------------------------------
// ForkLauncher

pid_t ForkLauncher::spawn(const LaunchTask& task) {
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("ForkLauncher: fork failed");
  if (pid == 0) {
    try {
      run_task_to_artifact(task);
    } catch (const std::exception& e) {
      Log::error("sweep task %llu: %s",
                 static_cast<unsigned long long>(task.task_id), e.what());
      std::fflush(stderr);
      _exit(3);
    }
    // _exit, not exit: the child shares the parent's stdio buffers and
    // must not flush them a second time on its way out.
    _exit(0);
  }
  return pid;
}

// ---------------------------------------------------------------------------
// CommandLauncher

pid_t CommandLauncher::spawn(const LaunchTask& task) {
  std::vector<std::string> argv = prefix_;
  std::vector<std::string> tail = make_argv_(task);
  argv.insert(argv.end(), tail.begin(), tail.end());
  if (argv.empty())
    throw std::invalid_argument("CommandLauncher: empty command line");

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("CommandLauncher: fork failed");
  if (pid == 0) {
    execvp(cargv[0], cargv.data());
    Log::error("sweep task %llu: exec %s: %s",
               static_cast<unsigned long long>(task.task_id), cargv[0],
               std::strerror(errno));
    std::fflush(stderr);
    _exit(127);
  }
  return pid;
}

}  // namespace unimem::sweep
