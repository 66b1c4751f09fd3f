#include "sweep/coordinator.h"

#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/log.h"
#include "sweep/result_store.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace unimem::sweep {

namespace {

struct Chunk {
  std::vector<SweepPoint> points;
  int deaths = 0;  ///< how many times a dying worker handed them back
  std::string artifact;  ///< set at dispatch: the running task's JSONL
};

}  // namespace

CampaignOutcome run_campaign(const std::vector<SweepPoint>& points,
                             const CoordinatorOptions& opts) {
  if (opts.launcher == nullptr)
    throw std::invalid_argument("run_campaign: launcher required");
  if (opts.workers < 1)
    throw std::invalid_argument("run_campaign: workers must be >= 1");
  if (opts.scratch_dir.empty())
    throw std::invalid_argument("run_campaign: scratch_dir required");
  const auto t0 = std::chrono::steady_clock::now();

  const std::size_t n = points.size();
  std::map<std::size_t, std::size_t> pos_of;  // point index -> position
  for (std::size_t i = 0; i < n; ++i) pos_of[points[i].index] = i;

  CampaignOutcome out;
  out.workers = opts.workers;
  out.rows.resize(n);
  std::vector<char> has(n, 0);

  auto finalize = [&](const SweepRow& row, std::size_t pos) {
    has[pos] = 1;
    out.rows[pos] = row;
    ++out.done;
    if (!row.ok) ++out.failed;
    if (opts.on_final_row) opts.on_final_row(out.rows[pos]);
  };

  // Resume: accept prior ok rows up front (point order), re-run the rest.
  for (const SweepRow& row : opts.resume_rows) {
    const auto it = pos_of.find(row.index);
    if (it == pos_of.end()) continue;  // artifact covered a wider filter
    if (row.label != points[it->second].label)
      throw std::runtime_error(
          "run_campaign: resume row " + std::to_string(row.index) +
          " has label '" + row.label + "' but the spec expands to '" +
          points[it->second].label + "' — stale artifact from another spec?");
    if (!row.ok || has[it->second]) continue;
    finalize(row, it->second);
    ++out.resumed;
  }

  // Deal the remaining points: one shard_slice per worker (keeps baseline
  // groups together), each slice one task.  Afterwards the queue holds
  // only the re-dispatches of dead workers' points.
  std::vector<SweepPoint> pending;
  pending.reserve(n - out.done);
  for (std::size_t i = 0; i < n; ++i)
    if (!has[i]) pending.push_back(points[i]);

  std::deque<Chunk> queue;  // tasks waiting for a free slot
  for (int w = 0; w < opts.workers; ++w) {
    Chunk c;
    c.points = shard_slice(pending, w, opts.workers);
    if (!c.points.empty()) queue.push_back(std::move(c));
  }

  std::map<int, Chunk> active;  // slot -> chunk being executed
  std::uint64_t next_task_id = 0;

  auto dispatch = [&](int slot) {
    Chunk chunk = std::move(queue.front());
    queue.pop_front();
    LaunchTask task;
    task.slot = slot;
    task.task_id = next_task_id++;
    task.points = chunk.points;
    task.artifact =
        opts.scratch_dir + "/task-" + std::to_string(task.task_id) + ".jsonl";
    task.engine = opts.engine;
    task.engine.on_result = nullptr;
    UNIMEM_TRACE_INSTANT2("coordinator",
                          chunk.deaths > 0 ? "task.redispatch"
                                           : "task.dispatch",
                          -1.0, "task", task.task_id, "points",
                          task.points.size());
    opts.launcher->start(task);
    chunk.artifact = task.artifact;
    active[slot] = std::move(chunk);
    ++out.tasks;
  };

  auto progress = [&] {
    if (opts.on_progress) opts.on_progress(out);
  };

  // Free slots pop from the back: the first tasks go to slots 0, 1, ...,
  // and a re-dispatch runs on the slot its dead worker just freed.
  std::vector<int> free_slots;
  for (int w = opts.workers - 1; w >= 0; --w) free_slots.push_back(w);

  // Row events can finalize every point before the tasks that ran them
  // have finished, so keep waiting until each task's spills are in too.
  while (out.done < n || !active.empty()) {
    while (!queue.empty() && !free_slots.empty()) {
      dispatch(free_slots.back());
      free_slots.pop_back();
    }
    if (active.empty())
      throw std::logic_error(
          "run_campaign: stalled with unfinished points and no active "
          "tasks");

    auto [slot, status] = opts.launcher->wait_any();
    const auto ait = active.find(slot);
    if (ait == active.end())
      throw std::logic_error("run_campaign: event for idle slot");
    if (!status.finished) {
      // A streamed row of a still-running task: final as soon as it lands.
      const auto pit = pos_of.find(status.row.index);
      if (pit != pos_of.end() && !has[pit->second])
        finalize(status.row, pit->second);
      continue;
    }
    const Chunk chunk = std::move(ait->second);
    active.erase(ait);
    const std::string& artifact = chunk.artifact;
    free_slots.push_back(slot);

    // Harvest whatever the task managed to write — even a killed worker's
    // completed rows count (tolerant read drops at most a torn tail).
    std::vector<SweepRow> rows;
    try {
      rows = read_jsonl_tolerant(artifact);
    } catch (const std::exception&) {
      rows.clear();  // no artifact at all: every point is unfinished
    }
    trace::MetricsRegistry::global().absorb(metrics_spill_path(artifact));
    // A dead worker may have spilled nothing; harvest what exists and let
    // the merge skip unreadable shards.
    if (std::FILE* tf = std::fopen(trace_spill_path(artifact).c_str(), "rb")) {
      std::fclose(tf);
      out.trace_shards.push_back(trace_spill_path(artifact));
    }

    // Points still open; rows already streamed as row events are final.
    std::set<std::size_t> open;
    for (const SweepPoint& p : chunk.points)
      if (!has[pos_of.at(p.index)]) open.insert(p.index);
    for (const SweepRow& row : rows)
      if (open.erase(row.index) != 0) finalize(row, pos_of.at(row.index));

    if (!open.empty()) {
      // The worker died mid-task.  Re-dispatch the unfinished points, or
      // — budget exhausted — finalize them as failures naming the cause.
      const std::string cause =
          status.detail.empty() ? "task did not run to completion"
                                : status.detail;
      Log::warn("sweep worker died (%s) — %zu point(s) unfinished",
                cause.c_str(), open.size());
      UNIMEM_TRACE_INSTANT1("coordinator", "task.dead", -1.0, "unfinished",
                            open.size());
      out.task_failures.push_back(cause + " — " + std::to_string(open.size()) +
                                  " point(s) unfinished");
      if (chunk.deaths < kMaxTaskRetries) {
        // Front of the queue: the re-dispatch runs next, on the slot that
        // just freed, so it never waits behind a busy worker.
        Chunk retry;
        retry.deaths = chunk.deaths + 1;
        for (const SweepPoint& p : chunk.points)
          if (open.count(p.index) != 0) retry.points.push_back(p);
        queue.push_front(std::move(retry));
        ++out.task_retries;
      } else {
        for (const SweepPoint& p : chunk.points) {
          if (open.count(p.index) == 0) continue;
          SweepRow row;
          row.index = p.index;
          row.label = p.label;
          row.axis = p.axis;
          row.ok = false;
          row.error = "worker died (" + cause + "), re-dispatch budget of " +
                      std::to_string(kMaxTaskRetries) + " exhausted";
          finalize(row, pos_of.at(p.index));
        }
      }
    }
    progress();
  }

  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  auto& reg = trace::MetricsRegistry::global();
  reg.counter("campaign.tasks")->add(out.tasks);
  reg.counter("campaign.task_retries")->add(out.task_retries);
  reg.counter("campaign.resumed")->add(out.resumed);
  reg.counter("campaign.failed_points")->add(out.failed);
  reg.gauge("campaign.wall_s")->set(out.wall_s);
  out.complete = true;
  progress();
  return out;
}

}  // namespace unimem::sweep
