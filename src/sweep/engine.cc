#include "sweep/engine.h"

#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "trace/metrics.h"
#include "trace/trace.h"

namespace unimem::sweep {

SweepEngine::SweepEngine(EngineOptions opts, BaselineService* baselines)
    : opts_(opts), baselines_(baselines != nullptr ? baselines : &owned_) {}

SweepOutcome SweepEngine::run(const std::vector<SweepPoint>& points) {
  const auto t0 = std::chrono::steady_clock::now();

  int jobs = opts_.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  jobs = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(jobs), points.size()));
  jobs = std::max(jobs, 1);
  const int rank_budget =
      opts_.max_inflight_ranks > 0 ? opts_.max_inflight_ranks : 4 * jobs;

  SweepOutcome out;
  out.rows.resize(points.size());
  out.jobs_used = jobs;

  const std::size_t base_requests = baselines_->requests();
  const std::size_t base_computed = baselines_->computed();

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> point_worlds{0};
  std::mutex admit_mu;
  std::condition_variable admit_cv;
  int active_ranks = 0;
  int active_jobs = 0;
  std::mutex result_mu;

  auto run_point = [&](const SweepPoint& p) {
    if (opts_.run_point) return opts_.run_point(p, opts_.attempt_base);
    return exp::run_once(p.cfg);
  };

  std::atomic<int> worker_seq{0};
  auto worker = [&] {
    if (trace::on()) {
      // Sort behind the rank tracks of whatever world is in flight.
      const int w = worker_seq.fetch_add(1);
      trace::set_thread_track("sweep-worker " + std::to_string(w), 200 + w);
    }
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= points.size()) return;
      const SweepPoint& p = points[i];
      const int need = std::max(1, p.cfg.wcfg.nranks);

      {
        // Admit by simulated-rank load; a job wider than the whole budget
        // may only run alone (active_jobs == 0), never starves.
        std::unique_lock<std::mutex> lk(admit_mu);
        admit_cv.wait(lk, [&] {
          return active_ranks + need <= rank_budget || active_jobs == 0;
        });
        active_ranks += need;
        ++active_jobs;
      }

      SweepRow row;
      row.index = p.index;
      row.label = p.label;
      row.axis = p.axis;
      UNIMEM_TRACE_BEGIN2("sweep", "point", -1.0, "index", p.index,
                          "attempt",
                          static_cast<std::uint64_t>(opts_.attempt_base));
      try {
        if (p.normalize) {
          const exp::RunResult base = baselines_->dram_baseline(p.cfg);
          row.baseline_time_s = base.time_s;
          // The DRAM-only point IS its own baseline: reuse the memoized
          // run instead of executing the identical World again.
          if (p.cfg.policy == exp::Policy::kDramOnly && !opts_.run_point) {
            row.result = base;
          } else {
            row.result = run_point(p);
            point_worlds.fetch_add(1);
          }
          row.normalized =
              base.time_s > 0 ? row.result.time_s / base.time_s : 0.0;
        } else {
          row.result = run_point(p);
          point_worlds.fetch_add(1);
        }
        row.ok = true;
      } catch (const std::exception& e) {
        row.error = e.what();
      } catch (...) {
        row.error = "unknown error";
      }
      UNIMEM_TRACE_END1("sweep", "point", -1.0, "ok", row.ok ? 1 : 0);
      // Hand finished events (including those of the world's now-dead
      // rank threads) to the recorder so ring memory is bounded by the
      // threads of one point, not the whole sweep.
      if (trace::on()) trace::TraceRecorder::instance().flush();

      {
        std::lock_guard<std::mutex> lk(result_mu);
        if (!row.ok) ++out.failed;
        out.rows[i] = row;
        if (opts_.on_result) opts_.on_result(out.rows[i]);
      }

      {
        std::lock_guard<std::mutex> lk(admit_mu);
        active_ranks -= need;
        --active_jobs;
      }
      admit_cv.notify_all();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(jobs));
  try {
    for (int j = 0; j < jobs; ++j) pool.emplace_back(worker);
  } catch (const std::system_error&) {
    // Thread creation failed (resource pressure).  Degrade to the workers
    // we got plus this thread instead of unwinding past joinable threads,
    // which would std::terminate the whole process (or sweep task).
    out.jobs_used = static_cast<int>(pool.size()) + 1;
    worker();
  }
  for (auto& t : pool) t.join();

  out.baseline_requests = baselines_->requests() - base_requests;
  out.baseline_computed = baselines_->computed() - base_computed;
  out.worlds_executed = point_worlds.load() + out.baseline_computed;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();

  // Publish engine tallies into the global registry (additive across
  // engine runs in one process, e.g. the tasks of an inproc campaign;
  // process-backed tasks spill theirs to the coordinator).  Points count
  // attempts: a retried point adds to points_failed, then points_ok.
  auto& reg = trace::MetricsRegistry::global();
  reg.counter("sweep.points_ok")->add(out.rows.size() - out.failed);
  reg.counter("sweep.points_failed")->add(out.failed);
  reg.histogram("sweep.jobs")->observe(out.jobs_used);
  reg.counter("sweep.worlds_executed")->add(out.worlds_executed);
  reg.counter("sweep.baseline_requests")->add(out.baseline_requests);
  reg.counter("sweep.baseline_computed")->add(out.baseline_computed);
  return out;
}

std::string describe_wait_status(int status) {
  if (WIFEXITED(status)) return "exited " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return "killed by signal " + std::to_string(sig) +
           (name != nullptr ? std::string(" (") + name + ")" : std::string());
  }
  if (WIFSTOPPED(status))
    return "stopped by signal " + std::to_string(WSTOPSIG(status));
  return "unknown wait status " + std::to_string(status);
}

}  // namespace unimem::sweep
