// Sweep service tests: the campaign coordinator (one task per worker,
// failed rows final on arrival, dead-worker reassignment, resume), the
// launcher topologies (in-process row streaming, fork, command), the
// crash-tolerant JSONL reader, CSV label sanitization, and the metrics a
// fork campaign merges from its tasks' spills.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sweep/coordinator.h"
#include "sweep/engine.h"
#include "sweep/launcher.h"
#include "sweep/result_store.h"
#include "sweep/spec.h"
#include "trace/metrics.h"

namespace unimem::sweep {
namespace {

// Synthetic points and a pure run_point hook: the service layer's
// contracts (dispatch, re-dispatch, artifacts, determinism) are independent
// of the simulator, so these tests exercise them without running Worlds.
std::vector<SweepPoint> synth_points(std::size_t n) {
  std::vector<SweepPoint> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i].index = i;
    pts[i].label = "synth/p" + std::to_string(i);
    pts[i].axis = {{"workload", "synth"}};
    pts[i].normalize = false;
  }
  return pts;
}

exp::RunResult synth_result(std::size_t index) {
  exp::RunResult r;
  r.time_s = 0.001 * static_cast<double>(index + 1);
  r.checksum = 1.5 * static_cast<double>(index);
  r.total_migrations = index;
  return r;
}

/// Fresh per-test scratch directory (stale task artifacts/sidecars from a
/// previous ctest run would pollute counter aggregation).
/// Per-process: ctest runs this binary's cases one by one and as a
/// whole-binary aggregate, possibly at once, and a shared path would let
/// one process delete the other's artifacts mid-campaign.
std::string fresh_scratch(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/svc_" + name + "." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> jsonl_lines(const std::vector<SweepRow>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const SweepRow& r : rows) out.push_back(SweepResultStore::jsonl_line(r));
  return out;
}

/// Counter `name` of the process-global metrics registry (0 if absent).
std::uint64_t global_counter(const std::string& name) {
  const auto snap = trace::MetricsRegistry::global().snapshot();
  const auto it = snap.counters.find(name);
  return it != snap.counters.end() ? it->second : 0;
}

/// Widest engine width any task of this process's campaigns recorded.
double global_jobs() {
  const auto snap = trace::MetricsRegistry::global().snapshot();
  const auto it = snap.histograms.find("sweep.jobs");
  return it != snap.histograms.end() ? it->second.max : 0.0;
}

// ---- coordinator ----------------------------------------------------------

// The coordinator at stress scale: a 10k-point campaign on 4 workers
// where every fifth point throws runs one task per worker, finalizes each
// failed row once on arrival, and produces rows byte-identical to a plain
// engine run of the same points, failure rows included.
TEST(Coordinator, StressCampaignStaysDeterministic) {
  const std::size_t kPoints = 10000;
  const auto points = synth_points(kPoints);
  const std::string scratch = fresh_scratch("stress");
  trace::MetricsRegistry::global().reset();

  auto run_point = [](const SweepPoint& p, int) {
    if (p.index % 5 == 0) throw std::runtime_error("deterministic fault");
    return synth_result(p.index);
  };
  InProcessLauncher launcher;
  CoordinatorOptions opts;
  opts.launcher = &launcher;
  opts.workers = 4;
  opts.scratch_dir = scratch;
  opts.engine.jobs = 2;
  opts.engine.run_point = run_point;

  std::vector<int> finalized(kPoints, 0);
  opts.on_final_row = [&](const SweepRow& row) { ++finalized[row.index]; };
  std::size_t progress_calls = 0;
  bool last_complete = false;
  std::size_t last_done = 0;
  opts.on_progress = [&](const CampaignOutcome& p) {
    ++progress_calls;
    last_complete = p.complete;
    last_done = p.done;
  };

  const CampaignOutcome out = run_campaign(points, opts);

  EXPECT_EQ(out.failed, kPoints / 5) << "a failed row is final, not retried";
  EXPECT_EQ(std::count(finalized.begin(), finalized.end(), 1),
            static_cast<std::ptrdiff_t>(kPoints))
      << "every row finalized exactly once";
  EXPECT_EQ(out.tasks, 4u) << "one task per worker";
  EXPECT_EQ(out.task_retries, 0u);
  EXPECT_TRUE(out.task_failures.empty());
  EXPECT_EQ(out.resumed, 0u);
  EXPECT_EQ(out.workers, 4);
  EXPECT_EQ(global_jobs(), 2.0) << "per-task width, not the sum";
  EXPECT_EQ(global_counter("sweep.worlds_executed"), kPoints - kPoints / 5)
      << "only points that returned count as executed worlds";
  EXPECT_GE(progress_calls, out.tasks + 1);
  EXPECT_TRUE(last_complete);
  EXPECT_EQ(last_done, kPoints);

  EngineOptions plain;
  plain.jobs = 4;
  plain.run_point = run_point;
  const SweepOutcome ref = SweepEngine(plain).run(points);
  ASSERT_EQ(out.rows.size(), ref.rows.size());
  EXPECT_EQ(jsonl_lines(out.rows), jsonl_lines(ref.rows))
      << "campaign rows must match a plain engine run byte-for-byte";
}

TEST(Coordinator, ResumeAcceptsPriorRowsAndRejectsForeignArtifacts) {
  const auto points = synth_points(10);
  const std::string scratch = fresh_scratch("resume");

  auto base_opts = [&](InProcessLauncher* launcher) {
    CoordinatorOptions o;
    o.launcher = launcher;
    o.workers = 2;
    o.scratch_dir = scratch;
    o.engine.jobs = 1;
    o.engine.run_point = [](const SweepPoint& p, int) {
      return synth_result(p.index);
    };
    return o;
  };

  InProcessLauncher l1;
  const CampaignOutcome first = run_campaign(points, base_opts(&l1));
  ASSERT_EQ(first.failed, 0u);

  // Resume with the first six rows plus a FAILED row for point 7: ok rows
  // are accepted, the failed one is re-run (a resume is a second chance).
  std::vector<SweepRow> resume(first.rows.begin(), first.rows.begin() + 6);
  SweepRow failed7 = first.rows[7];
  failed7.ok = false;
  failed7.error = "crashed last time";
  failed7.result = exp::RunResult{};
  resume.push_back(failed7);

  InProcessLauncher l2;
  CoordinatorOptions o2 = base_opts(&l2);
  o2.resume_rows = resume;
  const CampaignOutcome second = run_campaign(points, o2);
  EXPECT_EQ(second.resumed, 6u) << "only ok rows satisfy their points";
  EXPECT_EQ(second.failed, 0u);
  EXPECT_EQ(jsonl_lines(second.rows), jsonl_lines(first.rows));

  // An artifact whose labels disagree with the spec expansion is from a
  // different campaign — refuse instead of silently mixing results.
  InProcessLauncher l3;
  CoordinatorOptions o3 = base_opts(&l3);
  o3.resume_rows = {first.rows[0]};
  o3.resume_rows[0].label = "other-spec/p0";
  EXPECT_THROW(run_campaign(points, o3), std::runtime_error);
}

TEST(Coordinator, ForkedWorkerKilledMidTaskIsReassigned) {
  const auto points = synth_points(8);
  const std::string scratch = fresh_scratch("killfork");
  const std::string sentinel = scratch + "/killed.once";

  ForkLauncher launcher;
  CoordinatorOptions opts;
  opts.launcher = &launcher;
  opts.workers = 2;
  opts.scratch_dir = scratch;
  opts.engine.jobs = 1;
  opts.engine.run_point = [sentinel](const SweepPoint& p, int) {
    if (p.index == 5 && !std::filesystem::exists(sentinel)) {
      std::FILE* f = std::fopen(sentinel.c_str(), "w");
      if (f != nullptr) std::fclose(f);
      raise(SIGKILL);  // the worker process dies mid-chunk
    }
    return synth_result(p.index);
  };

  const CampaignOutcome out = run_campaign(points, opts);
  EXPECT_EQ(out.failed, 0u) << "the dead worker's points were re-run";
  EXPECT_GE(out.task_retries, 1u);
  EXPECT_GT(out.tasks, 2u) << "the re-dispatch is a fresh task";

  EngineOptions plain;
  plain.jobs = 1;
  plain.run_point = [](const SweepPoint& p, int) {
    return synth_result(p.index);
  };
  const SweepOutcome ref = SweepEngine(plain).run(points);
  EXPECT_EQ(jsonl_lines(out.rows), jsonl_lines(ref.rows))
      << "rows the dead worker already streamed are kept, the rest re-run";
}

// N fork workers run one task each, and a failed row is final: it is
// not re-run.  Engine counters come back through the forked tasks'
// metrics spills.
TEST(Coordinator, ForkCampaignReportsPerTaskJobsAndAggregatesFailures) {
  const std::string scratch = fresh_scratch("forkcampaign");
  const auto points = synth_points(6);
  trace::MetricsRegistry::global().reset();
  ForkLauncher launcher;
  CoordinatorOptions opts;
  opts.launcher = &launcher;
  opts.workers = 2;
  opts.scratch_dir = scratch;
  opts.engine.jobs = 1;
  opts.engine.run_point = [](const SweepPoint& p, int) {
    if (p.index == 2) throw std::runtime_error("deterministic fault");
    return synth_result(p.index);
  };

  const CampaignOutcome out = run_campaign(points, opts);
  EXPECT_EQ(out.workers, 2);
  EXPECT_EQ(out.tasks, 2u) << "one task per worker, no re-run";
  EXPECT_EQ(global_jobs(), 1.0) << "per-task width, not the sum over workers";
  EXPECT_EQ(global_counter("sweep.points_failed"), 1u)
      << "the child's failed point reached the parent";
  EXPECT_EQ(global_counter("sweep.worlds_executed"), points.size() - 1);
  EXPECT_EQ(out.failed, 1u);
  ASSERT_EQ(out.rows.size(), points.size());
  EXPECT_FALSE(out.rows[2].ok);
  EXPECT_NE(out.rows[2].error.find("deterministic fault"), std::string::npos)
      << out.rows[2].error;
  for (std::size_t i = 0; i < out.rows.size(); ++i)
    EXPECT_EQ(out.rows[i].index, i) << "campaign rows are point-ordered";
}

TEST(Coordinator, ForkCampaignMetricsReachTheParent) {
  const std::string scratch = fresh_scratch("forkmetrics");
  const auto points = synth_points(8);
  trace::MetricsRegistry::global().reset();
  ForkLauncher launcher;
  CoordinatorOptions opts;
  opts.launcher = &launcher;
  opts.workers = 2;
  opts.scratch_dir = scratch;
  opts.engine.jobs = 1;
  opts.engine.run_point = [](const SweepPoint& p, int) {
    return synth_result(p.index);
  };

  const CampaignOutcome out = run_campaign(points, opts);
  ASSERT_EQ(out.failed, 0u);
  EXPECT_EQ(global_counter("sweep.points_ok"), points.size())
      << "each forked task's registry is merged into the parent's";
}

// In-process tasks stream: a row reaches on_final_row while its task is
// still running, so --jsonl stays tail-able and resumable mid-task.
TEST(Coordinator, InProcessRowsReachFinalSinkBeforeTheirTaskEnds) {
  const std::string scratch = fresh_scratch("stream");
  const auto points = synth_points(3);
  trace::MetricsRegistry::global().reset();
  InProcessLauncher launcher;
  CoordinatorOptions opts;
  opts.launcher = &launcher;
  opts.workers = 1;  // one task holds every point
  opts.scratch_dir = scratch;
  opts.engine.jobs = 1;
  std::atomic<bool> first_row_final{false};
  std::atomic<bool> seen_before_last{false};
  opts.engine.run_point = [&](const SweepPoint& p, int) {
    if (p.index + 1 == points.size()) {
      // Bounded: without streaming the first row only arrives after this
      // point returns, so the wait must time out rather than hang.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!first_row_final.load() &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      seen_before_last = first_row_final.load();
    }
    return synth_result(p.index);
  };
  std::vector<std::size_t> order;
  opts.on_final_row = [&](const SweepRow& row) {
    order.push_back(row.index);
    if (row.index == 0) first_row_final = true;
  };

  const CampaignOutcome out = run_campaign(points, opts);
  EXPECT_TRUE(seen_before_last)
      << "row 0 was held back until the whole task finished";
  EXPECT_EQ(out.tasks, 1u);
  EXPECT_EQ(out.failed, 0u);
  EXPECT_EQ(global_counter("sweep.worlds_executed"), points.size())
      << "the coordinator still waits for the task after every row streamed";
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}))
      << "each row finalized exactly once";
}

TEST(Coordinator, CommandWorkerFailuresNameExitStatusAndSignal) {
  const std::string scratch = fresh_scratch("cmdfail");

  auto run_with_cmd = [&](const std::string& shell_cmd) {
    CommandLauncher launcher({}, [&](const LaunchTask&) {
      return std::vector<std::string>{"/bin/sh", "-c", shell_cmd};
    });
    CoordinatorOptions opts;
    opts.launcher = &launcher;
    opts.workers = 1;
    opts.scratch_dir = scratch;
    return run_campaign(synth_points(2), opts);
  };

  // The command exits nonzero without writing an artifact: after the
  // re-dispatch budget the points are finalized failed, naming the fate.
  const CampaignOutcome exited = run_with_cmd("exit 7");
  EXPECT_EQ(exited.failed, 2u);
  EXPECT_EQ(exited.task_retries, std::size_t{kMaxTaskRetries});
  EXPECT_EQ(exited.tasks, std::size_t{kMaxTaskRetries} + 1);
  for (const SweepRow& r : exited.rows) {
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("worker died"), std::string::npos) << r.error;
    EXPECT_NE(r.error.find("exited 7"), std::string::npos) << r.error;
  }

  const CampaignOutcome killed = run_with_cmd("kill -KILL $$");
  EXPECT_EQ(killed.failed, 2u);
  EXPECT_EQ(killed.task_retries, std::size_t{kMaxTaskRetries});
  for (const SweepRow& r : killed.rows)
    EXPECT_NE(r.error.find("signal 9"), std::string::npos) << r.error;
}

// ---- crash-tolerant JSONL reader ------------------------------------------

SweepRow tolerant_row(std::size_t index, bool ok) {
  SweepRow r;
  r.index = index;
  r.label = "synth/p" + std::to_string(index);
  r.ok = ok;
  if (!ok) r.error = "boom";
  r.result = synth_result(index);
  return r;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

TEST(ReadJsonlTolerant, DropsOnlyTheTornFinalLine) {
  const std::string dir = fresh_scratch("tolerant");
  const std::string l0 = SweepResultStore::jsonl_line(tolerant_row(0, true));
  const std::string l1 = SweepResultStore::jsonl_line(tolerant_row(1, false));

  const std::string torn = dir + "/torn.jsonl";
  write_file(torn, l0 + "\n" + l1 + "\n{\"index\":2,\"label\":\"torn-mid");
  std::size_t dropped = 99;
  const auto rows = read_jsonl_tolerant(torn, &dropped);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(rows[0].index, 0u);
  EXPECT_FALSE(rows[1].ok);

  const std::string clean = dir + "/clean.jsonl";
  write_file(clean, l0 + "\n" + l1 + "\n");
  dropped = 99;
  EXPECT_EQ(read_jsonl_tolerant(clean, &dropped).size(), 2u);
  EXPECT_EQ(dropped, 0u);

  // A malformed line with complete lines after it is corruption, not a
  // crash tail — refuse the artifact.
  const std::string corrupt = dir + "/corrupt.jsonl";
  write_file(corrupt, l0 + "\ngarbage not json\n" + l1 + "\n");
  EXPECT_THROW(read_jsonl_tolerant(corrupt), std::runtime_error);

  EXPECT_THROW(read_jsonl_tolerant(dir + "/no-such-file.jsonl"),
               std::runtime_error);
}

TEST(ReadJsonlTolerant, LaterDuplicatesWin) {
  // A resumed campaign appends a fresh (successful) row for a point that
  // previously failed; readers must keep the newer one.
  const std::string dir = fresh_scratch("dedupe");
  const std::string path = dir + "/dup.jsonl";
  write_file(path,
             SweepResultStore::jsonl_line(tolerant_row(4, false)) + "\n" +
                 SweepResultStore::jsonl_line(tolerant_row(4, true)) + "\n");
  const auto rows = read_jsonl_tolerant(path);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].index, 4u);
  EXPECT_TRUE(rows[0].ok) << "the later (resumed) row replaced the failure";
}

// ---- CSV sanitization (satellite: labels can carry commas) ----------------

TEST(SweepResultStore, CsvSanitizesCommasAndNewlinesInLabelAndError) {
  const std::string dir = fresh_scratch("csv");
  const std::string csv = dir + "/sanitize.csv";
  SweepRow r = tolerant_row(0, false);
  r.label = "cg/manual/dram1,5MiB";  // locale-style decimal comma
  r.error = "boom, with comma\nand newline";
  {
    SweepResultStore store;
    store.write_csv_at_finish(csv);
    store.add(r);
    store.finish();
  }
  std::ifstream in(csv);
  ASSERT_TRUE(in.good());
  std::string header, row;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, row));
  std::string extra;
  EXPECT_FALSE(std::getline(in, extra)) << "the newline was flattened";
  EXPECT_EQ(std::count(row.begin(), row.end(), ','), 11)
      << "cell commas would shift every column after label: " << row;
  EXPECT_NE(row.find("cg/manual/dram1;5MiB"), std::string::npos) << row;
  EXPECT_NE(row.find("boom; with comma and newline"), std::string::npos) << row;
}

// ---- wait-status naming ---------------------------------------------------

TEST(DescribeWaitStatus, NamesExitCodesAndSignals) {
  auto wait_status_of = [](void (*child)()) {
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
      child();
      _exit(0);
    }
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    return status;
  };
  EXPECT_EQ(describe_wait_status(wait_status_of([] { _exit(4); })),
            "exited 4");
  const std::string sig =
      describe_wait_status(wait_status_of([] { raise(SIGKILL); }));
  EXPECT_EQ(sig.rfind("killed by signal 9", 0), 0u) << sig;
}

}  // namespace
}  // namespace unimem::sweep
