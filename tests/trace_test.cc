// Trace subsystem tests: SPSC ring semantics (wraparound order, overflow
// drop accounting), recorder lifecycle (start/stop/restart generations,
// lazy thread registration, concurrent emit vs drain — the case TSan digs
// into), exporter round-trips (binary spill, Chrome JSON structure and
// escaping, shard merging with wall-clock alignment), the span summary
// rollup, the metrics registry, and an end-to-end run_once() recording
// that asserts the runtime actually emits phase spans in virtual time.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "experiments/runner.h"
#include "trace/export.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace unimem::trace {
namespace {

Event make_event(const char* cat, const char* name, Phase ph,
                 std::uint64_t seq) {
  Event e;
  e.cat = cat;
  e.name = name;
  e.phase = ph;
  e.arg_name0 = "seq";
  e.arg0 = seq;
  return e;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- ring -----------------------------------------------------------------

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Ring(1).capacity(), 8u);  // minimum
  EXPECT_EQ(Ring(8).capacity(), 8u);
  EXPECT_EQ(Ring(9).capacity(), 16u);
  EXPECT_EQ(Ring(1000).capacity(), 1024u);
}

TEST(TraceRing, OverflowDropsNewestAndCounts) {
  Ring r(8);
  for (std::uint64_t i = 0; i < 8; ++i)
    EXPECT_TRUE(r.push(make_event("t", "e", Phase::kInstant, i)));
  EXPECT_FALSE(r.push(make_event("t", "e", Phase::kInstant, 8)));
  EXPECT_FALSE(r.push(make_event("t", "e", Phase::kInstant, 9)));
  EXPECT_EQ(r.dropped(), 2u);

  std::vector<Event> out;
  EXPECT_EQ(r.pop_into(&out), 8u);
  ASSERT_EQ(out.size(), 8u);
  // Drop-newest: the surviving events are exactly the first 8, in order.
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(out[i].arg0, i);
}

TEST(TraceRing, WraparoundPreservesFifoOrderAcrossManyCycles) {
  Ring r(8);
  std::vector<Event> out;
  std::uint64_t seq = 0, expect = 0;
  // 100 fill/drain cycles march the monotonic indices far past the
  // capacity, so the mask wraps continuously.
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 5; ++i)
      ASSERT_TRUE(r.push(make_event("t", "e", Phase::kInstant, seq++)));
    out.clear();
    ASSERT_EQ(r.pop_into(&out), 5u);
    for (const Event& e : out) EXPECT_EQ(e.arg0, expect++);
  }
  EXPECT_EQ(r.dropped(), 0u);
}

// ---- recorder lifecycle ---------------------------------------------------

TEST(TraceRecorder, InactiveRecorderRecordsNothing) {
  auto& rec = TraceRecorder::instance();
  ASSERT_FALSE(rec.active());
  UNIMEM_TRACE_INSTANT("test", "ignored", -1.0);
  emit_event(Phase::kInstant, "test", "ignored-too", -1.0);
  rec.start();
  const TraceData data = rec.stop();
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(data.dropped, 0u);
}

TEST(TraceRecorder, RecordsEventsWithArgsAndNamedTracks) {
  auto& rec = TraceRecorder::instance();
  rec.start();
  set_thread_track("main-thread", 7);
  UNIMEM_TRACE_BEGIN2("cat", "span", 1.5, "a", 3, "b", 4);
  UNIMEM_TRACE_END("cat", "span", 2.5);
  UNIMEM_TRACE_INSTANT1("cat", "blip", -1.0, "x", 42);
  const TraceData data = rec.stop();

  ASSERT_EQ(data.events.size(), 3u);
  const TraceEventRow& b = data.events[0];
  EXPECT_EQ(data.str(b.cat), "cat");
  EXPECT_EQ(data.str(b.name), "span");
  EXPECT_EQ(b.phase, 'B');
  EXPECT_DOUBLE_EQ(b.vt, 1.5);
  EXPECT_EQ(data.str(b.arg_name0), "a");
  EXPECT_EQ(b.arg0, 3u);
  EXPECT_EQ(data.str(b.arg_name1), "b");
  EXPECT_EQ(b.arg1, 4u);
  EXPECT_EQ(data.events[1].phase, 'E');
  const TraceEventRow& inst = data.events[2];
  EXPECT_EQ(inst.phase, 'i');
  EXPECT_LT(inst.vt, 0.0);
  EXPECT_EQ(inst.arg0, 42u);

  ASSERT_LT(b.track, data.tracks.size());
  EXPECT_EQ(data.tracks[b.track].name, "main-thread");
  EXPECT_EQ(data.tracks[b.track].sort_hint, 7);
  // Wall stamps are monotone within one thread.
  EXPECT_LE(data.events[0].wall_ns, data.events[1].wall_ns);
}

TEST(TraceRecorder, RestartDiscardsPriorStateAndReregistersThreads) {
  auto& rec = TraceRecorder::instance();
  rec.start();
  set_thread_track("before", 0);
  UNIMEM_TRACE_INSTANT("gen", "old", -1.0);
  rec.start();  // restart without stop — the fork-child path
  UNIMEM_TRACE_INSTANT("gen", "new", -1.0);
  const TraceData data = rec.stop();
  ASSERT_EQ(data.events.size(), 1u);
  EXPECT_EQ(data.str(data.events[0].name), "new");
  for (const TraceTrack& t : data.tracks) EXPECT_NE(t.name, "before");
}

TEST(TraceRecorder, UnnamedThreadsRegisterLazily) {
  auto& rec = TraceRecorder::instance();
  rec.start();
  std::thread([] { UNIMEM_TRACE_INSTANT("lazy", "hi", -1.0); }).join();
  const TraceData data = rec.stop();
  ASSERT_EQ(data.events.size(), 1u);
  EXPECT_EQ(data.tracks[data.events[0].track].name, "thread");
}

TEST(TraceRecorder, ConcurrentEmitAndDrainLosesNothingUnaccounted) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  auto& rec = TraceRecorder::instance();
  rec.start(256);  // small rings force mid-run drains and real overflow

  std::atomic<bool> done{false};
  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) rec.flush();
  });
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([t] {
      set_thread_track("producer " + std::to_string(t), t);
      for (int i = 0; i < kPerThread; ++i)
        UNIMEM_TRACE_INSTANT1("stress", "tick", -1.0, "i",
                              static_cast<std::uint64_t>(i));
    });
  }
  for (auto& p : producers) p.join();
  done.store(true, std::memory_order_release);
  drainer.join();
  const TraceData data = rec.stop();

  // Every emit either landed or was counted as dropped — no silent loss.
  EXPECT_EQ(data.events.size() + data.dropped,
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_FALSE(data.empty());
  // Per-track sequences stay in emit order even through partial drains.
  std::map<std::uint32_t, std::uint64_t> next;
  for (const TraceEventRow& e : data.events) {
    const auto it = next.find(e.track);
    if (it != next.end()) {
      EXPECT_GT(e.arg0, it->second);
    }
    next[e.track] = e.arg0;
  }
}

// ---- exporters ------------------------------------------------------------

TraceData sample_data() {
  TraceData d;
  d.epoch_realtime_ns = 1'000'000;
  const std::uint32_t track =
      static_cast<std::uint32_t>(d.tracks.size());
  d.tracks.push_back({"rank \"0\"", 3});  // quote exercises escaping
  TraceEventRow b;
  b.cat = d.intern("runtime");
  b.name = d.intern("phase");
  b.arg_name0 = d.intern("iter");
  b.arg0 = 2;
  b.vt = 0.25;
  b.wall_ns = 100;
  b.track = track;
  b.phase = 'B';
  TraceEventRow e = b;
  e.vt = 0.75;
  e.wall_ns = 400;
  e.phase = 'E';
  TraceEventRow i;
  i.cat = d.intern("sweep");
  i.name = d.intern("retry");
  i.vt = -1.0;  // wall-only
  i.wall_ns = 200;
  i.track = track;
  i.phase = 'i';
  d.events = {b, i, e};
  d.dropped = 5;
  return d;
}

TEST(TraceExport, BinaryRoundTripIsLossless) {
  const std::string path = testing::TempDir() + "/trace_rt.trace";
  const TraceData d = sample_data();
  ASSERT_TRUE(write_binary(d, path));
  TraceData r;
  ASSERT_TRUE(read_binary(path, &r));
  EXPECT_EQ(r.epoch_realtime_ns, d.epoch_realtime_ns);
  EXPECT_EQ(r.dropped, d.dropped);
  ASSERT_EQ(r.strings.size(), d.strings.size());
  ASSERT_EQ(r.tracks.size(), d.tracks.size());
  EXPECT_EQ(r.tracks[1].name, "rank \"0\"");
  EXPECT_EQ(r.tracks[1].sort_hint, 3);
  ASSERT_EQ(r.events.size(), d.events.size());
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    EXPECT_EQ(r.str(r.events[i].cat), d.str(d.events[i].cat));
    EXPECT_EQ(r.str(r.events[i].name), d.str(d.events[i].name));
    EXPECT_EQ(r.events[i].arg0, d.events[i].arg0);
    EXPECT_DOUBLE_EQ(r.events[i].vt, d.events[i].vt);
    EXPECT_EQ(r.events[i].wall_ns, d.events[i].wall_ns);
    EXPECT_EQ(r.events[i].track, d.events[i].track);
    EXPECT_EQ(r.events[i].phase, d.events[i].phase);
  }
  std::remove(path.c_str());
}

TEST(TraceExport, ReadBinaryRejectsGarbage) {
  const std::string path = testing::TempDir() + "/trace_garbage.trace";
  { std::ofstream(path) << "definitely not a trace"; }
  TraceData r;
  EXPECT_FALSE(read_binary(path, &r));
  EXPECT_FALSE(read_binary(path + ".does-not-exist", &r));
  std::remove(path.c_str());
}

/// Peak-RSS growth, in MiB, of a forked child that reads `path`; 255 if
/// the read succeeded, -1 if the child died.
int child_rss_growth_mib(const std::string& path) {
  const pid_t pid = fork();
  if (pid == 0) {
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    TraceData r;
    const bool ok = read_binary(path, &r);
    rusage after{};
    getrusage(RUSAGE_SELF, &after);
    const long grew = (after.ru_maxrss - before.ru_maxrss) / 1024;
    _exit(ok ? 255 : static_cast<int>(std::clamp<long>(grew, 0, 254)));
  }
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
    return -1;
  return WEXITSTATUS(status);
}

TEST(TraceExport, ReadBinaryCommitsOnlyWhatTheInputHolds) {
  // A 32-byte file that declares one string of 2^26 - 1 bytes, and a
  // 40-byte one whose single track name is as long.  Each is rejected
  // without committing a buffer of the declared length.
  const std::string path = testing::TempDir() + "/trace_short.trace";
  auto u32 = [](std::uint32_t v) {
    std::string b(4, '\0');
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
    return b;
  };
  const std::string header = std::string("UNIMTRC1") + std::string(16, '\0');
  const std::uint32_t huge = (1u << 26) - 1;
  for (const std::string& body :
       {u32(1) + u32(huge), u32(1) + u32(0) + u32(1) + u32(huge)}) {
    { std::ofstream(path, std::ios::binary) << header + body; }
    EXPECT_LT(child_rss_growth_mib(path), 16) << body.size() + 24 << " bytes";
  }
  std::remove(path.c_str());
}

TEST(TraceExport, ReadBinaryReadsAFifo) {
  // A spill can be streamed (`unimem_trace <(...)`): the reader must not
  // need to seek.
  const std::string file = testing::TempDir() + "/trace_fifo_src.trace";
  const std::string fifo = testing::TempDir() + "/trace_fifo.trace";
  ASSERT_TRUE(write_binary(sample_data(), file));
  const std::string bytes = slurp(file);
  std::remove(fifo.c_str());
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] { std::ofstream(fifo, std::ios::binary) << bytes; });
  TraceData r;
  const bool ok = read_binary(fifo, &r);
  writer.join();
  ASSERT_TRUE(ok);
  EXPECT_EQ(r.strings, sample_data().strings);
  EXPECT_EQ(r.events.size(), sample_data().events.size());
  std::remove(fifo.c_str());
  std::remove(file.c_str());
}

TEST(TraceExport, ChromeJsonCarriesBothClocksAndEscapes) {
  const std::string path = testing::TempDir() + "/trace_export.json";
  ASSERT_TRUE(write_chrome_json(sample_data(), path));
  const std::string js = slurp(path);
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
  // The span has a virtual stamp: it shows on both clock processes.  The
  // wall-only instant must appear exactly once (pid 2 only).
  std::size_t phase_hits = 0, retry_hits = 0;
  for (std::size_t at = js.find("\"phase\""); at != std::string::npos;
       at = js.find("\"phase\"", at + 1))
    ++phase_hits;
  for (std::size_t at = js.find("\"retry\""); at != std::string::npos;
       at = js.find("\"retry\"", at + 1))
    ++retry_hits;
  EXPECT_EQ(phase_hits, 4u);  // B+E on the virtual pid, B+E on the wall pid
  EXPECT_EQ(retry_hits, 1u);
  EXPECT_NE(js.find("rank \\\"0\\\""), std::string::npos) << "escaping";
  EXPECT_NE(js.find("\"virtual time\""), std::string::npos);
  EXPECT_NE(js.find("\"wall time\""), std::string::npos);
  EXPECT_NE(js.find("\"dropped\":5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceExport, MergeRemapsIdsPrefixesTracksAndAlignsWallClock) {
  TraceData base = sample_data();  // epoch 1'000'000
  TraceData shard;
  shard.epoch_realtime_ns = 4'000'000;  // started 3 ms after base
  const std::uint32_t t =
      static_cast<std::uint32_t>(shard.tracks.size());
  shard.tracks.push_back({"rank 0", 1});
  TraceEventRow e;
  e.cat = shard.intern("sweep");
  e.name = shard.intern("point");
  e.vt = -1.0;
  e.wall_ns = 10;
  e.track = t;
  e.phase = 'i';
  shard.events.push_back(e);
  shard.dropped = 2;

  merge_into(&base, shard, "task-3/");
  ASSERT_EQ(base.events.size(), 4u);
  const TraceEventRow& m = base.events.back();
  EXPECT_EQ(base.str(m.cat), "sweep");
  EXPECT_EQ(base.str(m.name), "point");
  EXPECT_EQ(base.tracks[m.track].name, "task-3/rank 0");
  EXPECT_EQ(m.wall_ns, 10u + 3'000'000u) << "epoch delta applied";
  EXPECT_EQ(base.dropped, 7u);
}

TEST(TraceExport, SortAndSummarizeRollUpSpans) {
  TraceData d = sample_data();
  std::swap(d.events[0], d.events[2]);  // out of wall order
  sort_events(&d);
  EXPECT_EQ(d.events.front().wall_ns, 100u);
  EXPECT_EQ(d.events.back().wall_ns, 400u);

  const std::vector<TraceSummaryRow> rows = summarize(d);
  ASSERT_EQ(rows.size(), 2u);
  const auto phase =
      rows[0].name == "phase" ? rows[0] : rows[1];
  const auto retry =
      rows[0].name == "retry" ? rows[0] : rows[1];
  EXPECT_EQ(phase.cat, "runtime");
  EXPECT_EQ(phase.count, 1u);  // one matched B/E pair
  EXPECT_NEAR(phase.wall_total_s, 300e-9, 1e-15);
  EXPECT_NEAR(phase.vt_total_s, 0.5, 1e-12);
  EXPECT_EQ(retry.count, 1u);
  EXPECT_EQ(retry.wall_total_s, 0.0);
}

TEST(TraceExport, SummarizeCountsTornSpansAsTruncated) {
  // Two torn shapes a killed worker leaves behind: a BEGIN with no END at
  // the tail of the trace, and a nested BEGIN discarded when an outer END
  // unwinds past it.  Both must be counted as truncated (and excluded from
  // count/totals) instead of silently dropped.
  TraceData d;
  d.epoch_realtime_ns = 1'000'000;
  const std::uint32_t track = static_cast<std::uint32_t>(d.tracks.size());
  d.tracks.push_back({"rank 0", 1});
  auto ev = [&](const char* name, char phase, std::uint64_t wall, double vt) {
    TraceEventRow r;
    r.cat = d.intern("runtime");
    r.name = d.intern(name);
    r.vt = vt;
    r.wall_ns = wall;
    r.track = track;
    r.phase = phase;
    return r;
  };
  d.events = {
      ev("phase", 'B', 100, 0.25),
      ev("solve", 'B', 150, 0.30),  // discarded by phase's END unwind
      ev("phase", 'E', 400, 0.75),
      ev("phase", 'B', 500, 1.00),  // worker killed mid-phase: no END
  };

  const std::vector<TraceSummaryRow> rows = summarize(d);
  ASSERT_EQ(rows.size(), 2u);
  const TraceSummaryRow& phase = rows[0].name == "phase" ? rows[0] : rows[1];
  const TraceSummaryRow& solve = rows[0].name == "solve" ? rows[0] : rows[1];
  EXPECT_EQ(phase.name, "phase");
  EXPECT_EQ(phase.count, 1u);  // only the matched pair rolls up
  EXPECT_EQ(phase.truncated, 1u);
  EXPECT_NEAR(phase.wall_total_s, 300e-9, 1e-15);
  EXPECT_NEAR(phase.vt_total_s, 0.5, 1e-12);
  EXPECT_EQ(solve.name, "solve");
  EXPECT_EQ(solve.count, 0u);
  EXPECT_EQ(solve.truncated, 1u);
  EXPECT_EQ(solve.wall_total_s, 0.0);

  // A clean trace reports zero truncation.
  TraceData clean = sample_data();
  for (const TraceSummaryRow& r : summarize(clean))
    EXPECT_EQ(r.truncated, 0u) << r.name;
}

// ---- metrics --------------------------------------------------------------

TEST(Metrics, CountersGaugesHistogramsRoundTrip) {
  MetricsRegistry reg;
  reg.counter("a.count")->add(3);
  reg.counter("a.count")->add();  // same handle via get-or-create
  reg.gauge("b.gauge")->set(2.5);
  auto* h = reg.histogram("c.hist");
  h->observe(1.0);
  h->observe(4.0);
  h->observe(0.25);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a.count"), 4u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("b.gauge"), 2.5);
  const auto& hs = snap.histograms.at("c.hist");
  EXPECT_EQ(hs.count, 3u);
  EXPECT_DOUBLE_EQ(hs.sum, 5.25);
  EXPECT_DOUBLE_EQ(hs.min, 0.25);
  EXPECT_DOUBLE_EQ(hs.max, 4.0);

  reg.reset();
  EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Metrics, ConcurrentAddsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8, kAdds = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&reg] {
      auto* c = reg.counter("hot");
      auto* h = reg.histogram("obs");
      for (int i = 0; i < kAdds; ++i) {
        c->add();
        h->observe(1.0);
      }
    });
  for (auto& t : ts) t.join();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("hot"),
            static_cast<std::uint64_t>(kThreads) * kAdds);
  EXPECT_EQ(snap.histograms.at("obs").count,
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, JsonIsDeterministicSortedAndStructured) {
  MetricsRegistry reg;
  reg.counter("z.last")->add(1);
  reg.counter("a.first")->add(2);
  reg.gauge("mid")->set(1.5);
  reg.histogram("h")->observe(2.0);
  const std::string js = reg.snapshot().to_json();
  EXPECT_EQ(js, reg.snapshot().to_json()) << "deterministic";
  EXPECT_LT(js.find("a.first"), js.find("z.last")) << "sorted keys";
  EXPECT_NE(js.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(js.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(js.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(js.find("\"count\":1"), std::string::npos);
}

TEST(Metrics, SpillAbsorbMergesCountersAndHistogramsExactly) {
  // Per-process path: ctest may run this case and the whole binary at once.
  const std::string path = testing::TempDir() + "/metrics_spill." +
                           std::to_string(::getpid());
  MetricsRegistry child;
  child.counter("sweep.points_ok")->add(5);
  child.gauge("campaign.wall_s")->set(3.0);  // gauges stay in the process
  child.histogram("sweep.jobs")->observe(2.0);
  child.histogram("sweep.jobs")->observe(0.1);
  ASSERT_TRUE(child.spill(path));

  MetricsRegistry parent;
  parent.counter("sweep.points_ok")->add(1);
  parent.histogram("sweep.jobs")->observe(4.0);
  ASSERT_TRUE(parent.absorb(path));
  const MetricsSnapshot snap = parent.snapshot();
  EXPECT_EQ(snap.counters.at("sweep.points_ok"), 6u);
  EXPECT_TRUE(snap.gauges.empty());
  const auto& h = snap.histograms.at("sweep.jobs");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 4.0 + (2.0 + 0.1)) << "the spill round-trips sums exactly";
  EXPECT_EQ(h.min, 0.1);
  EXPECT_EQ(h.max, 4.0);

  // A malformed spill contributes nothing, not even its valid lines.
  for (const char* bad : {"counter a 1\ncounter b -2\n", "counter a 1 2\n",
                          "histogram h 1 1 nan 1\n", "histogram h 1 1 2 1\n",
                          "gauge g 1\n", "counter\n"}) {
    std::ofstream(path, std::ios::trunc) << bad;
    MetricsRegistry r;
    EXPECT_FALSE(r.absorb(path)) << bad;
    EXPECT_TRUE(r.snapshot().empty()) << bad;
  }
  std::remove(path.c_str());
  MetricsRegistry none;
  EXPECT_FALSE(none.absorb(path)) << "a missing spill is not an error";
  EXPECT_TRUE(none.snapshot().empty());
}

// ---- end to end -----------------------------------------------------------

TEST(TraceIntegration, RunOnceEmitsRuntimePhaseSpansInVirtualTime) {
  auto& rec = TraceRecorder::instance();
  rec.start();
  exp::RunConfig cfg;
  cfg.workload = "cg";
  cfg.wcfg.cls = 'S';
  // Enough iterations for the 2-iteration profiling window to close and
  // the planner to actually solve.
  cfg.wcfg.iterations = 4;
  cfg.wcfg.nranks = 2;
  cfg.policy = exp::Policy::kUnimem;
  const exp::RunResult res = exp::run_once(cfg);
  const TraceData data = rec.stop();
  EXPECT_GT(res.time_s, 0.0);

  std::size_t begins = 0, ends = 0, solves = 0;
  std::set<std::string> track_names;
  for (const TraceEventRow& e : data.events) {
    if (data.str(e.cat) == "runtime" && data.str(e.name) == "phase") {
      EXPECT_GE(e.vt, 0.0) << "phases carry the virtual clock";
      if (e.phase == 'B') ++begins;
      if (e.phase == 'E') ++ends;
    }
    if (data.str(e.name) == "plan.solve" && e.phase == 'B') ++solves;
    track_names.insert(data.tracks[e.track].name);
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends) << "spans are balanced";
  EXPECT_GE(solves, 1u) << "the planner ran at least once";
  EXPECT_TRUE(track_names.count("rank 0") == 1 &&
              track_names.count("rank 1") == 1)
      << "per-rank tracks are named";

  // run_once also published into the global metrics registry.
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  EXPECT_GE(snap.counters.at("runtime.replan_checks"), 0u);
  EXPECT_EQ(snap.histograms.at("runtime.world_time_s").count >= 1, true);
  MetricsRegistry::global().reset();
}

}  // namespace
}  // namespace unimem::trace
