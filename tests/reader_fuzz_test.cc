// Seeded mutation fuzz for the readers of outside input: the JSONL row
// reader (parse_jsonl_line, read_jsonl_tolerant), which --resume, --merge
// and the coordinator's harvest feed with task artifacts;
// MetricsRegistry::absorb, which merges a process task's metrics spill;
// mem::parse_topology, which reads --tiers and the specs' ladders; and
// trace::read_binary, which loads the UNIMTRC1 spills unimem_trace
// reports on.  Seeds are what the writers (or the registered specs)
// emit; each mutant applies a few byte flips, truncations, insertions
// and duplications.  The contract: a reader either accepts a mutant or
// rejects it with an exception (rows, topologies) or `false` (spills,
// traces; the metrics registry stays untouched) — no crash, hang or
// sanitizer report.  An accepted trace must also survive the consumers
// unimem_trace runs on it: summarize and PhaseDag::from_trace's
// critical-path pass.  Dependency-free: a fixed-seed mt19937_64 drives
// the mutations, so every run sees the same inputs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/phase_dag.h"
#include "simmem/tier_config.h"
#include "sweep/engine.h"
#include "sweep/result_store.h"
#include "sweep/spec.h"
#include "trace/export.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace unimem::sweep {
namespace {

// absorb() warns on every malformed spill; thousands of mutants would
// flood the test log.  Set before main, so before Log reads it.
const int kQuietLog = ::setenv("UNIMEM_LOG", "off", 1);

constexpr int kLineMutants = 20000;
constexpr int kFileMutants = 1500;  // each costs a file write
constexpr int kTopologyMutants = 20000;

std::vector<SweepRow> seed_rows() {
  std::vector<SweepRow> rows;
  for (std::size_t i = 0; i < 6; ++i) {
    SweepRow r;
    r.index = i * 37;
    r.label = "cg/unimem/bw0.5#" + std::to_string(i);
    r.axis = {{"workload", "cg"}, {"policy", "unimem"}};
    r.ok = i % 3 != 1;
    if (!r.ok) r.error = "boom, with \"quotes\"\nand a\ttab";
    r.result.time_s = 0.1 * static_cast<double>(i + 1) / 3.0;
    r.result.checksum = -1.5e-7 * static_cast<double>(i);
    r.result.total_migrations = i * 1000;
    r.result.total_bytes_moved = (std::uint64_t{1} << 40) + i;
    r.result.mean_overhead_percent = 0.25 * static_cast<double>(i);
    r.result.mean_overlap_percent = 99.5;
    if (i % 2 == 0) {  // odd rows carry no baseline: fields omitted
      r.baseline_time_s = 0.07;
      r.normalized = r.result.time_s / r.baseline_time_s;
    }
    if (i == 5) r.axis.clear();
    rows.push_back(r);
  }
  return rows;
}

std::string seed_spill(const std::string& path) {
  trace::MetricsRegistry reg;
  reg.counter("sweep.points_ok")->add(6);
  reg.counter("sweep.points_failed")->add(2);
  reg.counter("sweep.worlds_executed")->add(18446744073709551615ull);
  reg.histogram("sweep.jobs")->observe(4);
  reg.histogram("sweep.jobs")->observe(1);
  reg.histogram("world.setup_ms")->observe(0.125);
  EXPECT_TRUE(reg.spill(path));
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// A few random edits of `s`: byte flips, truncations, insertions and
/// duplications, biased toward the bytes the formats give meaning to.
std::string mutate(std::string s, std::mt19937_64& rng) {
  static const char kBytes[] = "0123456789-+. \t\n\"\\,:{}eEinfa\x7f";
  auto below = [&](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  auto any_byte = [&]() -> char {
    return rng() % 2 == 0 ? kBytes[below(sizeof kBytes - 1)]
                          : static_cast<char>(rng() & 0xff);
  };
  const std::size_t edits = 1 + below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (rng() % 4) {
      case 0:  // byte flip
        if (!s.empty()) s[below(s.size())] = any_byte();
        break;
      case 1:  // truncation
        s.resize(below(s.size() + 1));
        break;
      case 2:  // insertion
        s.insert(below(s.size() + 1), 1 + below(3), any_byte());
        break;
      default: {  // duplication of a span
        const std::size_t at = below(s.size() + 1);
        const std::size_t len = below(s.size() - at + 1);
        s.insert(below(s.size() + 1), s.substr(at, len));
        break;
      }
    }
  }
  return s;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << bytes;
}

std::string scratch(const std::string& name) {
  return ::testing::TempDir() + "/fuzz_" + name + "." +
         std::to_string(::getpid());
}

TEST(ReaderFuzz, SeedsRoundTripExactly) {
  ASSERT_EQ(kQuietLog, 0);
  std::string file;
  for (const SweepRow& r : seed_rows()) {
    const std::string line = SweepResultStore::jsonl_line(r);
    EXPECT_EQ(SweepResultStore::jsonl_line(parse_jsonl_line(line)), line);
    file += line + "\n";
  }
  const std::string jsonl = scratch("seed.jsonl");
  write_file(jsonl, file);
  std::string back;
  for (const SweepRow& r : read_jsonl_tolerant(jsonl))
    back += SweepResultStore::jsonl_line(r) + "\n";
  EXPECT_EQ(back, file);

  const std::string spill = scratch("seed.metrics");
  const std::string bytes = seed_spill(spill);
  trace::MetricsRegistry reg;
  ASSERT_TRUE(reg.absorb(spill));
  const std::string respill = scratch("respill.metrics");
  ASSERT_TRUE(reg.spill(respill));
  std::ifstream in(respill, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), bytes);
  std::remove(jsonl.c_str());
  std::remove(spill.c_str());
  std::remove(respill.c_str());
}

TEST(ReaderFuzz, JsonlLineMutantsParseOrThrow) {
  std::vector<std::string> seeds;
  for (const SweepRow& r : seed_rows())
    seeds.push_back(SweepResultStore::jsonl_line(r));
  std::mt19937_64 rng(20170);
  int parsed = 0;
  for (int i = 0; i < kLineMutants; ++i) {
    const std::string m = mutate(seeds[rng() % seeds.size()], rng);
    SweepRow row;
    try {
      row = parse_jsonl_line(m);
    } catch (const std::exception&) {
      continue;
    }
    ++parsed;
    // An accepted mutant is a row like any other: it serializes to a
    // line that parses back to the same bytes.
    const std::string line = SweepResultStore::jsonl_line(row);
    EXPECT_EQ(SweepResultStore::jsonl_line(parse_jsonl_line(line)), line)
        << "mutant: " << m;
  }
  EXPECT_GT(parsed, 0) << "some mutants (e.g. digit flips) stay valid";
  EXPECT_LT(parsed, kLineMutants);
}

TEST(ReaderFuzz, JsonlFileMutantsReadOrThrow) {
  std::string seed;
  for (const SweepRow& r : seed_rows())
    seed += SweepResultStore::jsonl_line(r) + "\n";
  const std::string path = scratch("mutant.jsonl");
  std::mt19937_64 rng(20171);
  for (int i = 0; i < kFileMutants; ++i) {
    write_file(path, mutate(seed, rng));
    try {
      std::size_t dropped = 0;
      read_jsonl_tolerant(path, &dropped);
      EXPECT_LE(dropped, 1u);
    } catch (const std::exception&) {
    }
  }
  std::remove(path.c_str());
}

TEST(ReaderFuzz, SpillMutantsMergeOrLeaveTheRegistryUnchanged) {
  const std::string seed = seed_spill(scratch("seed2.metrics"));
  std::remove(scratch("seed2.metrics").c_str());
  const std::string path = scratch("mutant.metrics");
  std::mt19937_64 rng(20172);
  int merged = 0;
  for (int i = 0; i < kFileMutants; ++i) {
    write_file(path, mutate(seed, rng));
    trace::MetricsRegistry reg;
    reg.counter("sweep.points_ok")->add(1);
    reg.histogram("sweep.jobs")->observe(2);
    const std::string before = reg.snapshot().to_json();
    if (reg.absorb(path))
      ++merged;
    else
      EXPECT_EQ(reg.snapshot().to_json(), before) << "rejected spill leaked";
  }
  EXPECT_GT(merged, 0);
  EXPECT_LT(merged, kFileMutants);
  std::remove(path.c_str());
}

TEST(ReaderFuzz, TopologyMutantsParseOrThrow) {
  // Seeds: every ladder a registered spec runs.
  std::set<std::string> seeds;
  for (const std::string& name : spec_names()) {
    const SweepSpec spec = *spec_by_name(name);
    for (const std::string& t : spec.topologies)
      if (!t.empty()) seeds.insert(t);
    for (const SweepSpec::ExplicitPoint& e : spec.explicit_points)
      if (!e.cfg.tiers.empty()) seeds.insert(e.cfg.tiers);
  }
  ASSERT_FALSE(seeds.empty());
  const std::vector<std::string> pool(seeds.begin(), seeds.end());
  for (const std::string& t : pool)
    EXPECT_NO_THROW((void)mem::parse_topology(t)) << t;
  std::mt19937_64 rng(20173);
  int parsed = 0;
  for (int i = 0; i < kTopologyMutants; ++i) {
    const std::string m = mutate(pool[rng() % pool.size()], rng);
    try {
      (void)mem::parse_topology(m);
      ++parsed;
    } catch (const std::exception&) {
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kTopologyMutants);
}

/// A small recorded trace: one 2-rank class-S Unimem World.
std::string seed_trace(const std::string& path) {
  auto& rec = trace::TraceRecorder::instance();
  rec.start();
  exp::RunConfig cfg;
  cfg.workload = "cg";
  cfg.wcfg.cls = 'S';
  cfg.wcfg.iterations = 3;
  cfg.wcfg.nranks = 2;
  cfg.policy = exp::Policy::kUnimem;
  (void)exp::run_once(cfg);
  trace::TraceData data = rec.stop();
  trace::MetricsRegistry::global().reset();
  trace::sort_events(&data);
  EXPECT_TRUE(trace::write_binary(data, path));
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(ReaderFuzz, TraceMutantsLoadOrFailAndFeedTheReports) {
  const std::string seed = seed_trace(scratch("seed.trace"));
  trace::TraceData data;
  ASSERT_TRUE(trace::read_binary(scratch("seed.trace"), &data));
  std::remove(scratch("seed.trace").c_str());
  rt::PhaseDag dag = rt::PhaseDag::from_trace(data);
  ASSERT_FALSE(dag.nodes().empty()) << "the seed carries runtime/phase spans";
  ASSERT_TRUE(dag.compute());
  EXPECT_GT(dag.critical_path_s(), 0.0);

  const std::string path = scratch("mutant.trace");
  std::mt19937_64 rng(20174);
  int loaded = 0;
  for (int i = 0; i < kFileMutants; ++i) {
    write_file(path, mutate(seed, rng));
    trace::TraceData m;
    if (!trace::read_binary(path, &m)) continue;
    ++loaded;
    (void)trace::summarize(m);
    rt::PhaseDag mdag = rt::PhaseDag::from_trace(m);
    (void)mdag.compute();
  }
  EXPECT_GT(loaded, 0) << "some mutants (e.g. payload byte flips) load";
  EXPECT_LT(loaded, kFileMutants);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace unimem::sweep
