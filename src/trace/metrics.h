// MetricsRegistry: named counters / gauges / histograms behind one
// snapshot-able interface.  Subsumes the scattered RuntimeStats /
// CampaignOutcome tallies for export: subsystems publish into the global
// registry at convenient points (end of a run, end of a campaign) and the
// CLI embeds a snapshot in --summary-json under "metrics".
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime (node-based storage) and cheap to update from any
// thread: counters are relaxed atomic adds, gauges atomic stores,
// histograms atomic count/sum/min/max updates.  Snapshots are
// mutex-consistent for the name table but read live atomic values — good
// enough for end-of-run export, not a barrier.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace unimem::trace {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void set(std::uint64_t n) { v_.store(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Histogram over non-negative samples, kept as exact count/sum/min/max:
/// it equals its snapshot, so merging another process's spill is exact.
class Histogram {
 public:
  void observe(double sample);
  /// Fold in `count` samples summing to `sum` with extremes min/max.
  void merge(std::uint64_t count, double sum, double min, double max);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  struct Hist {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  std::map<std::string, Hist> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Render as a JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..}}}.
  /// Keys are emitted sorted, so output is deterministic.
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  /// Get-or-create by dotted name ("unimem.migrations", "sweep.points_ok").
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Drop every metric (tests; also a process-backed task, whose
  /// inherited parent tallies must not be spilled back to the parent).
  void reset();

  /// Write every counter and histogram to `path`, one metric per line:
  /// "counter NAME VALUE" or "histogram NAME COUNT SUM MIN MAX" (gauges
  /// are process-local and stay out).  Written to PATH.tmp and renamed,
  /// so a reader sees a whole spill or none.  False on an I/O error.
  bool spill(const std::string& path) const;

  /// Add the counters and merge the histograms of a spill() file.  A
  /// missing file contributes nothing; a malformed one contributes
  /// nothing and logs a warning naming it.  True when merged.
  bool absorb(const std::string& path);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace unimem::trace
