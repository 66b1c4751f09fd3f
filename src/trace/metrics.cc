#include "trace/metrics.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/log.h"

namespace unimem::trace {

namespace {

// Relaxed atomic-double accumulate; contention is end-of-run scale, not
// hot-path scale, so a CAS loop is fine.
void atomic_add(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse_count(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_value(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

/// One MetricsRegistry::spill line into `staged`; false when malformed.
bool parse_spill_line(const std::string& line, MetricsRegistry* staged) {
  std::istringstream in(line);
  std::string kind, name, f[4], extra;
  std::uint64_t count = 0;
  double sum = 0, min = 0, max = 0;
  if (!(in >> kind >> name)) return false;
  if (kind == "counter") {
    if (!(in >> f[0]) || (in >> extra) || !parse_count(f[0], &count))
      return false;
    staged->counter(name)->add(count);
    return true;
  }
  if (kind != "histogram" || !(in >> f[0] >> f[1] >> f[2] >> f[3]) ||
      (in >> extra) || !parse_count(f[0], &count) ||
      !parse_value(f[1], &sum) || !parse_value(f[2], &min) ||
      !parse_value(f[3], &max) || min > max)
    return false;
  staged->histogram(name)->merge(count, sum, min, max);
  return true;
}

}  // namespace

void Histogram::observe(double sample) {
  if (!(sample >= 0.0)) sample = 0.0;  // NaN / negative clamp
  merge(1, sample, sample, sample);
}

void Histogram::merge(std::uint64_t count, double sum, double min,
                      double max) {
  if (count == 0) return;
  const std::uint64_t prev = count_.fetch_add(count, std::memory_order_relaxed);
  atomic_add(&sum_, sum);
  if (prev == 0) {
    // The first samples seed min/max (0-inits would poison min).
    min_.store(min, std::memory_order_relaxed);
    max_.store(max, std::memory_order_relaxed);
  } else {
    atomic_min(&min_, min);
    atomic_max(&max_, max);
  }
}

std::string MetricsSnapshot::to_json() const {
  // Built with append() rather than operator+ chains: some GCC releases
  // mis-fire -Wrestrict (fatal under -Werror) on the char* + rvalue-string
  // inlining path; appends produce the identical bytes.
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : counters) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(k);
    out += "\":";
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(k);
    out += "\":";
    out += json_number(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [k, h] : histograms) {
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += json_escape(k);
    out += "\":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += json_number(h.sum);
    out += ",\"min\":";
    out += json_number(h.min);
    out += ",\"max\":";
    out += json_number(h.max);
    out += "}";
  }
  out += "}}";
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = new MetricsRegistry();  // leaked on purpose
  return *reg;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot snap;
  for (const auto& [k, c] : counters_) snap.counters[k] = c->value();
  for (const auto& [k, g] : gauges_) snap.gauges[k] = g->value();
  for (const auto& [k, h] : histograms_) {
    MetricsSnapshot::Hist row;
    row.count = h->count();
    row.sum = h->sum();
    row.min = h->min();
    row.max = h->max();
    snap.histograms[k] = row;
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

bool MetricsRegistry::spill(const std::string& path) const {
  const MetricsSnapshot snap = snapshot();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [k, v] : snap.counters)
    std::fprintf(f, "counter %s %llu\n", k.c_str(),
                 static_cast<unsigned long long>(v));
  for (const auto& [k, h] : snap.histograms)
    std::fprintf(f, "histogram %s %llu %.17g %.17g %.17g\n", k.c_str(),
                 static_cast<unsigned long long>(h.count), h.sum, h.min,
                 h.max);
  const bool ok = std::fclose(f) == 0;
  return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool MetricsRegistry::absorb(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  // Stage the whole file first: a malformed line anywhere voids it all.
  MetricsRegistry staged;
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    if (!parse_spill_line(line, &staged)) {
      Log::warn("ignoring malformed metrics spill %s (line %zu)",
                path.c_str(), lineno);
      return false;
    }
  }
  const MetricsSnapshot snap = staged.snapshot();
  for (const auto& [k, v] : snap.counters) counter(k)->add(v);
  for (const auto& [k, h] : snap.histograms)
    histogram(k)->merge(h.count, h.sum, h.min, h.max);
  return true;
}

}  // namespace unimem::trace
