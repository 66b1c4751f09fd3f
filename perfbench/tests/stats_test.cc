// Unit tests of the benchmark's statistics helpers (src/stats.h).
// Dependency-free: exits non-zero and names the first failing check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "stats_test.cc:%d: check failed: %s\n", line, what);
}
#define CHECK(cond) check((cond), #cond, __LINE__)

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_percentile_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_percentile;
  CHECK(samples_beyond(100, 0.9) == 10);
  CHECK(samples_beyond(99, 0.9) == 9);
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(samples_beyond(5, 0.5) == 2);
  // The highest percentile with at least 10 samples beyond it.
  CHECK(tail_percentile(19) == 0);
  CHECK(tail_percentile(20) == 50);
  CHECK(tail_percentile(99) == 50);
  CHECK(tail_percentile(100) == 90);
  CHECK(tail_percentile(999) == 90);
  CHECK(tail_percentile(1000) == 99);
  CHECK(tail_percentile(10000) == 99.9);
  CHECK(tail_percentile(100000) == 99.99);

  // Nearest rank: p50 of 1..10 is 5, p90 is 9, p100 is 10.
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  CHECK(perfbench::quantile(v, 0.5) == 5);
  CHECK(perfbench::quantile(v, 0.9) == 9);
  CHECK(perfbench::quantile(v, 1.0) == 10);
  CHECK(perfbench::quantile({7.0}, 0.01) == 7);
  CHECK(throws([] { perfbench::quantile({}, 0.5); }));
}

void test_geomean() {
  CHECK(std::abs(perfbench::geomean({1.0, 4.0}) - 2.0) < 1e-12);
  CHECK(std::abs(perfbench::geomean({2.0, 8.0, 4.0}) - 4.0) < 1e-12);
  CHECK(perfbench::geomean({3.5}) == 3.5);
  CHECK(throws([] { perfbench::geomean({}); }));
  CHECK(throws([] { perfbench::geomean({1.0, 0.0}); }));
  CHECK(throws([] { perfbench::geomean({1.0, -2.0}); }));
}

void test_ledger() {
  // 100 ms World: 10 ms on the World thread; 4 ranks covering 300 rank-ms
  // explain 75 ms of wall, leaving 15 ms.
  CHECK(perfbench::unattributed(100, 10, 300, 4) == 15);
  // One rank: rank time counts in full.
  CHECK(perfbench::unattributed(10, 1, 8, 1) == 1);
  // A span counted twice shows as a negative remainder.
  CHECK(perfbench::unattributed(10, 4, 8, 1) == -2);
  CHECK(throws([] { perfbench::unattributed(1, 0, 0, 0); }));
}

void test_order_and_slice() {
  using perfbench::execution_order;
  using perfbench::stratified_slice;
  const std::vector<std::size_t> a = execution_order(35, 1);
  CHECK(a == execution_order(35, 1));
  CHECK(a != execution_order(35, 2));
  CHECK(std::set<std::size_t>(a.begin(), a.end()).size() == 35);
  CHECK(*std::max_element(a.begin(), a.end()) == 34);
  CHECK(execution_order(0, 1).empty());
  CHECK(execution_order(1, 9) == std::vector<std::size_t>{0});

  // service_stress: 100 (bw, lat) runs of 100 DRAM sizes, 10 kept per run.
  const std::vector<std::size_t> s = stratified_slice(100, 100, 10, 7);
  CHECK(s.size() == 1000);
  CHECK(s == stratified_slice(100, 100, 10, 7));
  CHECK(s != stratified_slice(100, 100, 10, 8));
  CHECK(std::is_sorted(s.begin(), s.end()));
  CHECK(std::set<std::size_t>(s.begin(), s.end()).size() == 1000);
  CHECK(s.back() < 10000);
  std::vector<int> per_run(100, 0), per_offset(100, 0);
  for (std::size_t i : s) {
    ++per_run[i / 100];
    ++per_offset[i % 100];
  }
  CHECK(std::all_of(per_run.begin(), per_run.end(),
                    [](int n) { return n == 10; }));
  CHECK(std::all_of(per_offset.begin(), per_offset.end(),
                    [](int n) { return n == 10; }));
  CHECK(stratified_slice(2, 3, 3, 5) ==
        (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  CHECK(throws([] { stratified_slice(100, 100, 7, 1); }));
  CHECK(throws([] { stratified_slice(5, 100, 10, 1); }));
  CHECK(throws([] { stratified_slice(10, 10, 0, 1); }));
}

}  // namespace

int main() {
  test_percentile_rule();
  test_geomean();
  test_ledger();
  test_order_and_slice();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("stats_test: all checks passed\n");
  return EXIT_SUCCESS;
}
