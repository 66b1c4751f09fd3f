// Memoized DRAM-only normalization baselines for sweep execution.
//
// The paper normalizes every figure to a DRAM-only run of the same
// (workload, size, network) — historically re-executed by each harness
// loop for every row.  A DRAM-only run's virtual time is invariant to
// the NVM bandwidth/latency ratios and the DRAM allowance (the DRAM-only
// machine runs every tier at DRAM speed and places nothing under the
// arbiter's allowance), so one baseline serves an entire grid slice.
// BaselineService memoizes on exactly the fields that do reach the
// DRAM-only timing path.
//
// Thread-safe and single-flight: concurrent requests for the same key
// block on one computation (a shared_future), never duplicate it.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>

#include "experiments/runner.h"

namespace unimem::sweep {

class BaselineService {
 public:
  using Runner = std::function<exp::RunResult(const exp::RunConfig&)>;

  /// `runner` executes a prepared DRAM-only config; defaults to
  /// exp::run_once.  Injectable so tests can count/replace executions.
  explicit BaselineService(Runner runner = {});

  /// The DRAM-only baseline for `cfg`'s workload/size/network (cfg itself
  /// may be any policy; it is rewritten to Policy::kDramOnly).
  exp::RunResult dram_baseline(const exp::RunConfig& cfg);

  /// Number of baseline worlds actually executed (cache misses).
  std::size_t computed() const;
  /// Number of dram_baseline() calls served.
  std::size_t requests() const;

  /// Memoization key: every RunConfig field a DRAM-only run's timing
  /// depends on (exposed for the key-coverage test).
  ///
  /// Shard stability: the key is a pure function of the requesting
  /// point's RunConfig — never of engine state, request order, or which
  /// process asks — and the baseline run itself is deterministic, so a
  /// baseline computed independently in shard 0 of a multi-process sweep
  /// is bitwise identical to the same key computed in shard 1.  Fields a
  /// DRAM-only run cannot feel (policy, NVM ratios, dram_capacity,
  /// manual placements, technique switches) are excluded so that e.g. a
  /// fig4 manual-placement point and its nvm-only reference — possibly
  /// living on different shards — resolve to the same key.  Asserted by
  /// BaselineService.KeyIsShardStableAcrossPolicyVariants.
  static std::string key(const exp::RunConfig& cfg);

 private:
  Runner runner_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_future<exp::RunResult>> cache_;
  std::size_t computed_ = 0;
  std::size_t requests_ = 0;
};

}  // namespace unimem::sweep
