// User-level fast-memory space service.
//
// Paper §3.3: "To manage the DRAM space, we avoid making any change to the
// OS, and introduce a user-level service.  Each node runs an instance of
// such service.  The service coordinates the DRAM allocation from multiple
// MPI processes on the same node ... and bounds the memory allocation
// within the DRAM space allowance."
//
// One DramArbiter instance is shared by all ranks mapped to the same
// simulated node; every allocation a rank's runtime makes in a
// *constrained* tier must first be granted here.  On the paper's 2-tier
// machine only tier 0 (DRAM) is constrained — the single-allowance
// constructor keeps that reading.  On an N-tier machine every tier except
// the backstop typically carries its own allowance (kUnbounded marks a
// tier the arbiter does not meter).
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

namespace unimem::mem {

class DramArbiter {
 public:
  /// Allowance sentinel: the arbiter does not meter this tier.
  static constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

  /// 2-tier form: tier 0 (DRAM) gets `node_allowance`, every other tier is
  /// unbounded.
  explicit DramArbiter(std::size_t node_allowance)
      : DramArbiter(std::vector<std::size_t>{node_allowance}) {}

  /// Per-tier allowances, indexed by tier; kUnbounded entries (and tiers
  /// past the vector's end) are not metered.
  explicit DramArbiter(std::vector<std::size_t> allowances)
      : allowances_(std::move(allowances)),
        granted_tiers_(allowances_.size(), 0) {}

  /// Does the arbiter meter allocations in tier `t`?
  bool constrains(int t) const {
    return t >= 0 && static_cast<std::size_t>(t) < allowances_.size() &&
           allowances_[static_cast<std::size_t>(t)] != kUnbounded;
  }

  /// Try to reserve `bytes` in tier `t`; false if over allowance.  Always
  /// succeeds for unmetered tiers.
  bool request_tier(int t, std::size_t bytes) {
    if (!constrains(t)) return true;
    std::lock_guard<std::mutex> lk(mu_);
    auto& granted = granted_tiers_[static_cast<std::size_t>(t)];
    if (granted + bytes > allowances_[static_cast<std::size_t>(t)])
      return false;
    granted += bytes;
    return true;
  }

  /// Return previously granted bytes in tier `t` (no-op for unmetered).
  void release_tier(int t, std::size_t bytes) {
    if (!constrains(t)) return;
    std::lock_guard<std::mutex> lk(mu_);
    auto& granted = granted_tiers_[static_cast<std::size_t>(t)];
    granted = bytes > granted ? 0 : granted - bytes;
  }

  /// Allowance of tier `t`; kUnbounded for unmetered tiers.
  std::size_t allowance_tier(int t) const {
    return constrains(t) ? allowances_[static_cast<std::size_t>(t)]
                         : kUnbounded;
  }

  std::size_t granted_tier(int t) const {
    if (!constrains(t)) return 0;
    std::lock_guard<std::mutex> lk(mu_);
    return granted_tiers_[static_cast<std::size_t>(t)];
  }

 private:
  std::vector<std::size_t> allowances_;
  mutable std::mutex mu_;
  std::vector<std::size_t> granted_tiers_;  ///< guarded by mu_
};

}  // namespace unimem::mem
