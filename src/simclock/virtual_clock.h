// Per-rank virtual clock.  All simulated costs (compute, memory stalls,
// communication, exposed migration waits) advance this clock; wall-clock
// time of the host machine is irrelevant to reported results.
#pragma once

#include <algorithm>
#include <cassert>

namespace unimem::clk {

class VirtualClock {
 public:
  /// Current virtual time in seconds.
  double now() const { return now_s_; }

  /// Advance by `dt` seconds (dt >= 0).
  void advance(double dt) {
    assert(dt >= 0.0);
    now_s_ += dt;
  }

  /// Jump forward to absolute time `t` if `t` is in the future; no-op
  /// otherwise.  Used when waiting on another rank or on a modeled
  /// migration.
  /// Returns the amount of time actually waited.
  double wait_until(double t) {
    double waited = std::max(0.0, t - now_s_);
    now_s_ += waited;
    return waited;
  }

  void reset() { now_s_ = 0.0; }

 private:
  double now_s_ = 0.0;
};

}  // namespace unimem::clk
