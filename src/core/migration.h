// Proactive data-movement engine (paper §3.1.3 / §3.3 and Fig. 6).
//
// "The helper thread is invoked in unimem_init.  In the main computation
// loop, the helper thread and the main thread interact through a shared
// FIFO queue.  The main thread puts data movement requests into the queue;
// the helper thread checks the queue, performs data movement, and removes
// the data movement request off the queue once the data movement is done.
// At the beginning of each phase, the runtime of the main thread will check
// the queue status to determine if all proactive data movement for the
// current phase is done."
//
// The helper thread is modeled in virtual time, not run as a host thread:
// a request enqueued at virtual time t completes at
//     max(t, previous request completion) + size / copy_bw,
// and a phase that needs the unit earlier than that waits for the
// remainder — the exposed (non-overlapped) migration cost.  Every
// decision (does the move succeed, the completion time, the stats) and
// the physical payload copy itself happen on the enqueuing (rank) thread,
// in enqueue order, at the commit point.  The modeled outcome is a pure
// function of virtual-time events, and the payload is never in flight
// when the application or an MPI op touches it.
//
// A fill can be submitted before the eviction that frees its space (plan
// wrap across the iteration boundary); a failed move is retried — a
// bounded number of times — after any later request in the same or a
// subsequent batch makes progress, so the FIFO self-corrects without
// consulting wall-clock queue state.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "core/object.h"
#include "core/registry.h"

namespace unimem::rt {

struct MigrationStats {
  std::uint64_t migrations = 0;       ///< completed unit moves
  std::uint64_t failed = 0;           ///< destination full, move skipped
  std::uint64_t bytes_moved = 0;
  double copy_time_s = 0;             ///< total modeled copy time
  double exposed_wait_s = 0;          ///< part not overlapped with app
  double overlap_percent() const {
    if (copy_time_s <= 0) return 100.0;
    return 100.0 * (1.0 - std::min(1.0, exposed_wait_s / copy_time_s));
  }
  /// Copy time on the critical path (waits can stack past the raw copy
  /// time when one stall covers several queued units, hence the clamp) —
  /// and its complement, the part hidden behind computation.  By
  /// construction exposed + hidden == copy_time_s.
  double exposed_migration_s() const {
    return std::min(exposed_wait_s, copy_time_s);
  }
  double hidden_migration_s() const {
    return copy_time_s - exposed_migration_s();
  }
};

class MigrationEngine {
 public:
  explicit MigrationEngine(Registry* registry) : registry_(registry) {}

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  struct Item {
    UnitRef unit;
    mem::Tier to;
    double enqueue_vt;
  };

  /// Submit a phase's movement requests as one FIFO batch, each at its
  /// `enqueue_vt`.  The decisions, the completion-time math and the copies
  /// all happen before this returns.  A move that fails because its space
  /// is freed by a *later* entry of the batch is retried within the batch
  /// (and once more in later batches).
  void enqueue_batch(const std::vector<Item>& items);

  /// Virtual completion time of the last decided request for `unit` (0.0
  /// when none was decided).  The caller charges max(0, result - now) to
  /// its clock — the exposed cost.
  double wait_for(UnitRef unit) const;

  /// Resolve any still-deferred requests (terminally, as failed) and
  /// return the virtual completion time of the last processed request.
  double drain();

  /// Record exposed waiting time (kept here so Table 4's %overlap is
  /// computed in one place).
  void add_exposed_wait(double seconds);

  MigrationStats stats() const;

 private:
  struct Request {
    UnitRef unit;
    mem::Tier to;
    double enqueue_vt;
    int retries_left = 2;
  };

  /// Decide and commit a batch (plus any earlier deferred requests) in
  /// FIFO order.  Runs retry waves until no wave makes progress.
  void process(std::deque<Request> ready);

  Registry* registry_;
  std::deque<Request> deferred_;
  std::map<UnitRef, double> completion_vt_;
  double last_completion_vt_ = 0;
  MigrationStats stats_;
};

}  // namespace unimem::rt
