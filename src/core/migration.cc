#include "core/migration.h"

#include <algorithm>

#include "trace/trace.h"

namespace unimem::rt {

void MigrationEngine::enqueue_batch(const std::vector<Item>& items) {
  std::deque<Request> ready;
  for (const Item& it : items) {
    UNIMEM_TRACE_INSTANT2("migration", "enqueue", it.enqueue_vt, "object",
                          it.unit.object, "chunk", it.unit.chunk);
    ready.push_back(Request{it.unit, it.to, it.enqueue_vt, 2});
  }
  process(std::move(ready));
}

void MigrationEngine::process(std::deque<Request> ready) {
  // Earlier deferred requests rejoin behind the new batch: the batch's
  // evictions run first, exactly the ordering the wrap case needs.
  for (Request& d : deferred_) ready.push_back(d);
  deferred_.clear();

  bool progress = false;
  for (;;) {
    if (ready.empty()) {
      // Retry wave: anything deferred in this call gets another look as
      // long as the previous wave moved at least one unit (and thereby
      // freed space somewhere).
      if (!progress || deferred_.empty()) break;
      progress = false;
      for (Request& d : deferred_) ready.push_back(d);
      deferred_.clear();
    }
    Request req = ready.front();
    ready.pop_front();

    const mem::Tier from = registry_->unit_tier(req.unit);
    double done_vt = std::max(req.enqueue_vt, last_completion_vt_);
    if (from != req.to) {
      const std::size_t bytes = registry_->unit_bytes(req.unit);
      // Wall-clock-only span (vt < 0): the physical copy has no virtual
      // timestamp of its own — its modeled cost is charged below.  A move
      // whose destination is full is a short span of its own.
      UNIMEM_TRACE_BEGIN2("migration", "copy", -1.0, "object", req.unit.object,
                          "bytes", bytes);
      const bool moved = registry_->migrate(req.unit, req.to);
      UNIMEM_TRACE_END("migration", "copy", -1.0);
      if (moved) {
        const double copy_s = registry_->hms().copy_seconds(bytes, from, req.to);
        done_vt += copy_s;
        ++stats_.migrations;
        stats_.bytes_moved += bytes;
        stats_.copy_time_s += copy_s;
        progress = true;
        UNIMEM_TRACE_INSTANT2("migration", "commit", done_vt, "object",
                              req.unit.object, "bytes", bytes);
      } else if (req.retries_left > 0) {
        // Destination full: a later request may free the space (an
        // eviction ordered after us); try again behind it.
        --req.retries_left;
        deferred_.push_back(req);
        continue;  // not decided yet: no completion recorded
      } else {
        ++stats_.failed;
      }
    }
    last_completion_vt_ = std::max(last_completion_vt_, done_vt);
    completion_vt_[req.unit] = done_vt;
  }
}

double MigrationEngine::wait_for(UnitRef unit) const {
  auto it = completion_vt_.find(unit);
  return it == completion_vt_.end() ? 0.0 : it->second;
}

double MigrationEngine::drain() {
  // No further batches are coming: still-deferred requests resolve
  // terminally (and deterministically) as failed moves.
  for (const Request& req : deferred_) {
    ++stats_.failed;
    const double done_vt = std::max(req.enqueue_vt, last_completion_vt_);
    last_completion_vt_ = std::max(last_completion_vt_, done_vt);
    completion_vt_[req.unit] = done_vt;
  }
  deferred_.clear();
  return last_completion_vt_;
}

void MigrationEngine::add_exposed_wait(double seconds) {
  stats_.exposed_wait_s += seconds;
}

MigrationStats MigrationEngine::stats() const { return stats_; }

}  // namespace unimem::rt
