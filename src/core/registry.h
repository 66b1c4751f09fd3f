// Object registry: owns all target data objects of one rank, performs the
// actual tier allocations, maintains the address->unit attribution map the
// profiler uses to map sampled miss addresses back to objects, and performs
// migrations (allocate in destination tier, copy payload, repoint handle
// and registered aliases, free source).
//
// Ownership: one rank's thread.  A Registry belongs to one Runtime or
// StaticContext, which its rank builds on its own thread; the workload,
// the PMPI hooks (Comm::pre/post run on the calling rank) and the
// MigrationEngine (a serial FIFO in virtual time, no host thread) all call
// it from that thread.  So it holds no lock, and calling it from a second
// thread is a data race.  What ranks of one node do share keeps its own
// lock: the HeteroMemory arenas (and their process-wide buffer pool) that
// allocate_in/release_in reach, and the DramArbiter.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/interval_map.h"
#include "core/object.h"
#include "simmem/dram_arbiter.h"
#include "simmem/hetero_memory.h"

namespace unimem::rt {

class Registry {
 public:
  /// `arbiter` is the node-level DRAM space service shared by all ranks on
  /// the node; may be nullptr for single-rank tools (then only the local
  /// arena bounds DRAM use).
  Registry(mem::HeteroMemory* hms, mem::DramArbiter* arbiter);
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Allocate a target object in `initial` tier.  If `chunk_bytes` > 0 and
  /// the object is chunkable and larger than chunk_bytes, it is split into
  /// ceil(bytes/chunk_bytes) chunks.  Throws std::bad_alloc when the tier
  /// cannot hold the payload.
  DataObject* create(const std::string& name, std::size_t bytes,
                     ObjectTraits traits, mem::Tier initial,
                     std::size_t chunk_bytes = 0);

  /// Free an object and all its chunks.
  void destroy(ObjectId id);

  /// Register a programmer-visible alias pointer to be repointed on moves.
  void add_alias(ObjectId id, void** alias);

  /// Move one unit to `to`: allocate in the destination, copy the
  /// payload, repoint the chunk, its aliases and the address map, and free
  /// the source.  Returns false (no state change) when the destination
  /// cannot hold it (arena full or arbiter refuses).
  bool migrate(UnitRef unit, mem::Tier to);

  /// Attribute a sampled miss address to a unit, if it belongs to one.
  std::optional<UnitRef> attribute(std::uint64_t addr) const;

  /// The live object `id`; nullptr once it is destroyed.
  DataObject* get(ObjectId id);
  std::size_t unit_bytes(UnitRef u) const;
  mem::Tier unit_tier(UnitRef u) const;

  /// unit_bytes for possibly-stale refs (e.g. a plan inspected after the
  /// app freed its objects): 0 when the unit no longer exists.
  std::size_t try_unit_bytes(UnitRef u) const;

  /// Every unit whose mapped range intersects [lo, hi).
  std::vector<UnitRef> units_overlapping(std::uint64_t lo,
                                         std::uint64_t hi) const;

  /// All units, in (object, chunk) order.
  std::vector<UnitRef> all_units() const;

  mem::HeteroMemory& hms() { return *hms_; }
  const mem::HeteroMemory& hms() const { return *hms_; }
  mem::DramArbiter* arbiter() { return arbiter_; }

  /// Total bytes currently resident in `t` across registered units.
  std::size_t resident_bytes(mem::Tier t) const;

 private:
  void map_unit(const Chunk& c, UnitRef ref);
  void unmap_unit(const Chunk& c);
  void* allocate_in(mem::Tier t, std::size_t bytes);
  void release_in(mem::Tier t, void* p, std::size_t bytes);

  mem::HeteroMemory* hms_;
  mem::DramArbiter* arbiter_;
  std::vector<std::unique_ptr<DataObject>> objects_;
  IntervalMap<UnitRef> addr_map_;
};

}  // namespace unimem::rt
