// Target data objects.
//
// Paper §3: "Unimem directs data placement for data objects (e.g., multi-
// dimensional arrays).  The data objects must be allocated using certain
// Unimem APIs by the programmer."  A handle stays valid across migrations:
// the runtime repoints it after moving the payload (§3.3), and aliases
// registered by the programmer are repointed too.
//
// Large chunkable objects are split into independently placeable chunks
// (§3.2 "Handling large data objects"); every object has at least one chunk.
//
// Objects and chunks are plain data owned by one rank's thread, through its
// Registry (see registry.h): Unimem's helper thread is modeled in virtual
// time (core/migration.h), so nothing else reads or repoints a chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "simmem/hetero_memory.h"

namespace unimem::rt {

using ObjectId = std::uint32_t;
inline constexpr ObjectId kInvalidObject = ~ObjectId{0};

/// Chunk layout constants.  Chunkable objects above the threshold are
/// ALWAYS stored in kChunkBytes chunks, under every policy and option, so
/// the data layout (and thus workload checksums) is policy-invariant.  The
/// one chunking switch, RuntimeOptions::enable_chunking (the Fig. 11
/// ablation), only decides whether the *planner* may place chunks
/// independently.
inline constexpr std::size_t kChunkBytes = std::size_t{1} << 20;      // 1 MiB
inline constexpr std::size_t kChunkThreshold = std::size_t{2} << 20;  // 2 MiB

/// Chunk size to use at allocation: 0 (unchunked) or kChunkBytes.
constexpr std::size_t chunk_bytes_for(bool chunkable, std::size_t bytes) {
  return chunkable && bytes > kChunkThreshold ? kChunkBytes : 0;
}

/// Per-object knowledge the programmer can provide at allocation time.
struct ObjectTraits {
  /// May the runtime split this object into chunks?  Per the paper we are
  /// conservative: only 1-D arrays with regular references qualify (memory
  /// aliasing makes chunking unsafe otherwise, e.g. MG).
  bool chunkable = false;
  /// Compiler-style symbolic estimate of the number of memory references
  /// (evaluated before the main loop); < 0 means "unknown at loop entry",
  /// e.g. iteration counts decided by a convergence test.  Drives initial
  /// data placement (§3.2).
  double estimated_references = -1.0;
};

/// One migratable unit: either a whole object or one chunk of it.
struct Chunk {
  void* ptr = nullptr;
  std::size_t bytes = 0;
  mem::Tier tier = mem::Tier::kNvm;

  mem::Tier current_tier() const { return tier; }
  void* data() const { return ptr; }
};

class DataObject {
 public:
  DataObject(ObjectId id, std::string name, std::size_t bytes,
             ObjectTraits traits)
      : id_(id), name_(std::move(name)), bytes_(bytes), traits_(traits) {}

  ObjectId id() const { return id_; }
  const std::string& name() const { return name_; }
  std::size_t bytes() const { return bytes_; }
  const ObjectTraits& traits() const { return traits_; }

  std::size_t chunk_count() const { return chunks_.size(); }
  Chunk& chunk(std::size_t i) { return chunks_[i]; }
  const Chunk& chunk(std::size_t i) const { return chunks_[i]; }

  /// Typed view of chunk `i`'s payload.  The span stays valid until the
  /// owning rank reaches its next phase boundary: migrations run only on
  /// that rank's thread, at boundaries, and copy the payload before they
  /// return.
  template <typename T>
  std::span<T> chunk_span(std::size_t i) {
    Chunk& c = chunks_[i];
    return {static_cast<T*>(c.data()), c.bytes / sizeof(T)};
  }

  /// Typed view of the whole payload; only valid for single-chunk objects.
  template <typename T>
  std::span<T> as_span() {
    return chunk_span<T>(0);
  }

 private:
  friend class Registry;
  ObjectId id_;
  std::string name_;
  std::size_t bytes_;
  ObjectTraits traits_;
  /// Reserved to the final count in Registry::create, so a Chunk& stays
  /// valid for the object's lifetime.
  std::vector<Chunk> chunks_;
  /// Programmer-registered aliases repointed on migration (whole-object,
  /// offset 0 — matching the paper's unimem_malloc alias registration).
  std::vector<void**> aliases_;
};

/// Identifies a migratable unit inside the registry.
struct UnitRef {
  ObjectId object = kInvalidObject;
  std::uint32_t chunk = 0;

  bool operator==(const UnitRef&) const = default;
  bool operator<(const UnitRef& o) const {
    return object != o.object ? object < o.object : chunk < o.chunk;
  }
};

}  // namespace unimem::rt
