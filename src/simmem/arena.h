// First-fit free-list arena allocator over one contiguous buffer.
//
// The paper's user-level DRAM service uses "a simple memory allocator
// without consideration of memory allocation efficiency and fragmentation,
// because we expect that data movement should not be frequent".  This arena
// is that allocator: correct, thread-safe, O(#free-blocks) per operation.
//
// The paper's runtime sets its DRAM space up once, at unimem_init; the
// simulator builds a machine per World.  So an arena's buffer comes from a
// process-wide pool of idle buffers kept per pool name (HeteroMemory uses
// the tier name) and goes back to it when the arena is destroyed.  A
// buffer therefore never changes role, and the idle buffers of a name stay
// at most the peak number of that name's arenas alive at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace unimem::mem {

class Arena {
 public:
  /// An arena of `capacity` bytes (rounded up to a cache line) over the
  /// smallest idle buffer pooled under `pool_name` that holds it, or over
  /// a fresh buffer when none does.  The free list always starts as one
  /// block, so allocation offsets never depend on the buffer's history.
  explicit Arena(std::size_t capacity, std::string pool_name = {});
  /// Hands the buffer back to the pool under the arena's pool name.
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocate `bytes` (rounded up to cache-line multiple), 64-byte aligned.
  /// Returns nullptr when no free block fits.
  void* allocate(std::size_t bytes);

  /// Release a block previously returned by allocate().  Coalesces with
  /// free neighbours.  Passing a pointer not owned by this arena aborts.
  void deallocate(void* p);

  /// True if `p` lies inside this arena's buffer.
  bool contains(const void* p) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const;
  std::size_t peak_used() const;
  std::size_t free_bytes() const;
  /// Number of live allocations.
  std::size_t live_blocks() const;
  /// Largest single block currently allocatable.
  std::size_t largest_free_block() const;

  /// Idle buffers the pool holds under `pool_name` (an observer for tests).
  static std::size_t idle_buffers(const std::string& pool_name);

 private:
  struct FreeDeleter {
    void operator()(std::byte* p) const noexcept { std::free(p); }
  };
  using Buffer = std::unique_ptr<std::byte[], FreeDeleter>;
  class Pool;  ///< the process-wide idle buffers (arena.cc)

  std::string pool_name_;
  std::size_t capacity_;
  std::size_t buffer_bytes_ = 0;  ///< at least capacity_ + kCacheLine
  /// malloc'd, NOT value-initialized: an untouched tier costs no resident
  /// pages, so large simulated NVM tiers stay cheap on the host.  A pooled
  /// buffer keeps the pages its last user touched, and their bytes: every
  /// reader must write a block before reading it (Registry::create zeroes
  /// each chunk it places).
  Buffer buffer_;
  std::size_t base_shift_ = 0;  ///< offset of the aligned usable region
  mutable std::mutex mu_;
  // offset -> length, for free and live blocks respectively.
  std::map<std::size_t, std::size_t> free_;
  std::map<std::size_t, std::size_t> live_;
  std::size_t used_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace unimem::mem
