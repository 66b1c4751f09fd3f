#include "simmem/arena.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/units.h"

namespace unimem::mem {

class Arena::Pool {
 public:
  static Pool& instance() {
    // Never destroyed, so an arena that outlives static destruction can
    // still return its buffer; the idle buffers stay reachable from here.
    static Pool* const pool = new Pool;
    return *pool;
  }

  /// The smallest idle buffer of `name` holding `bytes`, or a fresh one
  /// after dropping the largest idle buffer of `name` (all too small).
  Buffer take(const std::string& name, std::size_t bytes,
              std::size_t* buffer_bytes) {
    Buffer dropped;
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto& idle = idle_[name];
      if (auto it = idle.lower_bound(bytes); it != idle.end()) {
        auto node = idle.extract(it);
        *buffer_bytes = node.key();
        return std::move(node.mapped());
      }
      if (!idle.empty())
        dropped = std::move(idle.extract(std::prev(idle.end())).mapped());
    }
    dropped.reset();
    *buffer_bytes = bytes;
    return Buffer(static_cast<std::byte*>(std::malloc(bytes)));
  }

  void give(const std::string& name, std::size_t bytes, Buffer b) {
    std::lock_guard<std::mutex> lk(mu_);
    idle_[name].emplace(bytes, std::move(b));
  }

  std::size_t idle(const std::string& name) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = idle_.find(name);
    return it == idle_.end() ? 0 : it->second.size();
  }

 private:
  std::mutex mu_;
  /// pool name -> idle buffers by size.
  std::map<std::string, std::multimap<std::size_t, Buffer>> idle_;
};

Arena::Arena(std::size_t capacity, std::string pool_name)
    : pool_name_(std::move(pool_name)),
      capacity_(align_up(capacity, kCacheLine)),
      buffer_(Pool::instance().take(pool_name_, capacity_ + kCacheLine,
                                    &buffer_bytes_)) {
  if (buffer_ == nullptr) {
    std::fprintf(stderr, "Arena: cannot reserve %zu bytes\n", capacity_);
    std::abort();
  }
  // Start the usable region at a 64-byte-aligned offset inside the buffer.
  auto base = reinterpret_cast<std::uintptr_t>(buffer_.get());
  base_shift_ = align_up(base, kCacheLine) - base;
  free_.emplace(0, capacity_);
}

Arena::~Arena() {
  Pool::instance().give(pool_name_, buffer_bytes_, std::move(buffer_));
}

std::size_t Arena::idle_buffers(const std::string& pool_name) {
  return Pool::instance().idle(pool_name);
}

void* Arena::allocate(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  bytes = align_up(bytes, kCacheLine);
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second >= bytes) {
      std::size_t off = it->first;
      std::size_t len = it->second;
      free_.erase(it);
      if (len > bytes) free_.emplace(off + bytes, len - bytes);
      live_.emplace(off, bytes);
      used_ += bytes;
      if (used_ > peak_) peak_ = used_;
      return buffer_.get() + base_shift_ + off;
    }
  }
  return nullptr;
}

void Arena::deallocate(void* p) {
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto off = static_cast<std::size_t>(static_cast<std::byte*>(p) -
                                      (buffer_.get() + base_shift_));
  auto it = live_.find(off);
  if (it == live_.end()) {
    std::fprintf(stderr, "Arena::deallocate: pointer not owned by arena\n");
    std::abort();
  }
  std::size_t len = it->second;
  live_.erase(it);
  used_ -= len;
  // Insert into the free map and coalesce with neighbours.
  auto [fit, ok] = free_.emplace(off, len);
  (void)ok;
  // Coalesce with next block.
  auto next = std::next(fit);
  if (next != free_.end() && fit->first + fit->second == next->first) {
    fit->second += next->second;
    free_.erase(next);
  }
  // Coalesce with previous block.
  if (fit != free_.begin()) {
    auto prev = std::prev(fit);
    if (prev->first + prev->second == fit->first) {
      prev->second += fit->second;
      free_.erase(fit);
    }
  }
}

bool Arena::contains(const void* p) const {
  auto* b = static_cast<const std::byte*>(p);
  const std::byte* lo = buffer_.get() + base_shift_;
  return b >= lo && b < lo + capacity_;
}

std::size_t Arena::used() const {
  std::lock_guard<std::mutex> lk(mu_);
  return used_;
}

std::size_t Arena::peak_used() const {
  std::lock_guard<std::mutex> lk(mu_);
  return peak_;
}

std::size_t Arena::free_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return capacity_ - used_;
}

std::size_t Arena::live_blocks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_.size();
}

std::size_t Arena::largest_free_block() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t best = 0;
  for (const auto& [off, len] : free_)
    if (len > best) best = len;
  return best;
}

}  // namespace unimem::mem
