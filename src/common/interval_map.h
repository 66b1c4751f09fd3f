// Interval map from half-open address ranges to values.  Used to attribute
// sampled miss addresses back to registered data objects, mirroring how a
// real profiler maps PEBS linear addresses onto tracked allocations.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

namespace unimem {

/// Maps non-overlapping half-open ranges [lo, hi) -> T.
/// Insertion of an overlapping range is rejected (returns false).
template <typename T>
class IntervalMap {
 public:
  bool insert(std::uint64_t lo, std::uint64_t hi, T value) {
    if (lo >= hi) return false;
    // Find the first interval whose start is >= lo; the previous interval
    // (if any) must end at or before lo for no overlap.
    auto next = map_.lower_bound(lo);
    if (next != map_.end() && next->first < hi) return false;
    if (next != map_.begin()) {
      auto prev = std::prev(next);
      if (prev->second.hi > lo) return false;
    }
    map_.emplace(lo, Entry{hi, std::move(value)});
    return true;
  }

  /// Remove the interval starting exactly at `lo`. Returns true if removed.
  bool erase(std::uint64_t lo) { return map_.erase(lo) > 0; }

  /// Look up the value covering address `addr`, if any.
  std::optional<T> find(std::uint64_t addr) const {
    auto it = map_.upper_bound(addr);
    if (it == map_.begin()) return std::nullopt;
    --it;
    if (addr < it->second.hi) return it->second.value;
    return std::nullopt;
  }

  /// Invoke `fn(value)` for every interval intersecting [lo, hi).
  template <typename F>
  void for_each_overlapping(std::uint64_t lo, std::uint64_t hi, F&& fn) const {
    if (lo >= hi) return;
    auto it = map_.upper_bound(lo);
    if (it != map_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.hi > lo) fn(prev->second.value);
    }
    for (; it != map_.end() && it->first < hi; ++it) fn(it->second.value);
  }

  std::size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }

 private:
  struct Entry {
    std::uint64_t hi;
    T value;
  };
  std::map<std::uint64_t, Entry> map_;
};

}  // namespace unimem
