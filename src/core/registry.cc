#include "core/registry.h"

#include <cstring>
#include <new>
#include <stdexcept>

#include "common/units.h"

namespace unimem::rt {

Registry::Registry(mem::HeteroMemory* hms, mem::DramArbiter* arbiter)
    : hms_(hms), arbiter_(arbiter) {}

Registry::~Registry() {
  for (auto& obj : objects_) {
    if (!obj) continue;
    for (std::size_t i = 0; i < obj->chunk_count(); ++i) {
      Chunk& c = obj->chunk(i);
      if (c.data() != nullptr)
        release_in(c.current_tier(), c.data(), c.bytes);
    }
  }
}

void* Registry::allocate_in(mem::Tier t, std::size_t bytes) {
  // The arbiter meters constrained tiers only (tier 0 / DRAM on the paper's
  // 2-tier machine; every non-backstop tier on an N-tier one).
  if (arbiter_ != nullptr && arbiter_->constrains(mem::tier_index(t))) {
    if (!arbiter_->request_tier(mem::tier_index(t), bytes)) return nullptr;
    void* p = hms_->allocate(t, bytes);
    if (p == nullptr) arbiter_->release_tier(mem::tier_index(t), bytes);
    return p;
  }
  return hms_->allocate(t, bytes);
}

void Registry::release_in(mem::Tier t, void* p, std::size_t bytes) {
  hms_->deallocate(t, p);
  if (arbiter_ != nullptr) arbiter_->release_tier(mem::tier_index(t), bytes);
}

DataObject* Registry::create(const std::string& name, std::size_t bytes,
                             ObjectTraits traits, mem::Tier initial,
                             std::size_t chunk_bytes) {
  auto id = static_cast<ObjectId>(objects_.size());
  auto obj = std::make_unique<DataObject>(id, name, bytes, traits);

  std::size_t n_chunks = 1;
  if (traits.chunkable && chunk_bytes > 0 && bytes > chunk_bytes)
    n_chunks = (bytes + chunk_bytes - 1) / chunk_bytes;

  obj->chunks_.reserve(n_chunks);
  std::size_t remaining = bytes;
  for (std::size_t i = 0; i < n_chunks; ++i) {
    std::size_t sz = n_chunks == 1
                         ? bytes
                         : std::min(remaining, (bytes + n_chunks - 1) / n_chunks);
    remaining -= sz;
    const std::size_t aligned = align_up(sz, kCacheLine);
    void* p = allocate_in(initial, aligned);
    if (p == nullptr) {
      // Roll back everything allocated so far.
      for (const Chunk& c : obj->chunks_) {
        unmap_unit(c);
        release_in(c.current_tier(), c.data(), c.bytes);
      }
      throw std::bad_alloc();
    }
    std::memset(p, 0, aligned);
    obj->chunks_.push_back(Chunk{p, aligned, initial});
    map_unit(obj->chunks_.back(), UnitRef{id, static_cast<std::uint32_t>(i)});
  }

  objects_.push_back(std::move(obj));
  return objects_.back().get();
}

void Registry::destroy(ObjectId id) {
  auto& obj = objects_.at(id);
  if (!obj) return;
  for (std::size_t i = 0; i < obj->chunk_count(); ++i) {
    Chunk& c = obj->chunk(i);
    unmap_unit(c);
    release_in(c.current_tier(), c.data(), c.bytes);
  }
  obj.reset();
}

void Registry::add_alias(ObjectId id, void** alias) {
  auto& obj = objects_.at(id);
  obj->aliases_.push_back(alias);
  *alias = obj->chunk(0).data();
}

void Registry::map_unit(const Chunk& c, UnitRef ref) {
  auto lo = reinterpret_cast<std::uint64_t>(c.data());
  addr_map_.insert(lo, lo + c.bytes, ref);
}

void Registry::unmap_unit(const Chunk& c) {
  addr_map_.erase(reinterpret_cast<std::uint64_t>(c.data()));
}

bool Registry::migrate(UnitRef unit, mem::Tier to) {
  auto& obj = objects_.at(unit.object);
  Chunk& c = obj->chunk(unit.chunk);
  const mem::Tier from = c.current_tier();
  if (from == to) return true;

  void* dst = allocate_in(to, c.bytes);
  if (dst == nullptr) return false;
  void* src = c.data();
  std::memcpy(dst, src, c.bytes);

  unmap_unit(c);
  c.ptr = dst;
  c.tier = to;
  map_unit(c, unit);
  release_in(from, src, c.bytes);

  if (unit.chunk == 0)
    for (void** a : obj->aliases_) *a = dst;
  return true;
}

std::optional<UnitRef> Registry::attribute(std::uint64_t addr) const {
  return addr_map_.find(addr);
}

DataObject* Registry::get(ObjectId id) {
  return objects_.at(id).get();
}

std::size_t Registry::unit_bytes(UnitRef u) const {
  return objects_.at(u.object)->chunk(u.chunk).bytes;
}

std::size_t Registry::try_unit_bytes(UnitRef u) const {
  if (u.object >= objects_.size() || !objects_[u.object]) return 0;
  const DataObject& obj = *objects_[u.object];
  if (u.chunk >= obj.chunk_count()) return 0;
  return obj.chunk(u.chunk).bytes;
}

std::vector<UnitRef> Registry::units_overlapping(std::uint64_t lo,
                                                 std::uint64_t hi) const {
  std::vector<UnitRef> out;
  addr_map_.for_each_overlapping(lo, hi,
                                 [&](const UnitRef& u) { out.push_back(u); });
  return out;
}

mem::Tier Registry::unit_tier(UnitRef u) const {
  return objects_.at(u.object)->chunk(u.chunk).current_tier();
}

std::vector<UnitRef> Registry::all_units() const {
  std::vector<UnitRef> out;
  for (auto& o : objects_) {
    if (!o) continue;
    for (std::uint32_t c = 0; c < o->chunk_count(); ++c)
      out.push_back(UnitRef{o->id(), c});
  }
  return out;
}

std::size_t Registry::resident_bytes(mem::Tier t) const {
  std::size_t sum = 0;
  for (auto& o : objects_) {
    if (!o) continue;
    for (std::uint32_t c = 0; c < o->chunk_count(); ++c)
      if (o->chunk(c).current_tier() == t) sum += o->chunk(c).bytes;
  }
  return sum;
}

}  // namespace unimem::rt
