#include "core/exec_engine.h"

#include <algorithm>

#include "common/units.h"

namespace unimem::rt {

double ExecEngine::mem_time(const cache::AccessResult& r,
                            const mem::TierConfig& tier,
                            double write_fraction) {
  const double bytes = static_cast<double>(r.bytes_from_memory());
  const double bw = 1.0 / ((1.0 - write_fraction) / tier.read_bw +
                           write_fraction / tier.write_bw);
  const double lat = (1.0 - write_fraction) * tier.read_latency_s +
                     write_fraction * tier.write_latency_s;
  return std::max(bytes / bw, r.serialized_misses * lat);
}

PhaseExec ExecEngine::run(const PhaseWork& work) const {
  PhaseExec out;
  out.compute_s = timing_.compute_seconds(work.flops);

  for (const ObjectAccess& a : work.accesses) {
    if (a.object == nullptr || a.accesses == 0) continue;
    DataObject& obj = *a.object;
    const std::size_t obj_bytes = obj.bytes();
    const std::size_t off = std::min(a.offset, obj_bytes);
    const std::size_t len =
        a.length == 0 ? obj_bytes - off : std::min(a.length, obj_bytes - off);
    if (len == 0) continue;

    // Split the logical range across the object's chunks; accesses are
    // apportioned by overlap so chunked and unchunked objects see the same
    // total traffic.
    std::size_t chunk_begin = 0;
    for (std::uint32_t ci = 0; ci < obj.chunk_count(); ++ci) {
      Chunk& c = obj.chunk(ci);
      const std::size_t c_lo = chunk_begin;
      const std::size_t c_hi = chunk_begin + c.bytes;
      chunk_begin = c_hi;
      const std::size_t lo = std::max(off, c_lo);
      const std::size_t hi = std::min(off + len, c_hi);
      if (lo >= hi) continue;
      const std::size_t part = hi - lo;

      cache::AccessDescriptor d;
      d.base = static_cast<std::byte*>(c.data()) + (lo - c_lo);
      d.region_bytes = part;
      d.pattern = a.pattern;
      d.accesses = static_cast<std::uint64_t>(
          static_cast<double>(a.accesses) * static_cast<double>(part) /
          static_cast<double>(len));
      if (d.accesses == 0) continue;
      d.access_bytes = a.access_bytes;
      d.stride_bytes = a.stride_bytes;
      d.write_fraction = a.write_fraction;
      d.mlp = a.mlp;
      d.seed = (static_cast<std::uint64_t>(obj.id()) << 20) ^ ci;
      d.logical_bytes = len;  // the whole traversal, not just this chunk

      cache::AccessResult r = cache_->process(d, timing_.default_mlp);
      const mem::TierConfig& tier = hms_->tier_config(c.current_tier());
      const double t = mem_time(r, tier, a.write_fraction);
      out.mem_s += t;
      out.windows.push_back(perf::MemWindow{
          reinterpret_cast<std::uint64_t>(d.base), part, r.misses, t});
      out.unit_results.emplace_back(UnitRef{obj.id(), ci}, r);
    }
  }
  return out;
}

}  // namespace unimem::rt
