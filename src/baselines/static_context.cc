#include "baselines/static_context.h"

#include <algorithm>
#include <new>
#include <stdexcept>

namespace unimem::baseline {

PlacementFn nvm_only() {
  return [](const std::string&, std::size_t) { return mem::Tier::kNvm; };
}

PlacementFn manual(std::vector<std::string> dram_names) {
  return [names = std::move(dram_names)](const std::string& n, std::size_t) {
    return std::find(names.begin(), names.end(), n) != names.end()
               ? mem::Tier::kDram
               : mem::Tier::kNvm;
  };
}

StaticContext::StaticContext(StaticContextOptions opts,
                             mem::HeteroMemory* hms,
                             mem::DramArbiter* arbiter, mpi::Comm* comm,
                             PlacementFn placement)
    : opts_(opts), comm_(comm), placement_(std::move(placement)) {
  if (comm_ == nullptr)
    throw std::invalid_argument("StaticContext: comm must not be nullptr");
  if (opts_.use_exact_cache)
    cache_ = std::make_unique<cache::ExactCache>(opts_.cache);
  else
    cache_ = std::make_unique<cache::AnalyticCache>(opts_.cache);
  registry_ = std::make_unique<rt::Registry>(hms, arbiter);
  engine_ =
      std::make_unique<rt::ExecEngine>(hms, cache_.get(), opts_.timing);
}

double StaticContext::now() const { return comm_->clock().now(); }

rt::DataObject* StaticContext::malloc_object(const std::string& name,
                                             std::size_t bytes,
                                             rt::ObjectTraits traits) {
  mem::Tier t = placement_(name, bytes);
  // A PlacementFn answers in the paper's 2-tier vocabulary; on an N-tier
  // machine its "NVM" answer means the unconstrained backstop (identical on
  // 2-tier, where the backstop IS kNvm).
  const mem::Tier backstop = registry_->hms().backstop_tier();
  if (t == mem::Tier::kNvm) t = backstop;
  // Same chunk layout as the Unimem runtime => identical data layout and
  // checksums across policies.  A DRAM placement that exceeds the node
  // allowance falls back to the backstop (as a real tiering allocator
  // would).
  rt::DataObject* obj = nullptr;
  try {
    obj = registry_->create(name, bytes, traits, t,
                            rt::chunk_bytes_for(traits.chunkable, bytes));
  } catch (const std::bad_alloc&) {
    if (t != backstop) {
      obj = registry_->create(name, bytes, traits, backstop,
                              rt::chunk_bytes_for(traits.chunkable, bytes));
    } else {
      throw;
    }
  }
  names_[obj->id()] = name;
  if (opts_.record_profile) profiles_[name].bytes = bytes;
  return obj;
}

void StaticContext::free_object(rt::DataObject* obj) {
  if (obj != nullptr) registry_->destroy(obj->id());
}

void StaticContext::compute(const rt::PhaseWork& work) {
  rt::PhaseExec exec = engine_->run(work);
  comm_->clock().advance(exec.total_s());

  if (opts_.record_profile) {
    // Offline trace collection: exact per-object counts, as PIN would see.
    for (const auto& [unit, res] : exec.unit_results) {
      auto it = names_.find(unit.object);
      if (it == names_.end()) continue;
      ObjectProfile& p = profiles_[it->second];
      p.misses += res.misses;
      p.serialized_misses += res.serialized_misses;
    }
    // Pattern attribution from the submitted work (trace analysis):
    // unit_results can split an access into chunks, so patterns come from
    // the object access list.
    for (const rt::ObjectAccess& a : work.accesses) {
      if (a.object == nullptr) continue;
      auto it = names_.find(a.object->id());
      if (it == names_.end()) continue;
      profiles_[it->second].misses_by_pattern[a.pattern] += a.accesses;
    }
  }
}

}  // namespace unimem::baseline
