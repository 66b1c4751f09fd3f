// Static-placement execution context: objects are placed once, at
// allocation, by a policy function, and never move.  Implements the same
// Context interface as the Unimem runtime and times phases through the
// same ExecEngine, so DRAM-only / NVM-only / manual / X-Men placements are
// directly comparable with Unimem.
//
// Optionally records per-object ground-truth access aggregates — the
// equivalent of the PIN-based offline profiling pass X-Men (Dulloor et
// al., EuroSys'16) relies on.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "core/context.h"
#include "core/exec_engine.h"
#include "core/registry.h"
#include "minimpi/comm.h"
#include "simcache/analytic_cache.h"
#include "simcache/exact_cache.h"

namespace unimem::baseline {

/// Decides the tier of an object at allocation time.
using PlacementFn =
    std::function<mem::Tier(const std::string& name, std::size_t bytes)>;

/// Everything in NVM.
PlacementFn nvm_only();
/// Objects whose name is in `dram_names` go to DRAM, the rest to NVM.
PlacementFn manual(std::vector<std::string> dram_names);

/// Ground-truth per-object aggregate collected by the offline profile pass.
struct ObjectProfile {
  std::uint64_t misses = 0;
  double serialized_misses = 0;
  std::uint64_t bytes = 0;  ///< object size
  /// Misses by access pattern, to classify streaming / pointer-chasing /
  /// random the way X-Men's trace analysis does.
  std::map<cache::Pattern, std::uint64_t> misses_by_pattern;

  cache::Pattern dominant_pattern() const {
    cache::Pattern best = cache::Pattern::kSequential;
    std::uint64_t n = 0;
    for (auto& [p, m] : misses_by_pattern)
      if (m > n) { n = m; best = p; }
    return best;
  }
};

struct StaticContextOptions {
  bool use_exact_cache = false;
  cache::CacheConfig cache{};
  clk::TimingParams timing{};
  /// Record ground-truth object profiles (the offline profiling pass).
  bool record_profile = false;
};

class StaticContext final : public rt::Context {
 public:
  /// `comm` is the rank's communicator, whose clock this context advances;
  /// it must not be nullptr (std::invalid_argument).  `arbiter` may be
  /// nullptr.
  StaticContext(StaticContextOptions opts, mem::HeteroMemory* hms,
                mem::DramArbiter* arbiter, mpi::Comm* comm,
                PlacementFn placement);
  ~StaticContext() override = default;

  rt::DataObject* malloc_object(const std::string& name, std::size_t bytes,
                                rt::ObjectTraits traits) override;
  void free_object(rt::DataObject* obj) override;
  void start() override {}
  void iteration_begin() override {}
  void end() override { end_vt_ = now(); }
  void compute(const rt::PhaseWork& work) override;
  mpi::Comm* comm() override { return comm_; }
  double now() const override;

  rt::Registry& registry() { return *registry_; }
  const std::map<std::string, ObjectProfile>& profiles() const {
    return profiles_;
  }
  double total_time_s() const { return end_vt_ > 0 ? end_vt_ : now(); }

 private:
  StaticContextOptions opts_;
  mpi::Comm* comm_;
  std::unique_ptr<cache::CacheModel> cache_;
  std::unique_ptr<rt::Registry> registry_;
  std::unique_ptr<rt::ExecEngine> engine_;
  PlacementFn placement_;
  std::map<std::string, ObjectProfile> profiles_;
  std::map<rt::ObjectId, std::string> names_;
  double end_vt_ = 0;
};

}  // namespace unimem::baseline
