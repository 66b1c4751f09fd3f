#include "workloads/workload.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"

namespace unimem::wl {

DriftSchedule::DriftSchedule(const WorkloadConfig& cfg)
    : amplitude_(cfg.drift_amplitude),
      period_(std::max(1, cfg.drift_period)),
      seed_(cfg.drift_seed) {}

double DriftSchedule::factor(int iteration, std::size_t phase) const {
  if (amplitude_ <= 0) return 1.0;
  const std::uint64_t window =
      static_cast<std::uint64_t>(iteration < 0 ? 0 : iteration) /
      static_cast<std::uint64_t>(period_);
  // One independent draw per (window, phase): SplitMix64 seeded from the
  // pair, burning one output to decorrelate nearby seeds.
  Rng rng(seed_ ^ (window * 0x9e3779b97f4a7c15ull) ^
          (static_cast<std::uint64_t>(phase) * 0xbf58476d1ce4e5b9ull));
  rng.next();
  return std::max(0.05, 1.0 + amplitude_ * rng.uniform(-1.0, 1.0));
}

std::unique_ptr<Workload> make_cg();
std::unique_ptr<Workload> make_ft();
std::unique_ptr<Workload> make_bt();
std::unique_ptr<Workload> make_lu();
std::unique_ptr<Workload> make_sp();
std::unique_ptr<Workload> make_mg();
std::unique_ptr<Workload> make_nek();

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "cg") return make_cg();
  if (name == "ft") return make_ft();
  if (name == "bt") return make_bt();
  if (name == "lu") return make_lu();
  if (name == "sp") return make_sp();
  if (name == "mg") return make_mg();
  if (name == "nek") return make_nek();
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace unimem::wl
