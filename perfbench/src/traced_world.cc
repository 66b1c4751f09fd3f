#include "traced_world.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/static_context.h"
#include "core/runtime.h"
#include "minimpi/comm.h"
#include "simmem/dram_arbiter.h"
#include "simmem/hetero_memory.h"
#include "simmem/tier_config.h"
#include "workloads/workload.h"

namespace perfbench {

namespace exp = unimem::exp;
namespace mem = unimem::mem;
namespace mpi = unimem::mpi;
namespace rt = unimem::rt;
using unimem::kMiB;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ContextLedger::add(const ContextLedger& o) {
  ctor_ns += o.ctor_ns;
  dtor_ns += o.dtor_ns;
  malloc_ns += o.malloc_ns;
  free_ns += o.free_ns;
  start_ns += o.start_ns;
  iter_begin_ns += o.iter_begin_ns;
  compute_ns += o.compute_ns;
  end_ns += o.end_ns;
  phase_hook_ns += o.phase_hook_ns;
  malloc_calls += o.malloc_calls;
  compute_calls += o.compute_calls;
}

void RankLedger::add(const RankLedger& o) {
  ctx.add(o.ctx);
  op_ns += o.op_ns;
  ops += o.ops;
  comm_ops += o.comm_ops;
  init_ns += o.init_ns;
  init_minflt += o.init_minflt;
  kernel_ns += o.kernel_ns;
  body_ns += o.body_ns;
}

namespace {

/// Minor page faults of the calling thread so far.
std::uint64_t thread_minflt() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

/// Timing decorator around a rank's context, doubling as the rank's PMPI
/// hook shim.  Time between two instrumented calls is the workload's own
/// code: `init` before start(), `kernel` after it.
class TimedContext final : public rt::Context, public mpi::PmpiHooks {
 public:
  TimedContext(rt::Context& inner, mpi::PmpiHooks* inner_hooks,
               mpi::Comm& comm, RankLedger& ledger)
      : inner_(inner), inner_hooks_(inner_hooks), comm_(comm), l_(ledger) {
    comm_.set_hooks(this);
    last_exit_ = now_ns();
    last_exit_minflt_ = thread_minflt();
  }
  ~TimedContext() override {
    comm_.set_hooks(inner_hooks_);
  }
  TimedContext(const TimedContext&) = delete;
  TimedContext& operator=(const TimedContext&) = delete;

  rt::DataObject* malloc_object(const std::string& name, std::size_t bytes,
                                rt::ObjectTraits traits) override {
    const std::int64_t t0 = enter();
    rt::DataObject* obj = inner_.malloc_object(name, bytes, traits);
    leave(t0, &l_.ctx.malloc_ns);
    ++l_.ctx.malloc_calls;
    return obj;
  }
  void free_object(rt::DataObject* obj) override {
    const std::int64_t t0 = enter();
    inner_.free_object(obj);
    leave(t0, &l_.ctx.free_ns);
  }
  void start() override {
    const std::int64_t t0 = enter();
    started_ = true;
    inner_.start();
    leave(t0, &l_.ctx.start_ns);
  }
  void iteration_begin() override {
    const std::int64_t t0 = enter();
    inner_.iteration_begin();
    leave(t0, &l_.ctx.iter_begin_ns);
  }
  void end() override {
    const std::int64_t t0 = enter();
    inner_.end();
    leave(t0, &l_.ctx.end_ns);
  }
  void compute(const rt::PhaseWork& work) override {
    const std::int64_t t0 = enter();
    inner_.compute(work);
    leave(t0, &l_.ctx.compute_ns);
    ++l_.ctx.compute_calls;
  }
  mpi::Comm* comm() override { return inner_.comm(); }
  double now() const override { return inner_.now(); }

  void on_pre_op(const mpi::OpInfo& info) override {
    const std::int64_t t0 = enter();
    ++l_.ops;
    if (inner_hooks_ != nullptr) inner_hooks_->on_pre_op(info);
    op_begin_ = now_ns();
    l_.ctx.phase_hook_ns += static_cast<double>(op_begin_ - t0);
  }
  void on_post_op(const mpi::OpInfo& info) override {
    const std::int64_t t0 = now_ns();
    l_.op_ns += static_cast<double>(t0 - op_begin_);
    if (inner_hooks_ != nullptr) inner_hooks_->on_post_op(info);
    leave(t0, &l_.ctx.phase_hook_ns);
  }

  /// Close the trailing gap when the workload's run_rank returns.
  void finish() { (void)enter(); }

 private:
  std::int64_t enter() {
    const std::int64_t t = now_ns();
    const auto gap = static_cast<double>(t - last_exit_);
    if (started_) {
      l_.kernel_ns += gap;
    } else {
      l_.init_ns += gap;
      l_.init_minflt += thread_minflt() - last_exit_minflt_;
    }
    return t;
  }
  void leave(std::int64_t t0, double* bucket) {
    last_exit_ = now_ns();
    *bucket += static_cast<double>(last_exit_ - t0);
    if (!started_) last_exit_minflt_ = thread_minflt();
  }

  rt::Context& inner_;
  mpi::PmpiHooks* inner_hooks_;
  mpi::Comm& comm_;
  RankLedger& l_;
  bool started_ = false;
  std::int64_t last_exit_ = 0;
  std::uint64_t last_exit_minflt_ = 0;
  std::int64_t op_begin_ = 0;
};

struct Node {
  std::unique_ptr<mem::HeteroMemory> hms;
  std::unique_ptr<mem::DramArbiter> arbiter;
};

// The per-node memory systems exactly as exp::run_once builds them
// (src/experiments/runner.cc, make_nodes); the bitwise result check in the
// driver fails if the two drift apart.
std::vector<Node> make_nodes(const exp::RunConfig& cfg,
                             bool dram_speed_everywhere) {
  const int nnodes =
      (cfg.wcfg.nranks + cfg.ranks_per_node - 1) / cfg.ranks_per_node;
  const std::size_t nvm_cap =
      static_cast<std::size_t>(cfg.ranks_per_node) *
      (2 * cfg.wcfg.rank_bytes() + 32 * kMiB);
  const std::size_t dram_arena = 2 * cfg.dram_capacity + 4 * kMiB;
  std::vector<Node> nodes(static_cast<std::size_t>(nnodes));
  if (!cfg.tiers.empty() && !dram_speed_everywhere) {
    mem::TopologyConfig topo = mem::parse_topology(cfg.tiers);
    std::vector<std::size_t> allowances(topo.num_tiers(),
                                        mem::DramArbiter::kUnbounded);
    for (std::size_t k = 0; k + 1 < topo.num_tiers(); ++k) {
      allowances[k] = topo.tiers[k].capacity_bytes;
      topo.tiers[k].capacity_bytes =
          2 * topo.tiers[k].capacity_bytes + 4 * kMiB;
    }
    topo.tiers.back().capacity_bytes =
        std::max(topo.tiers.back().capacity_bytes, nvm_cap);
    for (auto& n : nodes) {
      n.hms = std::make_unique<mem::HeteroMemory>(topo);
      n.arbiter = std::make_unique<mem::DramArbiter>(allowances);
    }
    return nodes;
  }
  for (auto& n : nodes) {
    const mem::HmsConfig hc =
        dram_speed_everywhere
            ? mem::HmsConfig{mem::TierConfig::dram_basis(dram_arena),
                             mem::TierConfig::nvm_scaled(nvm_cap, 1.0, 1.0)}
            : mem::HmsConfig{
                  mem::TierConfig::dram_basis(dram_arena),
                  mem::TierConfig::nvm_scaled(nvm_cap, cfg.nvm_bw_ratio,
                                              cfg.nvm_lat_mult)};
    n.hms = std::make_unique<mem::HeteroMemory>(hc);
    n.arbiter = std::make_unique<mem::DramArbiter>(cfg.dram_capacity);
  }
  return nodes;
}

/// One rank body: the context made by `make` is built, wrapped, run and
/// destroyed with every step timed.  Returns the rank's checksum and
/// stores its virtual end time (taken while the context is alive, as
/// exp::run_once does).
template <typename Ctx, typename Make>
double run_rank_timed(const exp::RunConfig& cfg, mpi::Comm& comm,
                      RankLedger& l, const Make& make, double* time_out,
                      rt::RuntimeStats* stats_out) {
  constexpr bool kRuntime = std::is_same_v<Ctx, rt::Runtime>;
  auto workload = unimem::wl::make_workload(cfg.workload);
  std::int64_t t0 = now_ns();
  std::unique_ptr<Ctx> ctx = make();
  l.ctx.ctor_ns += static_cast<double>(now_ns() - t0);
  double sum = 0;
  {
    mpi::PmpiHooks* hooks = nullptr;
    if constexpr (kRuntime) hooks = ctx.get();
    TimedContext timed(*ctx, hooks, comm, l);
    sum = workload->run_rank(timed, cfg.wcfg);
    timed.finish();
  }
  l.comm_ops = comm.op_count();
  if constexpr (kRuntime) *stats_out = ctx->stats();
  *time_out = comm.clock().now();
  t0 = now_ns();
  ctx.reset();
  l.ctx.dtor_ns += static_cast<double>(now_ns() - t0);
  return sum;
}

}  // namespace

exp::RunResult traced_run_once(const exp::RunConfig& cfg,
                               WorldLedger* ledger) {
  if (cfg.policy == exp::Policy::kXMen)
    throw std::invalid_argument(
        "traced_run_once: X-Men runs two passes; no benchmark workload "
        "uses it");
  WorldLedger& L = *ledger;
  const int n = cfg.wcfg.nranks;
  const auto un = static_cast<std::size_t>(n);
  L.runtime = cfg.policy == exp::Policy::kUnimem;
  L.nranks = n;

  const std::int64_t w0 = now_ns();
  const std::uint64_t f0 = thread_minflt();
  auto nodes = make_nodes(cfg, cfg.policy == exp::Policy::kDramOnly);
  auto world = std::make_unique<mpi::World>(n, cfg.net, cfg.ranks_per_node);
  const std::int64_t w1 = now_ns();
  L.setup_minflt = thread_minflt() - f0;

  std::vector<RankLedger> ranks(un);
  std::vector<std::int64_t> body_begin(un, 0), body_end(un, 0);
  std::vector<rt::RuntimeStats> stats(un);
  std::vector<double> times(un, 0.0), sums(un, 0.0);

  world->run([&](mpi::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    body_begin[r] = now_ns();
    Node& node = nodes[static_cast<std::size_t>(comm.node())];
    if (L.runtime) {
      rt::RuntimeOptions opts = cfg.unimem;
      opts.ranks_per_node = cfg.ranks_per_node;
      if (cfg.replan_epoch != 0) {
        opts.replan_epoch = cfg.replan_epoch;
        opts.drift_threshold = cfg.drift_threshold;
      }
      sums[r] = run_rank_timed<rt::Runtime>(
          cfg, comm, ranks[r],
          [&] {
            return std::make_unique<rt::Runtime>(opts, node.hms.get(),
                                                 node.arbiter.get(), &comm);
          },
          &times[r], &stats[r]);
    } else {
      unimem::baseline::StaticContextOptions sopts;
      sopts.timing = cfg.unimem.timing;
      sopts.cache = cfg.unimem.cache;
      sopts.use_exact_cache = cfg.unimem.use_exact_cache;
      const unimem::baseline::PlacementFn place =
          cfg.policy == exp::Policy::kManual
              ? unimem::baseline::manual(cfg.manual_dram)
              : unimem::baseline::nvm_only();  // DRAM-only: tier speed
      sums[r] = run_rank_timed<unimem::baseline::StaticContext>(
          cfg, comm, ranks[r],
          [&] {
            return std::make_unique<unimem::baseline::StaticContext>(
                sopts, node.hms.get(), node.arbiter.get(), &comm, place);
          },
          &times[r], nullptr);
    }
    body_end[r] = now_ns();
    ranks[r].body_ns = static_cast<double>(body_end[r] - body_begin[r]);
  });
  const std::int64_t w2 = now_ns();
  world.reset();
  nodes.clear();
  const std::int64_t w3 = now_ns();

  // The RunResult fields the driver reads, folded as exp::run_once does.
  exp::RunResult out;
  out.time_s = *std::max_element(times.begin(), times.end());
  for (double s : sums) out.checksum += s;
  for (const rt::RuntimeStats& s : stats) {
    out.total_bytes_moved += s.migration.bytes_moved;
    out.total_copy_s += s.migration.copy_time_s;
    out.total_exposed_s += s.migration.exposed_migration_s();
  }

  L.setup_ns = static_cast<double>(w1 - w0);
  L.spawn_ns = static_cast<double>(
      *std::min_element(body_begin.begin(), body_begin.end()) - w1);
  L.join_ns = static_cast<double>(
      w2 - *std::max_element(body_end.begin(), body_end.end()));
  L.teardown_ns = static_cast<double>(w3 - w2);
  for (const RankLedger& rl : ranks) L.ranks.add(rl);
  L.wall_ns = static_cast<double>(now_ns() - w0);
  return out;
}

}  // namespace perfbench
