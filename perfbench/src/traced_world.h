// The traced World: one exp::run_once rebuilt from the same public
// constructors (per-node HeteroMemory + DramArbiter, mpi::World, and a
// per-rank rt::Runtime or baseline::StaticContext), with every boundary
// between the layers timed from outside.  Each rank's context is wrapped
// in a timing rt::Context decorator that is also the rank's PMPI hook
// shim (forwarding to the Runtime's hooks), so every nanosecond of a rank
// body lands in exactly one bucket of the rank's ledger.
//
// The traced World must produce the same RunResult time and checksum,
// bit for bit, as exp::run_once on the same config; the driver checks it.
#pragma once

#include <cstdint>

#include "experiments/runner.h"

namespace perfbench {

/// Host time (ns) and call counts at the Context boundary of one kind of
/// context: the Unimem Runtime ("core") or a StaticContext ("baselines").
struct ContextLedger {
  double ctor_ns = 0;  ///< constructor (Runtime: calibration + helper spawn)
  double dtor_ns = 0;
  double malloc_ns = 0;
  double free_ns = 0;
  double start_ns = 0;  ///< Runtime: initial placement
  double iter_begin_ns = 0;  ///< Runtime: phase close, planning
  double compute_ns = 0;
  double end_ns = 0;  ///< Runtime: migration drain
  double phase_hook_ns = 0;  ///< inside the PMPI pre/post hooks
  std::uint64_t malloc_calls = 0;
  std::uint64_t compute_calls = 0;

  double total_ns() const {
    return ctor_ns + dtor_ns + malloc_ns + free_ns + start_ns +
           iter_begin_ns + compute_ns + end_ns + phase_hook_ns;
  }
  void add(const ContextLedger& o);
};

/// One rank's (or, summed, one World's) rank-thread attribution.
struct RankLedger {
  ContextLedger ctx;
  double op_ns = 0;    ///< between the pre and post hooks: rendezvous + copy
  std::uint64_t ops = 0;         ///< ops seen by the hook shim
  std::uint64_t comm_ops = 0;    ///< Comm::op_count() at rank exit
  double init_ns = 0;  ///< workload code before start(), mallocs excluded
  std::uint64_t init_minflt = 0;  ///< minor faults of that code (thread)
  double kernel_ns = 0;  ///< workload code after start()
  double body_ns = 0;    ///< whole rank body

  /// Everything the ledger attributes on the rank thread.
  double covered_ns() const {
    return ctx.total_ns() + op_ns + init_ns + kernel_ns;
  }
  void add(const RankLedger& o);
};

/// Ledger of one World.
struct WorldLedger {
  bool runtime = false;  ///< ranks ran rt::Runtime (else StaticContext)
  int nranks = 0;
  double wall_ns = 0;
  double setup_ns = 0;     ///< HeteroMemory, DramArbiter, mpi::World ctors
  std::uint64_t setup_minflt = 0;
  double spawn_ns = 0;     ///< World::run entry -> first rank body
  double join_ns = 0;      ///< last rank body exit -> World::run return
  double teardown_ns = 0;  ///< World and node destructors
  RankLedger ranks;        ///< summed over ranks

  double world_parts_ns() const {
    return setup_ns + spawn_ns + join_ns + teardown_ns;
  }
};

/// Run `cfg` as exp::run_once does, recording the ledger into `*ledger`.
/// The result carries time_s, checksum and the migration totals (bytes,
/// copy and exposed seconds); the other RunResult fields stay zero.
/// X-Men configs (two-pass) are rejected: no benchmark workload uses them.
unimem::exp::RunResult traced_run_once(const unimem::exp::RunConfig& cfg,
                                       WorldLedger* ledger);

/// steady_clock now, in ns.
std::int64_t now_ns();

}  // namespace perfbench
