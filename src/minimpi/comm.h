// minimpi: a threads-as-ranks message-passing runtime implementing the MPI
// subset the workloads call, with virtual-time semantics: allreduce on
// doubles, sendrecv and a pairwise-exchange alltoall.  Each of them goes
// through the rank's PMPI hooks (minimpi/pmpi.h), which is how Unimem finds
// phases (paper §2.1/§3.3).
//
// Each rank runs on its own std::thread and owns a VirtualClock.  Operations
// synchronize both the host threads (mutex/condvar) and the virtual clocks
// the way real MPI synchronizes wall clocks: collectives leave all ranks at
// max(entry times) + collective cost; a receive completes no earlier than
// send time + message cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "minimpi/network_params.h"
#include "minimpi/pmpi.h"
#include "simclock/virtual_clock.h"

namespace unimem::mpi {

class World;

enum class ReduceOp : int { kSum, kMax, kMin };

class Comm {
 public:
  Comm(World* world, int rank);

  int rank() const { return rank_; }
  int size() const;
  /// Node this rank is mapped to (ranks_per_node is a World parameter).
  int node() const;

  clk::VirtualClock& clock() { return clock_; }
  const clk::VirtualClock& clock() const { return clock_; }

  /// Register PMPI-style hooks for this rank (may be nullptr to clear).
  void set_hooks(PmpiHooks* hooks) { hooks_ = hooks; }

  /// Element-wise reduction of `n` doubles across all ranks; every rank
  /// gets the result.  Contributions are reduced in rank order, so the
  /// result is deterministic.
  void allreduce(double* buf, std::size_t n, ReduceOp op = ReduceOp::kSum);

  /// Send `sbytes` to `dst` and receive `rbytes` from `src`, both on `tag`.
  /// Sends are eager (buffered), so a ring of sendrecvs cannot deadlock;
  /// messages of one (src, dst, tag) arrive in send order.
  void sendrecv(const void* sbuf, std::size_t sbytes, int dst,
                void* rbuf, std::size_t rbytes, int src, int tag);

  /// Pairwise-exchange all-to-all: every rank sends `bytes_per_rank` to
  /// every other rank from sbuf[r*bytes_per_rank].
  void alltoall(const void* sbuf, void* rbuf, std::size_t bytes_per_rank);

  /// Number of operations this rank has issued (PMPI "global counter").
  std::uint64_t op_count() const { return op_count_; }

 private:
  friend class World;
  void pre(const OpInfo& info);
  void post(const OpInfo& info);
  void push_message(int dst, int tag, const void* buf, std::size_t bytes);
  void pop_message(int src, int tag, void* buf, std::size_t bytes);

  World* world_;
  int rank_;
  clk::VirtualClock clock_;
  PmpiHooks* hooks_ = nullptr;
  std::uint64_t op_count_ = 0;
};

/// Owns the ranks, the mailboxes and the collective slots; spawns one
/// thread per rank and joins them.
class World {
 public:
  /// `ranks_per_node` controls the node mapping used by the DRAM arbiter
  /// (the paper runs 1 or 4 MPI processes per node).
  World(int nranks, NetworkParams net = NetworkParams{},
        int ranks_per_node = 1);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return nranks_; }
  int ranks_per_node() const { return ranks_per_node_; }
  const NetworkParams& network() const { return net_; }

  /// Run `fn(comm)` on every rank, each on its own thread; returns when all
  /// ranks finish.  Rethrows the first rank exception, if any.
  void run(const std::function<void(Comm&)>& fn);

  /// Internal shared state (mailboxes, collective slots); defined in
  /// comm.cc.  Public so the collective engine helpers can name it.
  struct Impl;

 private:
  friend class Comm;
  int nranks_;
  int ranks_per_node_;
  NetworkParams net_;
  std::vector<std::unique_ptr<Comm>> comms_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace unimem::mpi
