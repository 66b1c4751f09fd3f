// PMPI-style profiling hook layer.
//
// Paper §3.3 / Fig. 7: "Based on PMPI, we can transparently identify
// execution phases and control profiling without programmer intervention
// ... we implement an MPI wrapper [that] encapsulates the functionality of
// enabling and disabling profiling and uses a global counter to identify
// phases."
//
// Every minimpi operation invokes the rank's registered hooks before and
// after doing its work, passing an OpInfo describing the call — exactly the
// information a PMPI wrapper would see.  Unimem's phase tracker is one such
// hook; nothing in minimpi knows about Unimem.
#pragma once

#include <cstddef>

namespace unimem::mpi {

enum class OpKind : int {
  kBarrier,
  kAllreduce,
  kReduce,
  kBcast,
  kSend,
  kRecv,
  kIsend,
  kIrecv,
  kWait,
  kSendrecv,
  kAlltoall,
};

inline const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::kBarrier: return "Barrier";
    case OpKind::kAllreduce: return "Allreduce";
    case OpKind::kReduce: return "Reduce";
    case OpKind::kBcast: return "Bcast";
    case OpKind::kSend: return "Send";
    case OpKind::kRecv: return "Recv";
    case OpKind::kIsend: return "Isend";
    case OpKind::kIrecv: return "Irecv";
    case OpKind::kWait: return "Wait";
    case OpKind::kSendrecv: return "Sendrecv";
    case OpKind::kAlltoall: return "Alltoall";
  }
  return "?";
}

struct OpInfo {
  OpKind kind = OpKind::kBarrier;
  /// Peer rank for point-to-point; -1 for collectives.
  int peer = -1;
  /// Payload bytes moved by this rank in this call.
  std::size_t bytes = 0;
  /// Blocking calls delineate phases (paper §2.1); non-blocking calls are
  /// merged into the immediately following phase.
  bool blocking = true;
  /// Application buffers this rank's call reads/writes (exactly what a
  /// PMPI wrapper sees).  The Unimem hook charges the op the virtual wait
  /// for outstanding migrations of the owning data units — the same "a
  /// phase must not run while its objects are in flight" rule compute
  /// phases follow.
  const void* read_buf = nullptr;
  std::size_t read_bytes = 0;
  const void* write_buf = nullptr;
  std::size_t write_bytes = 0;
};

class PmpiHooks {
 public:
  virtual ~PmpiHooks() = default;
  /// Called on the calling rank's thread immediately before the operation.
  virtual void on_pre_op(const OpInfo& info) { (void)info; }
  /// Called immediately after the operation completes on this rank.
  virtual void on_post_op(const OpInfo& info) { (void)info; }
};

}  // namespace unimem::mpi
