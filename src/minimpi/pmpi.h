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
// information a PMPI wrapper would see.  Every operation minimpi offers is
// blocking, so each one ends a phase (paper §2.1).  Unimem's phase tracker
// is one such hook; nothing in minimpi knows about Unimem.
#pragma once

#include <cstddef>

namespace unimem::mpi {

enum class OpKind : int {
  kAllreduce,
  kSendrecv,
  kAlltoall,
};

struct OpInfo {
  OpKind kind = OpKind::kAllreduce;
  /// Peer rank for point-to-point; -1 for collectives.
  int peer = -1;
  /// Payload bytes moved by this rank in this call.
  std::size_t bytes = 0;
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
