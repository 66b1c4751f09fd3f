// Execution-context interface: what a workload needs from a data-placement
// policy.  The Unimem Runtime implements it, and so do the static baseline
// policies (DRAM-only, NVM-only, manual placement, X-Men), which lets every
// workload run unmodified under every policy — the way the paper compares
// them.
#pragma once

#include <string>

#include "core/exec_engine.h"
#include "core/object.h"
#include "minimpi/comm.h"

namespace unimem::rt {

class Context {
 public:
  virtual ~Context() = default;

  /// Allocate a target data object (unimem_malloc).
  virtual DataObject* malloc_object(const std::string& name,
                                    std::size_t bytes,
                                    ObjectTraits traits = ObjectTraits{}) = 0;
  /// Free a target data object (unimem_free).
  virtual void free_object(DataObject* obj) = 0;

  /// Mark the beginning of the main computation loop (unimem_start).
  virtual void start() = 0;
  /// Mark the top of each loop iteration.
  virtual void iteration_begin() = 0;
  /// Mark the end of the main computation loop (unimem_end).
  virtual void end() = 0;

  /// Submit modeled computation for the current phase.
  virtual void compute(const PhaseWork& work) = 0;

  /// The rank's communicator; never nullptr (both contexts reject a null
  /// one at construction).
  virtual mpi::Comm* comm() = 0;

  /// Current virtual time of this rank.
  virtual double now() const = 0;
};

}  // namespace unimem::rt
