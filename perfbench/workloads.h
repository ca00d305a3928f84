// The benchmark's workloads. Each builds its seed-derived inputs once, then
// runs one pass per backend: set up a machine, drive one closed-loop client
// coroutine per simulated node, and check the outputs against a computation
// made apart from the simulator or against a property the method must have.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "perfbench/harness.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  virtual BackendResult Run(asvm::DsmKind dsm, RunOptions& options) = 0;
};

// "em3d", "file", "file-sharded" or "contention"; nullptr for any other name.
// `quick` selects small inputs that run in well under a second.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool quick);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
