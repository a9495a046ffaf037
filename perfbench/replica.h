// Traced replica of StsmRunner (core/stsm.cc), built from public calls only.
//
// The replica performs the runner's construction, training epochs and
// evaluation step for step, with a span around each call into a module, so
// the traced run can attribute an epoch's time to masking, pseudo-
// observations, the DTW temporal adjacency, window batching, the forward
// pass, the contrastive head, autograd backward and the optimiser. Its
// per-epoch losses and RMSE must equal StsmRunner::Run() bitwise; the
// benchmark checks that, so the spans describe the program that was timed.

#ifndef STSM_PERFBENCH_REPLICA_H_
#define STSM_PERFBENCH_REPLICA_H_

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "data/dataset.h"
#include "data/splits.h"
#include "trace.h"

namespace perfbench {

struct ReplicaResult {
  std::vector<double> train_losses;  // Per-epoch mean loss.
  double rmse = 0.0;                 // Unobserved region, raw units.
  // Autograd nodes built by each training batch (NodesCreated delta).
  std::vector<uint64_t> nodes_per_batch;
  // Buffer-pool traffic over training: acquires and free-list hits.
  uint64_t pool_acquires = 0;
  uint64_t pool_hits = 0;
};

// Requires the runner's default training options that the replica mirrors:
// Euclidean distances and no validation-based model selection.
ReplicaResult RunTracedReplica(const stsm::SpatioTemporalDataset& dataset,
                               const stsm::SpaceSplit& split,
                               const stsm::StsmConfig& config,
                               SpanRecorder* spans);

}  // namespace perfbench

#endif  // STSM_PERFBENCH_REPLICA_H_
