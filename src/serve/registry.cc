#include "serve/registry.h"

#include <atomic>
#include <utility>

#include "common/check.h"
#include "common/prof.h"
#include "common/rng.h"
#include "graph/adjacency.h"
#include "graph/geo.h"
#include "nn/serialize.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "timeseries/pseudo_observations.h"
#include "timeseries/temporal_adjacency.h"

namespace stsm {
namespace serve {

ModelSpec BuildModelSpec(const std::string& name,
                         const SpatioTemporalDataset& dataset,
                         const SpaceSplit& split, const StsmConfig& config,
                         const std::string& checkpoint_path) {
  STSM_PROF_SCOPE("serve.build_spec");
  const int n = dataset.num_nodes();
  const std::vector<int> observed = split.Observed();
  const std::vector<int>& unobserved = split.test;
  STSM_CHECK(!observed.empty());
  STSM_CHECK(!unobserved.empty());

  ModelSpec spec;
  spec.name = name;
  spec.config = config;
  spec.num_nodes = n;
  spec.steps_per_day = dataset.steps_per_day;
  spec.checkpoint_path = checkpoint_path;

  // Normaliser: observed columns of the training period, as in training.
  const TimeSplit time_split = SplitTime(dataset.num_steps(), 0.7);
  spec.normalizer.Fit(dataset.series, observed, time_split.train_steps);

  const std::vector<double> distances = PairwiseDistances(dataset.coords);

  // Spatial adjacency (Eq. 2; unit diagonal, so no extra self-loops).
  // Sparse mode assembles CSR directly — the dense N x N kernel is never
  // materialised, which is the point for city-scale node counts.
  if (config.sparse_adjacency) {
    spec.adj_spatial = Adjacency(NormalizeSymmetric(
        GaussianThresholdAdjacencyCsr(distances, n, config.epsilon_s,
                                      /*sigma_override=*/0.0,
                                      config.binary_spatial_kernel),
        /*add_self_loops=*/false));
  } else {
    spec.adj_spatial = Adjacency(NormalizeSymmetric(
        GaussianThresholdAdjacency(distances, n, config.epsilon_s,
                                   /*sigma_override=*/0.0,
                                   config.binary_spatial_kernel),
        /*add_self_loops=*/false));
  }

  // Temporal adjacency over the full graph: unobserved columns are filled
  // with pseudo-observations first (they have no real history), matching
  // the offline test path.
  SeriesMatrix filled = dataset.series;
  spec.normalizer.TransformInPlace(&filled);
  FillPseudoObservations(&filled, distances, unobserved, observed,
                         config.pseudo_neighbors);
  TemporalAdjacencyOptions dtw_options;
  dtw_options.q_kk = config.q_kk;
  dtw_options.q_ku = config.q_ku;
  dtw_options.steps_per_day = dataset.steps_per_day;
  dtw_options.dtw_band = config.dtw_band;
  const Tensor dtw = NormalizeRow(
      TemporalSimilarityAdjacency(filled, observed, unobserved, dtw_options),
      /*add_self_loops=*/true);
  spec.adj_temporal = config.sparse_adjacency
                          ? Adjacency(SparseCsr::FromDense(dtw))
                          : Adjacency(dtw);
  return spec;
}

namespace {
std::atomic<uint64_t> g_next_generation{1};
}  // namespace

ServedModel::ServedModel(ModelSpec spec)
    : spec_(std::move(spec)),
      generation_(g_next_generation.fetch_add(1, std::memory_order_relaxed)) {}

std::shared_ptr<ServedModel> ServedModel::Load(const ModelSpec& spec) {
  STSM_PROF_SCOPE("serve.model_load");
  auto served = std::shared_ptr<ServedModel>(new ServedModel(spec));
  Rng init_rng(spec.config.seed + 13);  // Same init stream as training.
  auto model = std::make_unique<StModel>(spec.config, &init_rng);
  if (LoadModule(model.get(), spec.checkpoint_path)) {
    model->SetTraining(false);  // Inference mode: dropout becomes identity.
    served->model_ = std::move(model);
  }
  return served;
}

Tensor ServedModel::Predict(const Tensor& inputs,
                            const Tensor& time_features) const {
  STSM_CHECK(healthy()) << "Predict on unhealthy model " << spec_.name;
  NoGradGuard no_grad;  // No autograd graph, no grad-buffer allocations.
  // The model's prediction head ends in zero-copy view ops (transpose /
  // unsqueeze), so compact here: the serving layer reads predictions.data()
  // as a flat row-major buffer.
  return Contiguous(
      model_
          ->Forward(inputs, time_features, spec_.adj_spatial,
                    spec_.adj_temporal)
          .predictions);
}

LoadResult ModelRegistry::Load(const ModelSpec& spec) {
  // Checkpoint restore happens outside the lock: a hot-swap must not stall
  // concurrent Find calls behind model construction.
  std::shared_ptr<const ServedModel> served = ServedModel::Load(spec);
  LoadResult result;
  result.healthy = served->healthy();
  std::shared_ptr<const ServedModel> replaced;  // Torn down after unlock.
  {
    MutexLock lock(mutex_);
    std::shared_ptr<const ServedModel>& slot = models_[spec.name];
    if (slot != nullptr) {
      result.previous = slot->healthy() ? EntryHealth::kHealthy
                                        : EntryHealth::kUnhealthy;
    }
    replaced = std::move(slot);
    slot = std::move(served);
  }
  return result;
}

bool ModelRegistry::Unload(const std::string& name) {
  std::shared_ptr<const ServedModel> dropped;  // Torn down after unlock.
  {
    MutexLock lock(mutex_);
    auto it = models_.find(name);
    if (it == models_.end()) return false;
    dropped = std::move(it->second);
    models_.erase(it);
  }
  return true;
}

std::shared_ptr<const ServedModel> ModelRegistry::Find(
    const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<std::string> ModelRegistry::Names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, model] : models_) names.push_back(name);
  return names;
}

}  // namespace serve
}  // namespace stsm
