#include "replica.h"

#include <algorithm>
#include <memory>
#include <set>

#include "common/check.h"
#include "common/rng.h"
#include "core/st_model.h"
#include "data/metrics.h"
#include "data/normalizer.h"
#include "data/windows.h"
#include "graph/adjacency.h"
#include "graph/geo.h"
#include "masking/masking.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/sparse.h"
#include "timeseries/pseudo_observations.h"
#include "timeseries/temporal_adjacency.h"

namespace perfbench {
namespace {

using namespace stsm;

// The helpers below are file-local in core/stsm.cc; they are repeated here
// verbatim because the replica may only use public calls.
Tensor SubAdjacencyDense(const Tensor& adjacency,
                         const std::vector<int>& indices) {
  const int64_t n = adjacency.shape()[0];
  const int64_t k = static_cast<int64_t>(indices.size());
  Tensor sub = Tensor::Zeros(Shape({k, k}));
  const float* a = adjacency.data();
  float* s = sub.data();
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      s[i * k + j] = a[static_cast<int64_t>(indices[i]) * n + indices[j]];
    }
  }
  return sub;
}

std::vector<double> SubDistances(const std::vector<double>& distances,
                                 int num_nodes,
                                 const std::vector<int>& indices) {
  const size_t k = indices.size();
  std::vector<double> sub(k * k, 0.0);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      sub[i * k + j] =
          distances[static_cast<size_t>(indices[i]) * num_nodes + indices[j]];
    }
  }
  return sub;
}

Adjacency RouteAdjacency(Tensor dense, bool sparse) {
  if (sparse) return Adjacency(SparseCsr::FromDense(dense));
  return Adjacency(std::move(dense));
}

std::vector<int> CapWindows(std::vector<int> starts, int cap) {
  if (cap <= 0 || static_cast<int>(starts.size()) <= cap) return starts;
  std::vector<int> result;
  result.reserve(cap);
  const double step = static_cast<double>(starts.size()) / cap;
  for (int i = 0; i < cap; ++i) {
    result.push_back(starts[static_cast<size_t>(i * step)]);
  }
  return result;
}

// The DTW temporal adjacency as the runner builds it: similarity graph,
// row normalisation with self-loops, then the configured representation.
Adjacency TemporalAdjacency(const SeriesMatrix& series,
                            const std::vector<int>& sources,
                            const std::vector<int>& targets,
                            const TemporalAdjacencyOptions& options,
                            bool sparse) {
  return RouteAdjacency(
      NormalizeRow(
          TemporalSimilarityAdjacency(series, sources, targets, options),
          /*add_self_loops=*/true),
      sparse);
}

}  // namespace

ReplicaResult RunTracedReplica(const SpatioTemporalDataset& dataset,
                               const SpaceSplit& split,
                               const StsmConfig& config,
                               SpanRecorder* spans) {
  STSM_CHECK(config.distance_mode == DistanceMode::kEuclidean);
  STSM_CHECK(!config.validation_selection);
  ReplicaResult result;

  // ---- StsmRunner construction ----
  Rng rng(config.seed);
  const int n = dataset.num_nodes();
  const std::vector<int> observed = split.Observed();
  const std::vector<int>& unobserved = split.test;
  const TimeSplit time_split = SplitTime(dataset.num_steps(), 0.7);
  Normalizer normalizer;
  normalizer.Fit(dataset.series, observed, time_split.train_steps);
  SeriesMatrix normalized_full = dataset.series;
  normalizer.TransformInPlace(&normalized_full);
  const SeriesMatrix train_full =
      normalized_full.TimeSlice(0, time_split.train_steps);
  SeriesMatrix train_observed(time_split.train_steps,
                              static_cast<int>(observed.size()));
  for (int t = 0; t < time_split.train_steps; ++t) {
    for (size_t c = 0; c < observed.size(); ++c) {
      train_observed.set(t, static_cast<int>(c), train_full.at(t, observed[c]));
    }
  }
  const std::vector<double> dist = PairwiseDistances(dataset.coords);
  const std::vector<double> dist_train = SubDistances(dist, n, observed);

  Adjacency a_s_norm_full, a_s_norm_train, a_sg;
  if (config.sparse_adjacency) {
    const SparseCsr kernel = GaussianThresholdAdjacencyCsr(
        dist, n, config.epsilon_s, 0.0, config.binary_spatial_kernel);
    a_s_norm_full = Adjacency(NormalizeSymmetric(kernel, false));
    a_s_norm_train =
        Adjacency(NormalizeSymmetric(SubAdjacency(kernel, observed), false));
    a_sg = Adjacency(
        GaussianThresholdAdjacencyCsr(dist, n, config.epsilon_sg, 0.0, true));
  } else {
    const Tensor kernel = GaussianThresholdAdjacency(
        dist, n, config.epsilon_s, 0.0, config.binary_spatial_kernel);
    a_s_norm_full = Adjacency(NormalizeSymmetric(kernel, false));
    a_s_norm_train = Adjacency(
        NormalizeSymmetric(SubAdjacencyDense(kernel, observed), false));
    a_sg = Adjacency(
        GaussianThresholdAdjacency(dist, n, config.epsilon_sg, 0.0, true));
  }
  MaskingConfig mask_config;
  mask_config.mask_ratio = config.mask_ratio;
  mask_config.top_k = config.top_k;
  const MaskingContext mask_context =
      BuildMaskingContext(a_sg, dataset.coords, dataset.metadata, observed,
                          split.TestRegions(), mask_config);

  Rng init_rng(config.seed + 13);
  StModel model(config, &init_rng);
  ProjectionHead projection(config.hidden_dim, &init_rng);
  std::vector<Tensor> parameters = model.Parameters();
  if (config.contrastive) {
    const auto proj = projection.Parameters();
    parameters.insert(parameters.end(), proj.begin(), proj.end());
  }
  Adam optimizer(parameters, config.learning_rate);
  const WindowSpec window_spec{config.input_length, config.horizon};
  TemporalAdjacencyOptions dtw_options;
  dtw_options.q_kk = config.q_kk;
  dtw_options.q_ku = config.q_ku;
  dtw_options.steps_per_day = dataset.steps_per_day;
  dtw_options.dtw_band = config.dtw_band;

  // ---- Training ----
  const int num_observed = static_cast<int>(observed.size());
  std::vector<int> global_to_local(n, -1);
  for (int i = 0; i < num_observed; ++i) global_to_local[observed[i]] = i;
  const BufferPoolStats pool_before = BufferPool::Instance().Stats();

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    ScopedSpan epoch_span(spans, "train.epoch");
    std::vector<int> masked_global;
    {
      ScopedSpan span(spans, "masking.draw");
      masked_global = config.selective_masking
                          ? DrawSelectiveMask(mask_context, &rng)
                          : DrawRandomMask(mask_context, &rng);
    }
    std::vector<int> masked_local;
    std::set<int> masked_set;
    for (int g : masked_global) {
      masked_local.push_back(global_to_local[g]);
      masked_set.insert(global_to_local[g]);
    }
    std::vector<int> source_local;
    for (int i = 0; i < num_observed; ++i) {
      if (!masked_set.count(i)) source_local.push_back(i);
    }
    SeriesMatrix masked_view = train_observed;
    {
      ScopedSpan span(spans, "timeseries.pseudo_obs");
      FillPseudoObservations(&masked_view, dist_train, masked_local,
                             source_local, config.pseudo_neighbors);
    }
    Adjacency a_dtw_train;
    {
      ScopedSpan span(spans, "timeseries.temporal_adj");
      a_dtw_train =
          TemporalAdjacency(masked_view, source_local, masked_local,
                            dtw_options, config.sparse_adjacency);
    }

    double epoch_loss = 0.0;
    for (int batch = 0; batch < config.batches_per_epoch; ++batch) {
      const uint64_t nodes_before = autograd::NodesCreated();
      std::vector<int> starts;
      WindowBatch masked_batch, clean_batch;
      {
        ScopedSpan span(spans, "data.window_batch");
        starts = SampleWindowStarts(0, time_split.train_steps, window_spec,
                                    config.batch_size, &rng);
        masked_batch = MakeWindowBatch(masked_view, starts, window_spec,
                                       dataset.steps_per_day);
        clean_batch = MakeWindowBatch(train_observed, starts, window_spec,
                                      dataset.steps_per_day);
      }
      StModel::Output masked_out;
      Tensor loss;
      {
        ScopedSpan span(spans, "core.forward");
        masked_out = model.Forward(masked_batch.inputs, masked_batch.input_time,
                                   a_s_norm_train, a_dtw_train);
        loss = MseLoss(masked_out.predictions, clean_batch.targets);
      }
      if (config.contrastive && static_cast<int>(starts.size()) >= 2) {
        StModel::Output clean_out;
        {
          ScopedSpan span(spans, "core.forward");
          clean_out = model.Forward(clean_batch.inputs, clean_batch.input_time,
                                    a_s_norm_train, a_dtw_train);
        }
        ScopedSpan span(spans, "core.contrastive");
        const Tensor z_original = projection.Forward(clean_out.final_features);
        const Tensor z_masked = projection.Forward(masked_out.final_features);
        const Tensor contrastive =
            InfoNceLoss(z_original, z_masked, config.tau);
        loss = Add(loss, Mul(contrastive, config.lambda));
      }
      {
        ScopedSpan span(spans, "nn.optim");
        optimizer.ZeroGrad();
      }
      {
        ScopedSpan span(spans, "tensor.backward");
        loss.Backward();
      }
      {
        ScopedSpan span(spans, "nn.optim");
        ClipGradNorm(parameters, config.grad_clip);
        optimizer.Step();
      }
      epoch_loss += loss.item();
      result.nodes_per_batch.push_back(autograd::NodesCreated() -
                                       nodes_before);
    }
    result.train_losses.push_back(epoch_loss / config.batches_per_epoch);
  }
  const BufferPoolStats pool_after = BufferPool::Instance().Stats();
  result.pool_acquires = pool_after.acquires - pool_before.acquires;
  result.pool_hits = pool_after.hits - pool_before.hits;

  // ---- Evaluation ----
  ScopedSpan eval_span(spans, "core.eval");
  NoGradGuard no_grad;
  SeriesMatrix test_input = normalized_full;
  FillPseudoObservations(&test_input, dist, unobserved, observed,
                         config.pseudo_neighbors);
  const SeriesMatrix test_period =
      test_input.TimeSlice(time_split.train_steps, time_split.total_steps);
  Adjacency a_dtw_full;
  {
    ScopedSpan span(spans, "timeseries.eval_temporal_adj");
    a_dtw_full = TemporalAdjacency(test_period, observed, unobserved,
                                   dtw_options, config.sparse_adjacency);
  }
  const std::vector<int> starts = CapWindows(
      ValidWindowStarts(time_split.train_steps, time_split.total_steps,
                        window_spec, config.eval_stride),
      config.max_eval_windows);
  MetricsAccumulator accumulator;
  const int chunk = std::max(1, config.batch_size);
  for (size_t begin = 0; begin < starts.size(); begin += chunk) {
    const std::vector<int> chunk_starts(
        starts.begin() + begin,
        starts.begin() + std::min(starts.size(), begin + chunk));
    const WindowBatch batch = MakeWindowBatch(test_input, chunk_starts,
                                              window_spec,
                                              dataset.steps_per_day);
    Tensor preds;
    {
      ScopedSpan span(spans, "core.eval_forward");
      preds = model.Forward(batch.inputs, batch.input_time, a_s_norm_full,
                            a_dtw_full)
                  .predictions;
    }
    for (size_t b = 0; b < chunk_starts.size(); ++b) {
      for (int t = 0; t < config.horizon; ++t) {
        const int absolute_t = chunk_starts[b] + config.input_length + t;
        for (int node : unobserved) {
          accumulator.Add(
              normalizer.Inverse(preds.at({static_cast<int64_t>(b), t, node, 0})),
              dataset.series.at(absolute_t, node));
        }
      }
    }
  }
  result.rmse = accumulator.Compute().rmse;
  return result;
}

}  // namespace perfbench
