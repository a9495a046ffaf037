// The spatial-temporal network of STSM (Section 3.4, Eq. 4-13) and the
// graph-level projection head used for contrastive learning (Eq. 16).
//
// All tensors are laid out [B, T, N, C]: batch of windows, time steps,
// nodes, channels. The same network weights are applied to the training
// graph G_o / G_o^m and the full test graph G — the graph only enters
// through the adjacency matrices passed to Forward, which is what makes the
// model inductive over nodes.

#ifndef STSM_CORE_ST_MODEL_H_
#define STSM_CORE_ST_MODEL_H_

#include <memory>
#include <vector>

#include "core/config.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/dropout.h"
#include "nn/gcn.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace stsm {

// One ST block (Fig. 3): a temporal branch (dilated TCN, Eq. 5, or a
// transformer encoder for STSM-trans) in parallel with a spatial branch of
// stacked gated GCN layers (Eq. 7-9) evaluated under both the spatial and
// the temporal-similarity adjacency, max-aggregated (Eq. 11), combined with
// the temporal branch (Eq. 12; gated fusion for STSM-trans).
class StBlock : public Module {
 public:
  StBlock(int64_t channels, const StsmConfig& config, Rng* rng);

  // x: [B, T, N, C]; adjacencies are [N, N] (pre-normalised), dense or CSR.
  // Returns the block output at the last `out_steps` time steps only,
  // [B, out_steps, N, C]: the spatial branch runs on those steps alone and
  // the TCN on the input suffix they can see. Each step is bitwise what a
  // full-length forward gives at that step.
  Tensor Forward(const Tensor& x, const Adjacency& adj_spatial,
                 const Adjacency& adj_temporal, int64_t out_steps) const;

  std::vector<Tensor> Parameters() const override;
  std::vector<Module*> Children() override;

 private:
  Tensor TemporalBranch(const Tensor& x, int64_t out_steps) const;
  Tensor SpatialBranch(const Tensor& x, const Adjacency& adj) const;

  TemporalModule temporal_module_;
  std::vector<std::unique_ptr<TemporalConv>> tcn_stack_;
  std::unique_ptr<TransformerEncoderBlock> transformer_;
  // Gated fusion (Zheng et al. GMAN), STSM-trans only:
  // z = sigmoid(Ws Hs + Wt Ht), out = z * Hs + (1 - z) * Ht.
  std::unique_ptr<Linear> fusion_spatial_;
  std::unique_ptr<Linear> fusion_temporal_;
  std::vector<GcnlLayer> gcn_layers_;  // Shared across both adjacencies.
};

// The full forecasting network: input fusion with the time embedding
// (Eq. 4), L stacked ST blocks, and the output head (Eq. 13). The head and
// the projection (Eq. 16) read only the last block's last time step, so the
// last block computes that step alone.
class StModel : public Module {
 public:
  StModel(const StsmConfig& config, Rng* rng);

  struct Output {
    Tensor predictions;     // [B, T', N, 1].
    Tensor final_features;  // [B, N, C'] — last block, last time step.
  };

  // x: [B, T, N, 1]; time_features: [B, T, 3] (see TimeOfDayFeatures).
  // Adjacencies may be dense tensors or SparseCsr (city-scale graphs).
  Output Forward(const Tensor& x, const Tensor& time_features,
                 const Adjacency& adj_spatial,
                 const Adjacency& adj_temporal) const;

  std::vector<Tensor> Parameters() const override;
  std::vector<Module*> Children() override;

 private:
  StsmConfig config_;
  Linear phi1_;  // Observation projection (Eq. 4).
  Linear phi2_;  // Time-embedding projection (Eq. 4).
  DropoutLayer input_dropout_;  // config.dropout on the fused embedding.
  std::vector<std::unique_ptr<StBlock>> blocks_;
  Linear head1_;  // phi3 of Eq. 13.
  Linear head2_;  // phi4 of Eq. 13 -> horizon outputs.
};

// Graph-level projection head (Eq. 16): sum-pools node features and applies
// phi(ReLU(phi(.))) to produce the representation used by InfoNCE.
class ProjectionHead : public Module {
 public:
  ProjectionHead(int64_t channels, Rng* rng);

  // [B, N, C'] -> [B, C'].
  Tensor Forward(const Tensor& final_features) const;

  std::vector<Tensor> Parameters() const override;
  std::vector<Module*> Children() override { return {&inner_, &outer_}; }

 private:
  Linear inner_;
  Linear outer_;
};

}  // namespace stsm

#endif  // STSM_CORE_ST_MODEL_H_
