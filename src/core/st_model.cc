#include "core/st_model.h"

#include <algorithm>

#include "common/check.h"
#include "tensor/ops.h"

namespace stsm {

StBlock::StBlock(int64_t channels, const StsmConfig& config, Rng* rng)
    : temporal_module_(config.temporal_module) {
  if (temporal_module_ == TemporalModule::kTcn) {
    // Stacked dilated convolutions with exponential dilation 2^j (Eq. 5).
    for (int j = 0; j < 2; ++j) {
      tcn_stack_.push_back(std::make_unique<TemporalConv>(
          channels, channels, config.tcn_kernel, /*dilation=*/1 << j, rng));
    }
  } else {
    transformer_ = std::make_unique<TransformerEncoderBlock>(
        channels, config.attention_heads, 2 * channels, rng, config.dropout);
    fusion_spatial_ = std::make_unique<Linear>(channels, channels, rng);
    fusion_temporal_ =
        std::make_unique<Linear>(channels, channels, rng, /*use_bias=*/false);
  }
  gcn_layers_.reserve(config.gcn_layers_per_block);
  for (int q = 0; q < config.gcn_layers_per_block; ++q) {
    gcn_layers_.emplace_back(channels, channels, rng);
  }
}

namespace {

// The last `steps` time steps of a [B, T, ...] tensor (a view; x itself when
// that is all of it).
Tensor LastSteps(const Tensor& x, int64_t steps) {
  const int64_t time = x.shape()[1];
  return steps == time ? x : Slice(x, 1, time - steps, time);
}

}  // namespace

Tensor StBlock::TemporalBranch(const Tensor& x, int64_t out_steps) const {
  if (temporal_module_ == TemporalModule::kTcn) {
    // The causal stack's output at step t reads the input at steps
    // t - (receptive_field - 1) .. t, so the last out_steps outputs need only
    // that input suffix. The zero padding at the suffix's left edge reaches
    // only outputs that are dropped.
    int64_t receptive_field = 1;
    for (const auto& conv : tcn_stack_) {
      receptive_field += (conv->kernel_size() - 1) * conv->dilation();
    }
    Tensor h = LastSteps(
        x, std::min(x.shape()[1], out_steps + receptive_field - 1));
    for (const auto& conv : tcn_stack_) {
      h = conv->Forward(h);
      if (GradModeEnabled()) {
        h = Relu(h);
      } else {
        // Inference: the conv output is graph-free and exclusively ours, so
        // clamp it in place instead of allocating a new activation.
        ReluInPlace(h);
      }
    }
    return LastSteps(h, out_steps);
  }
  // Transformer over time: [B, T, N, C] -> [B, N, T, C] -> [B*N, T, C].
  const int64_t batch = x.shape()[0];
  const int64_t time = x.shape()[1];
  const int64_t nodes = x.shape()[2];
  const int64_t channels = x.shape()[3];
  Tensor h = Transpose(x, 1, 2);
  h = Reshape(h, Shape({batch * nodes, time, channels}));
  h = transformer_->Forward(h);
  h = Reshape(h, Shape({batch, nodes, time, channels}));
  // Attention mixes every step, so the encoder runs at full length.
  return LastSteps(Transpose(h, 1, 2), out_steps);
}

Tensor StBlock::SpatialBranch(const Tensor& x, const Adjacency& adj) const {
  // Eq. 8/9: stack gated GCN layers, elementwise-max over layer outputs.
  Tensor h = x;
  Tensor aggregated;
  for (const GcnlLayer& layer : gcn_layers_) {
    h = layer.Forward(adj, h);
    aggregated = aggregated.defined() ? Maximum(aggregated, h) : h;
  }
  return aggregated;
}

Tensor StBlock::Forward(const Tensor& x, const Adjacency& adj_spatial,
                        const Adjacency& adj_temporal,
                        int64_t out_steps) const {
  STSM_CHECK(out_steps >= 1 && out_steps <= x.shape()[1]);
  const Tensor h_temporal = TemporalBranch(x, out_steps);
  // Eq. 11: max over the two adjacency variants. Graph propagation is
  // independent per time step, so the branch runs on the kept steps only.
  const Tensor x_kept = LastSteps(x, out_steps);
  const Tensor h_spatial = Maximum(SpatialBranch(x_kept, adj_spatial),
                                   SpatialBranch(x_kept, adj_temporal));
  if (temporal_module_ == TemporalModule::kTcn) {
    return Add(h_spatial, h_temporal);  // Eq. 12.
  }
  // Gated fusion for STSM-trans.
  const Tensor gate = Sigmoid(Add(fusion_spatial_->Forward(h_spatial),
                                  fusion_temporal_->Forward(h_temporal)));
  return Add(Mul(gate, h_spatial), Mul(Sub(1.0f, gate), h_temporal));
}

std::vector<Module*> StBlock::Children() {
  std::vector<Module*> children;
  for (const auto& conv : tcn_stack_) children.push_back(conv.get());
  for (Module* child : CollectChildren({transformer_.get(),
                                        fusion_spatial_.get(),
                                        fusion_temporal_.get()})) {
    children.push_back(child);
  }
  for (GcnlLayer& layer : gcn_layers_) children.push_back(&layer);
  return children;
}

std::vector<Tensor> StBlock::Parameters() const {
  std::vector<Tensor> params;
  for (const auto& conv : tcn_stack_) {
    const auto p = conv->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  if (transformer_ != nullptr) {
    const auto p = transformer_->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  for (const auto* fusion :
       {fusion_spatial_.get(), fusion_temporal_.get()}) {
    if (fusion != nullptr) {
      const auto p = fusion->Parameters();
      params.insert(params.end(), p.begin(), p.end());
    }
  }
  for (const GcnlLayer& layer : gcn_layers_) {
    const auto p = layer.Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

StModel::StModel(const StsmConfig& config, Rng* rng)
    : config_(config),
      phi1_(1, config.hidden_dim, rng),
      phi2_(3, config.hidden_dim, rng),
      // Fixed seed: see TransformerEncoderBlock — the shared init stream
      // must not depend on whether dropout is configured.
      input_dropout_(config.dropout, /*seed=*/0xd10u ^ config.seed),
      head1_(config.hidden_dim, config.hidden_dim, rng),
      head2_(config.hidden_dim, config.horizon, rng) {
  blocks_.reserve(config.num_blocks);
  for (int l = 0; l < config.num_blocks; ++l) {
    blocks_.push_back(std::make_unique<StBlock>(config.hidden_dim, config, rng));
  }
}

StModel::Output StModel::Forward(const Tensor& x, const Tensor& time_features,
                                 const Adjacency& adj_spatial,
                                 const Adjacency& adj_temporal) const {
  STSM_CHECK_EQ(x.ndim(), 4);
  STSM_CHECK_EQ(x.shape()[3], 1);
  STSM_CHECK_EQ(x.shape()[1], config_.input_length);
  const int64_t batch = x.shape()[0];
  const int64_t time = x.shape()[1];
  const int64_t nodes = x.shape()[2];

  // Eq. 4: H^0 = phi1(X) * phi2(TE). The time embedding is shared across
  // nodes, so it broadcasts over the node dimension.
  const Tensor h_obs = phi1_.Forward(x);  // [B, T, N, C'].
  const Tensor h_time =
      Unsqueeze(phi2_.Forward(time_features), 2);  // [B, T, 1, C'].
  Tensor h = input_dropout_.Forward(Mul(h_obs, h_time));

  // Final features: last block output at the last input time step, which
  // summarises the whole window through the dilated temporal stack
  // (this is the H^{t+T',L} of Eq. 16). Nothing reads the last block at
  // any other step, so it computes only that one.
  for (size_t l = 0; l < blocks_.size(); ++l) {
    const int64_t out_steps = l + 1 == blocks_.size() ? 1 : time;
    h = blocks_[l]->Forward(h, adj_spatial, adj_temporal, out_steps);
  }
  const Tensor last =
      Reshape(LastSteps(h, 1),
              Shape({batch, nodes, config_.hidden_dim}));  // [B, N, C'].

  // Output head (Eq. 13): two linear maps with an inner ReLU produce all T'
  // horizon values per node at once. No output activation — targets are
  // z-scored and may be negative.
  Tensor out = head2_.Forward(Relu(head1_.Forward(last)));  // [B, N, T'].
  if (config_.input_skip) {
    // Persistence skip: the head predicts the correction on top of the
    // last input value (see config.h).
    const Tensor last_value =
        Reshape(Slice(x, 1, time - 1, time), Shape({batch, nodes, 1}));
    out = Add(out, last_value);
  }
  out = Unsqueeze(Transpose(out, 1, 2), -1);                // [B, T', N, 1].

  Output output;
  output.predictions = out;
  output.final_features = last;
  return output;
}

std::vector<Module*> StModel::Children() {
  std::vector<Module*> children = {&phi1_, &phi2_, &input_dropout_, &head1_,
                                   &head2_};
  for (const auto& block : blocks_) children.push_back(block.get());
  return children;
}

std::vector<Tensor> StModel::Parameters() const {
  std::vector<Tensor> params = ConcatParameters(
      {phi1_.Parameters(), phi2_.Parameters(), head1_.Parameters(),
       head2_.Parameters()});
  for (const auto& block : blocks_) {
    const auto p = block->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

ProjectionHead::ProjectionHead(int64_t channels, Rng* rng)
    : inner_(channels, channels, rng), outer_(channels, channels, rng) {}

Tensor ProjectionHead::Forward(const Tensor& final_features) const {
  STSM_CHECK_EQ(final_features.ndim(), 3);
  // Eq. 16: sum over nodes, then phi(ReLU(phi(.))).
  const Tensor pooled = Sum(final_features, 1);  // [B, C'].
  return outer_.Forward(Relu(inner_.Forward(pooled)));
}

std::vector<Tensor> ProjectionHead::Parameters() const {
  return ConcatParameters({inner_.Parameters(), outer_.Parameters()});
}

}  // namespace stsm
