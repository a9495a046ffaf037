#include "nn/gcn.h"

#include <cmath>

#include "common/check.h"
#include "common/prof.h"
#include "tensor/ops.h"

namespace stsm {

GcnLayer::GcnLayer(int64_t in_features, int64_t out_features, Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight_ = Tensor::Uniform(Shape({in_features, out_features}), -bound, bound,
                            rng, /*requires_grad=*/true);
  bias_ = Tensor::Zeros(Shape({out_features}), /*requires_grad=*/true);
}

Tensor GcnLayer::Forward(const Adjacency& adj, const Tensor& x) const {
  STSM_PROF_SCOPE("gcn.fwd");
  STSM_CHECK(adj.defined());
  STSM_CHECK_EQ(adj.rows(), adj.cols());
  STSM_CHECK_EQ(x.shape()[-2], adj.rows());
  STSM_CHECK_EQ(x.shape()[-1], in_features_);
  // Â mixes the node dimension (MatMul or SpMM depending on the adjacency
  // representation); W mixes features. Batch dims broadcast.
  return Transform(adj.Apply(x));
}

Tensor GcnLayer::Transform(const Tensor& ax) const {
  STSM_CHECK_EQ(ax.shape()[-1], in_features_);
  return Add(MatMul(ax, weight_), bias_);
}

std::vector<Tensor> GcnLayer::Parameters() const { return {weight_, bias_}; }

GcnlLayer::GcnlLayer(int64_t in_features, int64_t out_features, Rng* rng)
    : value_(in_features, out_features, rng),
      gate_(in_features, out_features, rng) {}

Tensor GcnlLayer::Forward(const Adjacency& adj, const Tensor& x) const {
  STSM_PROF_SCOPE("gcnl.fwd");
  STSM_CHECK(adj.defined());
  STSM_CHECK_EQ(adj.rows(), adj.cols());
  STSM_CHECK_EQ(x.shape()[-2], adj.rows());
  const Tensor ax = adj.Apply(x);
  return Mul(value_.Transform(ax), Sigmoid(gate_.Transform(ax)));
}

std::vector<Tensor> GcnlLayer::Parameters() const {
  return ConcatParameters({value_.Parameters(), gate_.Parameters()});
}

}  // namespace stsm
