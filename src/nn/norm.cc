#include "nn/norm.h"

#include "common/check.h"
#include "tensor/ops.h"

namespace stsm {

LayerNorm::LayerNorm(int64_t features, float epsilon)
    : features_(features), epsilon_(epsilon) {
  gamma_ = Tensor::Ones(Shape({features}), /*requires_grad=*/true);
  beta_ = Tensor::Zeros(Shape({features}), /*requires_grad=*/true);
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  STSM_CHECK_EQ(x.shape()[-1], features_);
  const int last = x.ndim() - 1;
  const Tensor mean = Mean(x, last, /*keepdim=*/true);
  const Tensor centered = Sub(x, mean);
  const Tensor variance = Mean(Square(centered), last, /*keepdim=*/true);
  const Tensor normalised = Div(centered, Sqrt(Add(variance, epsilon_)));
  return Add(Mul(normalised, gamma_), beta_);
}

std::vector<Tensor> LayerNorm::Parameters() const { return {gamma_, beta_}; }

}  // namespace stsm
