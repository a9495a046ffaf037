#include "nn/linear.h"

#include <cmath>

#include "common/check.h"
#include "common/prof.h"
#include "tensor/ops.h"

namespace stsm {

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng,
               bool use_bias)
    : in_features_(in_features), out_features_(out_features) {
  STSM_CHECK_GT(in_features, 0);
  STSM_CHECK_GT(out_features, 0);
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight_ = Tensor::Uniform(Shape({in_features, out_features}), -bound, bound,
                            rng, /*requires_grad=*/true);
  if (use_bias) {
    bias_ = Tensor::Zeros(Shape({out_features}), /*requires_grad=*/true);
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  STSM_PROF_SCOPE("linear.fwd");
  STSM_CHECK_EQ(x.shape()[-1], in_features_);
  if (!x.is_contiguous() && x.ndim() >= 2) {
    // Strided input (a transpose/slice view): batched matmul reads it
    // through its strides directly — the GEMM packing absorbs the layout —
    // so skip the flatten, which would force a Contiguous copy. Per output
    // element the flop order matches the flattened path exactly.
    Tensor y = MatMul(x, weight_);
    if (bias_.defined()) y = Add(y, bias_);
    return y;
  }
  // Contiguous input: flatten all leading dims into the matmul row
  // dimension (zero-copy) so the whole batch runs as one large GEMM.
  const Shape original = x.shape();
  std::vector<int64_t> flat_dims = {x.numel() / in_features_, in_features_};
  Tensor y = MatMul(Reshape(x, Shape(flat_dims)), weight_);
  if (bias_.defined()) y = Add(y, bias_);
  std::vector<int64_t> out_dims = original.dims();
  out_dims.back() = out_features_;
  return Reshape(y, Shape(out_dims));
}

std::vector<Tensor> Linear::Parameters() const {
  if (bias_.defined()) return {weight_, bias_};
  return {weight_};
}

}  // namespace stsm
