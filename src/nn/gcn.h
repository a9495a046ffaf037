// Graph convolution layers (STSM Eq. 6-7).

#ifndef STSM_NN_GCN_H_
#define STSM_NN_GCN_H_

#include "common/rng.h"
#include "nn/module.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace stsm {

// One graph convolution: GCN(A, Z) = Â Z W (Eq. 6), where the normalised
// adjacency Â is supplied at call time so the same weights can be used with
// different graphs (training vs testing graphs in STSM).
class GcnLayer : public Module {
 public:
  GcnLayer(int64_t in_features, int64_t out_features, Rng* rng);

  // adj: [N, N] (constant, pre-normalised), dense or CSR — node mixing
  // routes to MatMul or SpMM accordingly; x: [..., N, in] -> [..., N, out].
  Tensor Forward(const Adjacency& adj, const Tensor& x) const;

  // The feature step alone, Add(MatMul(ax, W), b), on an already propagated
  // ax = Â·x: layers that share one propagation (GcnlLayer) call this.
  Tensor Transform(const Tensor& ax) const;

  std::vector<Tensor> Parameters() const override;

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out]
};

// Gated GCN layer (Eq. 7): GCNL(A, Z) = GCN(A, Z) * sigmoid(GCN'(A, Z)) with
// two parallel graph convolutions acting as value and gate. Both read the
// same Â·Z, so it is propagated once and fed to both feature steps.
class GcnlLayer : public Module {
 public:
  GcnlLayer(int64_t in_features, int64_t out_features, Rng* rng);

  Tensor Forward(const Adjacency& adj, const Tensor& x) const;

  std::vector<Tensor> Parameters() const override;

 private:
  GcnLayer value_;
  GcnLayer gate_;
};

}  // namespace stsm

#endif  // STSM_NN_GCN_H_
