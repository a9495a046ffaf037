// Tensor: a dense float32 n-dimensional array with reverse-mode automatic
// differentiation over an explicit graph of autograd nodes.
//
// A `Tensor` is a cheap value-semantic handle onto a shared `TensorImpl`,
// which in turn is {Storage, shape, strides, offset}: the ref-counted
// `Storage` owns the contiguous data buffer (and the gradient buffer, once
// one is needed) while the impl carries the metadata. Because element
// strides are explicit, every pure-layout op — `Reshape`, `Unsqueeze`,
// `Squeeze`, `Detach`, `Transpose`, `Slice` (any dimension), `Narrow`, and
// `Select` — returns a zero-copy view: a new impl aliasing the same Storage
// at an element offset with its own strides. `Contiguous()` compacts a
// strided view into row-major order (a no-op handle copy when the tensor is
// already contiguous); `Clone()` is the deep copy.
//
// Operations on tensors (declared in tensor/ops.h) record the computation
// graph when gradient mode is enabled and any input requires gradients;
// calling `Backward()` on a scalar result walks the node graph and
// accumulates gradients into every tensor with `requires_grad() == true`
// that contributed to it. The walk releases each node's saved activations
// as soon as its gradient has been routed, returning their buffers to the
// BufferPool — so a graph can only be backward-ed once.
//
// Example:
//   Tensor w = Tensor::Normal({4, 2}, 0.f, 0.1f, &rng, /*requires_grad=*/true);
//   Tensor x = Tensor::Ones({3, 4});
//   Tensor h = Reshape(MatMul(x, w), Shape({6}));  // zero-copy view
//   Tensor loss = Mean(Square(h));
//   loss.Backward();
//   // w.grad_data() now holds dLoss/dw; the graph's intermediate buffers
//   // are already back in the pool.

#ifndef STSM_TENSOR_TENSOR_H_
#define STSM_TENSOR_TENSOR_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tensor/autograd.h"
#include "tensor/shape.h"
#include "tensor/storage.h"

namespace stsm {

// Shared tensor node: metadata over a Storage. Public members are used by
// the op implementations in tensor/ops.cc; application code should go
// through the Tensor interface.
struct TensorImpl {
  Shape shape;
  // Element strides, one per dimension. Row-major (`shape.Strides()`) for
  // freshly created tensors; views carry whatever layout they alias.
  // Strides of size-1 dimensions are never stepped and carry no meaning.
  std::vector<int64_t> strides;
  std::shared_ptr<Storage> storage;
  // Element offset of this tensor's first element inside `storage`. Always 0
  // for non-view tensors.
  int64_t offset = 0;
  bool requires_grad = false;

  // The autograd node that produced this tensor; null for leaves (factory
  // tensors, detached tensors, and anything built with recording off).
  std::shared_ptr<autograd::Node> grad_fn;

  float* data() { return storage->data() + offset; }
  const float* data() const { return storage->data() + offset; }

  // True when the logical element order coincides with the physical layout:
  // stride[d] == product(shape[d+1:]) for every dimension with size > 1.
  // Every kernel in tensor/ops.cc takes a flat-loop fast path when this
  // holds and a generic strided path otherwise.
  bool is_contiguous() const {
    int64_t expected = 1;
    for (int d = shape.ndim() - 1; d >= 0; --d) {
      if (shape.dims()[d] != 1 && strides[d] != expected) return false;
      expected *= shape.dims()[d];
    }
    return true;
  }

  // Physical element offset (relative to data()) of logical linear index
  // `logical`. Intended for glue code and tests, not inner loops.
  int64_t PhysicalIndex(int64_t logical) const {
    int64_t physical = 0;
    for (int d = shape.ndim() - 1; d >= 0; --d) {
      physical += (logical % shape.dims()[d]) * strides[d];
      logical /= shape.dims()[d];
    }
    return physical;
  }

  // Gradient buffer access. The grad buffer belongs to the Storage and is
  // shared by all views of it; these accessors are pre-offset like data().
  bool has_grad() const { return storage != nullptr && storage->has_grad(); }
  // Allocates (zero-filled) gradient storage if not yet present.
  void EnsureGrad() { storage->EnsureGrad(); }
  float* grad() { return storage->grad() + offset; }
  // Null when no gradient has been allocated.
  const float* grad() const {
    return has_grad() ? storage->grad() + offset : nullptr;
  }

  bool is_leaf() const { return grad_fn == nullptr; }
};

// Value-semantic handle to a TensorImpl. A default-constructed Tensor is
// "undefined" and may not be used in operations.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // ---- Factories -----------------------------------------------------------

  static Tensor Zeros(const Shape& shape, bool requires_grad = false);
  static Tensor Ones(const Shape& shape, bool requires_grad = false);
  static Tensor Full(const Shape& shape, float value,
                     bool requires_grad = false);
  // Takes ownership of `values` (no copy); its size must equal shape.numel().
  static Tensor FromVector(const Shape& shape, std::vector<float> values,
                           bool requires_grad = false);
  static Tensor Scalar(float value, bool requires_grad = false);
  // Uniform in [lo, hi).
  static Tensor Uniform(const Shape& shape, float lo, float hi, Rng* rng,
                        bool requires_grad = false);
  static Tensor Normal(const Shape& shape, float mean, float stddev, Rng* rng,
                       bool requires_grad = false);
  // Identity matrix of size n x n.
  static Tensor Eye(int64_t n);

  // ---- Introspection -------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int ndim() const { return shape().ndim(); }
  int64_t numel() const { return shape().numel(); }
  int64_t size(int dim) const { return shape()[dim]; }

  // Pointer to the first element. For non-contiguous views the elements are
  // NOT laid out linearly behind this pointer — use at()/Contiguous()/Clone()
  // (or the stride-aware ops) unless is_contiguous() holds.
  float* data();
  const float* data() const;

  // True when the logical element order matches the physical layout; raw
  // linear iteration over data() is only valid when this holds.
  bool is_contiguous() const;
  const std::vector<int64_t>& strides() const;

  // Value of a single-element tensor.
  float item() const;

  // Element access by multi-index (bounds-checked; intended for tests and
  // glue code, not inner loops).
  float at(std::initializer_list<int64_t> index) const;
  void set(std::initializer_list<int64_t> index, float value);

  // ---- Autograd ------------------------------------------------------------

  bool requires_grad() const;
  // Marks a leaf as requiring gradients. Must not be called on a tensor that
  // already has a recorded history.
  Tensor& set_requires_grad(bool value);

  // True once gradient storage exists (i.e. after Backward() or an explicit
  // mutable grad_data() call).
  bool has_grad() const;

  // Mutable gradient access: allocates zero-filled gradient storage on
  // demand and returns it.
  float* grad_data();
  // Const gradient access never mutates: it returns nullptr until gradient
  // storage exists. Check has_grad() (or use GradTensor(), which yields
  // zeros) when the tensor may not have been backward-ed yet.
  const float* grad_data() const;
  // Returns a copy of the gradient as a tensor of the same shape (zeros if
  // no gradient has been accumulated).
  Tensor GradTensor() const;
  // Zero-copy alias of this tensor's gradient window as a Tensor (same
  // shape/strides/offset, over the grad buffer). Allocates the grad buffer
  // if not yet present. Writes through the view mutate the gradient — this
  // is how the optimizer and ClipGradNorm apply the in-place ops to grads.
  Tensor GradView();
  // Zeroes this tensor's gradient range only. For a view, that is the
  // [offset, offset + numel()) window of the shared grad buffer — sibling
  // views' accumulated gradients outside the range are untouched.
  void ZeroGrad();

  // Runs reverse-mode differentiation from this tensor, which must be a
  // scalar (numel() == 1). Gradients accumulate (+=) into `grad` of every
  // reachable tensor with requires_grad() set. Saved activations are
  // released eagerly as the walk passes them, so calling Backward() twice
  // through the same graph is a checked error (build a fresh graph per
  // step, as every training loop here already does).
  void Backward();

  // Returns a tensor that shares this tensor's storage (zero-copy alias)
  // but is detached from the autograd graph: no grad_fn, requires_grad
  // false. In-place writes through either handle are visible to both; use
  // Clone() for an independent copy.
  Tensor Detach() const;

  // Deep copy of the data into fresh storage (detached leaf).
  Tensor Clone() const;

  // True when this tensor aliases a sub-range or reinterpretation of a
  // shared Storage rather than owning it end-to-end.
  bool is_view() const;

  // Human-readable summary (shape plus leading values) for debugging.
  std::string ToString() const;

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

// The grad-mode switch and its RAII guard live in tensor/autograd.h
// (autograd::NoGradGuard / autograd::GradModeEnabled); these aliases keep
// the shorter spelling every call site already uses.
using autograd::NoGradGuard;
using autograd::GradModeEnabled;

namespace internal {

// Creates an op output impl backed by fresh pool storage. When `zero` is
// false the buffer content is unspecified and the op must write every
// element. When recording is active and any input requires grad, the result
// is marked requires_grad; the caller then attaches the op's autograd node
// via `result->grad_fn = ...`.
std::shared_ptr<TensorImpl> MakeResult(
    const Shape& shape, const std::vector<std::shared_ptr<TensorImpl>>& inputs,
    bool zero = true);

// Creates a zero-copy view of `base` with the given shape, strides and
// absolute storage offset. Attaches a ViewNode when recording is active and
// the base requires grad.
std::shared_ptr<TensorImpl> MakeView(const std::shared_ptr<TensorImpl>& base,
                                     const Shape& shape,
                                     std::vector<int64_t> strides,
                                     int64_t offset);

// True if autograd should record for this set of inputs.
bool ShouldRecord(const std::vector<std::shared_ptr<TensorImpl>>& inputs);

}  // namespace internal

}  // namespace stsm

#endif  // STSM_TENSOR_TENSOR_H_
