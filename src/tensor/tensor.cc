#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/prof.h"

namespace stsm {

// ---- Factories --------------------------------------------------------------

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->strides = shape.Strides();
  impl->storage = Storage::New(shape.numel(), /*zero=*/true);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Ones(const Shape& shape, bool requires_grad) {
  return Full(shape, 1.0f, requires_grad);
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  if (value == 0.0f) return Zeros(shape, requires_grad);
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->strides = shape.Strides();
  impl->storage = Storage::New(shape.numel(), /*zero=*/false);
  std::fill(impl->storage->data(), impl->storage->data() + shape.numel(),
            value);
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<float> values,
                          bool requires_grad) {
  STSM_CHECK_EQ(static_cast<int64_t>(values.size()), shape.numel());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->strides = shape.Strides();
  impl->storage = Storage::Adopt(std::move(values));
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return Full(Shape({}), value, requires_grad);
}

Tensor Tensor::Uniform(const Shape& shape, float lo, float hi, Rng* rng,
                       bool requires_grad) {
  STSM_CHECK(rng != nullptr);
  std::vector<float> values(shape.numel());
  for (auto& v : values) v = static_cast<float>(rng->Uniform(lo, hi));
  return FromVector(shape, std::move(values), requires_grad);
}

Tensor Tensor::Normal(const Shape& shape, float mean, float stddev, Rng* rng,
                      bool requires_grad) {
  STSM_CHECK(rng != nullptr);
  std::vector<float> values(shape.numel());
  for (auto& v : values) v = static_cast<float>(rng->Normal(mean, stddev));
  return FromVector(shape, std::move(values), requires_grad);
}

Tensor Tensor::Eye(int64_t n) {
  Tensor t = Zeros(Shape({n, n}));
  float* d = t.data();
  for (int64_t i = 0; i < n; ++i) d[i * n + i] = 1.0f;
  return t;
}

// ---- Introspection ----------------------------------------------------------

const Shape& Tensor::shape() const {
  STSM_CHECK(defined());
  return impl_->shape;
}

float* Tensor::data() {
  STSM_CHECK(defined());
  return impl_->data();
}

const float* Tensor::data() const {
  STSM_CHECK(defined());
  return impl_->data();
}

bool Tensor::is_contiguous() const {
  STSM_CHECK(defined());
  return impl_->is_contiguous();
}

const std::vector<int64_t>& Tensor::strides() const {
  STSM_CHECK(defined());
  return impl_->strides;
}

float Tensor::item() const {
  STSM_CHECK_EQ(numel(), 1);
  return impl_->data()[0];
}

namespace {

// Physical element offset (relative to data()) of a bounds-checked
// multi-index under the impl's own strides.
int64_t StridedIndex(const TensorImpl& impl,
                     std::initializer_list<int64_t> index) {
  STSM_CHECK_EQ(static_cast<int>(index.size()), impl.shape.ndim());
  int64_t physical = 0;
  int d = 0;
  for (int64_t i : index) {
    STSM_CHECK_GE(i, 0);
    STSM_CHECK_LT(i, impl.shape[d]);
    physical += i * impl.strides[d];
    ++d;
  }
  return physical;
}

}  // namespace

float Tensor::at(std::initializer_list<int64_t> index) const {
  return data()[StridedIndex(*impl_, index)];
}

void Tensor::set(std::initializer_list<int64_t> index, float value) {
  data()[StridedIndex(*impl_, index)] = value;
}

// ---- Autograd ---------------------------------------------------------------

bool Tensor::requires_grad() const {
  STSM_CHECK(defined());
  return impl_->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool value) {
  STSM_CHECK(defined());
  STSM_CHECK(impl_->is_leaf())
      << "set_requires_grad is only valid on leaf tensors";
  impl_->requires_grad = value;
  return *this;
}

bool Tensor::has_grad() const {
  STSM_CHECK(defined());
  return impl_->has_grad();
}

float* Tensor::grad_data() {
  STSM_CHECK(defined());
  impl_->EnsureGrad();
  return impl_->grad();
}

const float* Tensor::grad_data() const {
  STSM_CHECK(defined());
  // A const read must not allocate: before any gradient exists the caller
  // gets nullptr (see has_grad() / GradTensor()). Go through a const
  // reference so the null-safe const overload of TensorImpl::grad() is
  // picked (shared_ptr does not propagate constness to the pointee).
  const TensorImpl& impl = *impl_;
  return impl.grad();
}

Tensor Tensor::GradTensor() const {
  STSM_CHECK(defined());
  const int64_t n = numel();
  std::vector<float> grad_copy(static_cast<size_t>(n), 0.0f);
  if (impl_->has_grad()) {
    const float* g = impl_->grad();
    if (impl_->is_contiguous()) {
      std::copy(g, g + n, grad_copy.begin());
    } else {
      for (int64_t i = 0; i < n; ++i) grad_copy[i] = g[impl_->PhysicalIndex(i)];
    }
  }
  return FromVector(impl_->shape, std::move(grad_copy));
}

Tensor Tensor::GradView() {
  STSM_CHECK(defined());
  impl_->EnsureGrad();
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->strides = impl_->strides;
  impl->storage = impl_->storage->grad_storage();
  impl->offset = impl_->offset;
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

void Tensor::ZeroGrad() {
  STSM_CHECK(defined());
  if (!impl_->has_grad()) return;
  // Only this tensor's window: views must not clobber siblings' gradients.
  float* g = impl_->grad();
  if (impl_->is_contiguous()) {
    std::fill(g, g + numel(), 0.0f);
  } else {
    const int64_t n = numel();
    for (int64_t i = 0; i < n; ++i) g[impl_->PhysicalIndex(i)] = 0.0f;
  }
}

void Tensor::Backward() {
  STSM_PROF_SCOPE("autograd.backward");
  STSM_CHECK(defined());
  STSM_CHECK_EQ(numel(), 1) << "Backward() requires a scalar loss";

  // Topological order over the node graph (inputs before outputs in
  // `order`). The vector holds strong references: they are what keeps each
  // impl alive exactly until the walk has passed it.
  std::vector<std::shared_ptr<TensorImpl>> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<std::shared_ptr<TensorImpl>, size_t>> stack;
  stack.emplace_back(impl_, 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, next_input] = stack.back();
    const autograd::Node* fn = node->grad_fn.get();
    if (fn != nullptr) {
      STSM_CHECK(!fn->released())
          << "Backward() through an already-backward-ed graph: node"
          << fn->name()
          << "has released its saved activations. Each graph supports a "
             "single Backward() call.";
    }
    const size_t num_inputs = fn ? fn->inputs().size() : 0;
    if (next_input < num_inputs) {
      const std::shared_ptr<TensorImpl>& input = fn->inputs()[next_input];
      ++next_input;
      if (visited.insert(input.get()).second) stack.emplace_back(input, 0);
    } else {
      order.push_back(std::move(node));
      stack.pop_back();
    }
  }

  impl_->EnsureGrad();
  impl_->grad()[0] += 1.0f;

  // `order` has the root last; walk outputs-to-inputs. After a node has
  // routed its gradient it releases its saved activations, and dropping our
  // reference frees the impl (and recycles its buffers) unless the caller
  // still holds a handle — peak memory tracks the walk frontier.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::shared_ptr<TensorImpl>& node = *it;
    if (node->grad_fn != nullptr) {
      node->grad_fn->Run(node.get());
      STSM_PROF_COUNT("autograd.nodes_run", 1);
    }
    node.reset();
  }
}

Tensor Tensor::Detach() const {
  STSM_CHECK(defined());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->strides = impl_->strides;
  impl->storage = impl_->storage;  // Zero-copy alias of the same buffer.
  impl->offset = impl_->offset;
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

Tensor Tensor::Clone() const {
  STSM_CHECK(defined());
  const int64_t n = numel();
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->strides = impl_->shape.Strides();  // A clone is always compact.
  impl->storage = Storage::New(n, /*zero=*/false);
  if (impl_->is_contiguous()) {
    std::memcpy(impl->storage->data(), impl_->data(),
                sizeof(float) * static_cast<size_t>(n));
  } else {
    // Gather the logical contents of a strided view into row-major order.
    float* dst = impl->storage->data();
    const float* src = impl_->data();
    for (int64_t i = 0; i < n; ++i) dst[i] = src[impl_->PhysicalIndex(i)];
  }
  impl->requires_grad = false;
  return Tensor(std::move(impl));
}

bool Tensor::is_view() const {
  STSM_CHECK(defined());
  return impl_->offset != 0 || impl_->storage->size() != numel() ||
         !impl_->is_contiguous();
}

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream out;
  out << "Tensor" << shape().ToString();
  out << " [";
  const int64_t preview = std::min<int64_t>(numel(), 8);
  const bool contig = impl_->is_contiguous();
  const float* d = impl_->data();
  for (int64_t i = 0; i < preview; ++i) {
    if (i > 0) out << ", ";
    const int64_t p = contig ? i : impl_->PhysicalIndex(i);
    out << d[p];
  }
  if (numel() > preview) out << ", ...";
  out << "]";
  return out.str();
}

namespace internal {

bool ShouldRecord(const std::vector<std::shared_ptr<TensorImpl>>& inputs) {
  if (!GradModeEnabled()) return false;
  for (const auto& input : inputs) {
    if (input && input->requires_grad) return true;
  }
  return false;
}

std::shared_ptr<TensorImpl> MakeResult(
    const Shape& shape, const std::vector<std::shared_ptr<TensorImpl>>& inputs,
    bool zero) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->strides = shape.Strides();
  impl->storage = Storage::New(shape.numel(), zero);
  if (ShouldRecord(inputs)) impl->requires_grad = true;
  return impl;
}

std::shared_ptr<TensorImpl> MakeView(const std::shared_ptr<TensorImpl>& base,
                                     const Shape& shape,
                                     std::vector<int64_t> strides,
                                     int64_t offset) {
  STSM_CHECK(base != nullptr);
  STSM_CHECK_GE(offset, 0);
  STSM_CHECK_EQ(static_cast<int>(strides.size()), shape.ndim());
  // The furthest element the view can reach must stay inside the storage.
  int64_t max_reach = offset;
  for (int d = 0; d < shape.ndim(); ++d) {
    if (shape[d] > 0) max_reach += (shape[d] - 1) * strides[d];
  }
  STSM_CHECK_LT(max_reach, base->storage->size());
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->strides = std::move(strides);
  impl->storage = base->storage;
  impl->offset = offset;
  if (ShouldRecord({base})) {
    impl->requires_grad = true;
    impl->grad_fn = std::make_shared<autograd::ViewNode>(base);
  }
  return impl;
}

}  // namespace internal

}  // namespace stsm
