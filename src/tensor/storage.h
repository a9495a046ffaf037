// Storage: the ref-counted buffer block behind one or more TensorImpls.
//
// A Storage owns a contiguous fp32 data buffer of `size()` elements and,
// once gradients are needed, a parallel grad buffer of the same size.
// Zero-copy views (Reshape / Squeeze / Unsqueeze / Detach / contiguous
// Slice) are separate TensorImpls pointing at the same Storage with their
// own shape and element offset; because the grad buffer lives here too,
// gradient accumulation into a view lands directly in the base tensor's
// gradient at the view's offset — no scatter pass is needed.
//
// Buffers come from (and return to) the process-wide BufferPool, so dropping
// a Storage during the backward walk recycles its memory for the next op.

#ifndef STSM_TENSOR_STORAGE_H_
#define STSM_TENSOR_STORAGE_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace stsm {

// Exports the BufferPool counters into stsm::prof (delta since the last
// call; see BufferPool::RecordProfCounters). This is the public face of the
// pool for code outside src/tensor/ — training loops call it once per epoch
// without including the pool header.
void RecordPoolProfCounters();

class Storage {
 public:
  // Pool-backed buffer of `size` elements (zero-filled unless `zero` is
  // false, in which case the content is unspecified and the caller must
  // overwrite every element).
  static std::shared_ptr<Storage> New(int64_t size, bool zero = true);

  // Adopts an existing vector without copying (Tensor::FromVector).
  static std::shared_ptr<Storage> Adopt(std::vector<float> values);

  ~Storage();
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  int64_t size() const { return static_cast<int64_t>(data_.size()); }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  // Gradient buffer management. The grad buffer covers the whole storage
  // (all views share it) and is zero-initialised on first allocation. It is
  // itself a Storage so that a parameter's gradient can be wrapped in a
  // Tensor (Tensor::GradView) and fed to the in-place ops.
  bool has_grad() const { return grad_ != nullptr; }
  void EnsureGrad();

  // Process-wide count of grad-buffer allocations (EnsureGrad calls that
  // actually acquired a buffer). Lets tests assert that a NoGradGuard-ed
  // forward allocated zero gradient storage.
  static uint64_t GradAllocations();
  float* grad() { return grad_->data(); }
  const float* grad() const { return grad_->data(); }
  // The grad buffer as a Storage (null until EnsureGrad).
  const std::shared_ptr<Storage>& grad_storage() const { return grad_; }
  // Returns the grad buffer to the pool (ZeroGrad keeps it; this drops it).
  void FreeGrad();

 private:
  struct Private {};  // make_shared-able but only via the factories.

 public:
  Storage(Private, std::vector<float> data, bool adopted);

 private:
  std::vector<float> data_;
  std::shared_ptr<Storage> grad_;
};

}  // namespace stsm

#endif  // STSM_TENSOR_STORAGE_H_
