#include "tensor/storage.h"

#include <atomic>
#include <utility>

#include "tensor/pool.h"

namespace stsm {

namespace {

std::atomic<uint64_t> g_grad_allocations{0};

}  // namespace

uint64_t Storage::GradAllocations() {
  return g_grad_allocations.load(std::memory_order_relaxed);
}

Storage::Storage(Private, std::vector<float> data, bool adopted)
    : data_(std::move(data)) {
  // Empty buffers never reach Release, so don't count them as live.
  if (adopted && data_.capacity() > 0) BufferPool::Instance().RecordAdopt();
}

std::shared_ptr<Storage> Storage::New(int64_t size, bool zero) {
  return std::make_shared<Storage>(
      Private{}, BufferPool::Instance().Acquire(size, zero), /*adopted=*/false);
}

std::shared_ptr<Storage> Storage::Adopt(std::vector<float> values) {
  return std::make_shared<Storage>(Private{}, std::move(values),
                                   /*adopted=*/true);
}

Storage::~Storage() {
  BufferPool::Instance().Release(std::move(data_));
  // grad_ (if any) is its own Storage and releases itself.
}

void Storage::EnsureGrad() {
  if (grad_ == nullptr && !data_.empty()) {
    grad_ = Storage::New(size(), /*zero=*/true);
    g_grad_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void Storage::FreeGrad() { grad_.reset(); }

}  // namespace stsm
