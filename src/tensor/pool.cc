#include "tensor/pool.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/env.h"
#include "common/prof.h"
#include "tensor/storage.h"

namespace stsm {

namespace {

// Recycling would hide use-after-free and leaks from the sanitizers, so
// sanitizer builds always go through malloc/free.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_MEMORY__)
constexpr bool kSanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(memory_sanitizer)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif
#else
constexpr bool kSanitizerBuild = false;
#endif

// Smallest b with 2^b >= bytes (bytes >= 1).
int BucketForRequest(int64_t bytes) {
  int b = 0;
  while ((int64_t{1} << b) < bytes) ++b;
  return b;
}

// Largest b with 2^b <= byte capacity (capacity >= 1): every buffer in
// bucket b can serve any request with ceil(log2(bytes)) == b.
int BucketForCapacity(size_t capacity_bytes) {
  int b = 0;
  while ((size_t{2} << b) <= capacity_bytes) ++b;
  return b;
}

}  // namespace

BufferPool& BufferPool::Instance() {
  static BufferPool* pool = new BufferPool();  // Intentionally leaked.
  return *pool;
}

BufferPool::BufferPool() {
  max_cached_bytes_ =
      static_cast<uint64_t>(GetEnvOr("STSM_POOL_MAX_MB", 512)) << 20;
  recycling_enabled_ =
      !kSanitizerBuild && GetEnvOr("STSM_POOL", 1) != 0;
}

std::vector<float> BufferPool::Acquire(int64_t n, bool zero) {
  STSM_CHECK_GE(n, 0);
  if (n == 0) return {};
  const int64_t bytes = n * static_cast<int64_t>(sizeof(float));
  std::vector<float> buffer;
  bool hit = false;
  {
    MutexLock lock(mutex_);
    stats_.acquires++;
    stats_.bytes_requested += static_cast<uint64_t>(bytes);
    const int first = BucketForRequest(bytes);
    const int last = std::min(first + kMaxWasteClasses, kNumBuckets - 1);
    for (int b = first; b <= last && !hit; ++b) {
      auto& bucket = buckets_[b];
      if (!bucket.empty()) {
        buffer = std::move(bucket.back());
        bucket.pop_back();
        stats_.cached_buffers--;
        stats_.cached_bytes -= buffer.capacity() * sizeof(float);
        stats_.hits++;
        stats_.bytes_reused += static_cast<uint64_t>(bytes);
        hit = true;
      }
    }
    if (!hit) stats_.misses++;
    stats_.live_buffers++;
  }
  if (hit) {
    if (zero) {
      buffer.assign(static_cast<size_t>(n), 0.0f);
    } else {
      buffer.resize(static_cast<size_t>(n));
    }
  } else {
    // Fresh allocation, rounded up to the bucket's byte size so the buffer
    // recycles cleanly (capacity stays in its class across resize calls).
    const size_t bucket_floats =
        (size_t{1} << BucketForRequest(bytes)) / sizeof(float);
    buffer.reserve(bucket_floats);
    buffer.resize(static_cast<size_t>(n), 0.0f);
  }
  return buffer;
}

void BufferPool::Release(std::vector<float>&& buffer) {
  if (buffer.capacity() == 0) return;
  std::vector<float> to_free;  // Freed outside the lock.
  {
    MutexLock lock(mutex_);
    stats_.releases++;
    stats_.live_buffers--;
    const uint64_t bytes = buffer.capacity() * sizeof(float);
    if (recycling_enabled_ &&
        stats_.cached_bytes + bytes <= max_cached_bytes_) {
      const int b = BucketForCapacity(bytes);
      buckets_[b].push_back(std::move(buffer));
      stats_.cached_buffers++;
      stats_.cached_bytes += bytes;
    } else {
      to_free = std::move(buffer);
    }
  }
}

void BufferPool::RecordAdopt() {
  MutexLock lock(mutex_);
  stats_.adopts++;
  stats_.live_buffers++;
}

BufferPoolStats BufferPool::Stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void BufferPool::Clear() {
  std::vector<std::vector<float>> dropped;
  MutexLock lock(mutex_);
  for (auto& bucket : buckets_) {
    for (auto& buffer : bucket) dropped.push_back(std::move(buffer));
    bucket.clear();
  }
  stats_.cached_buffers = 0;
  stats_.cached_bytes = 0;
}

void BufferPool::ResetStats() {
  MutexLock lock(mutex_);
  const uint64_t cached_buffers = stats_.cached_buffers;
  const uint64_t cached_bytes = stats_.cached_bytes;
  const uint64_t live = stats_.live_buffers;
  stats_ = BufferPoolStats{};
  stats_.cached_buffers = cached_buffers;
  stats_.cached_bytes = cached_bytes;
  stats_.live_buffers = live;
  exported_ = BufferPoolStats{};
}

void BufferPool::set_recycling_enabled(bool enabled) {
  MutexLock lock(mutex_);
  recycling_enabled_ = !kSanitizerBuild && enabled;
}

void BufferPool::RecordProfCounters() {
  BufferPoolStats delta;
  {
    MutexLock lock(mutex_);
    delta.acquires = stats_.acquires - exported_.acquires;
    delta.hits = stats_.hits - exported_.hits;
    delta.misses = stats_.misses - exported_.misses;
    delta.adopts = stats_.adopts - exported_.adopts;
    delta.releases = stats_.releases - exported_.releases;
    delta.bytes_requested =
        stats_.bytes_requested - exported_.bytes_requested;
    delta.bytes_reused = stats_.bytes_reused - exported_.bytes_reused;
    exported_ = stats_;
  }
  STSM_PROF_COUNT("pool.acquire", delta.acquires);
  STSM_PROF_COUNT("pool.hit", delta.hits);
  STSM_PROF_COUNT("pool.miss", delta.misses);
  STSM_PROF_COUNT("pool.adopt", delta.adopts);
  STSM_PROF_COUNT("pool.release", delta.releases);
  STSM_PROF_COUNT("pool.bytes_requested", delta.bytes_requested);
  STSM_PROF_COUNT("pool.bytes_reused", delta.bytes_reused);
}

void RecordPoolProfCounters() { BufferPool::Instance().RecordProfCounters(); }

}  // namespace stsm
