// BufferPool: a thread-safe, size-bucketed recycler for the raw buffers
// behind tensor Storage.
//
// Training loops allocate and drop the same handful of buffer sizes every
// step (op outputs, gradient buffers, saved activations released during the
// backward walk). The pool keeps freed buffers in power-of-two byte size
// buckets and hands them back on the next request of a compatible size, so
// steady state training performs almost no malloc/free traffic.
//
// Thread-safety contract: every public member function may be called from
// any thread concurrently; the pool serialises free-list access with a
// single internal mutex (acquisition is O(1): one bucket pop). Statistics
// are plain counters updated under the same mutex, so a Stats() snapshot is
// internally consistent. Buffers themselves are NOT synchronised — a buffer
// returned by Acquire is owned exclusively by the caller until Release.
//
// Sanitizer builds (ASan/MSan) disable recycling at compile time so that
// use-after-free and leak detection keep seeing real malloc/free events;
// statistics still work (every acquire is a miss). STSM_POOL=0 in the
// environment disables recycling at runtime.

#ifndef STSM_TENSOR_POOL_H_
#define STSM_TENSOR_POOL_H_

#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"

namespace stsm {

// Point-in-time view of the pool counters. All counts are cumulative since
// process start (or the last ResetStats), except cached_* and live_buffers
// which are gauges.
struct BufferPoolStats {
  uint64_t acquires = 0;       // Acquire() calls.
  uint64_t hits = 0;           // Acquires served from a free list.
  uint64_t misses = 0;         // Acquires that had to allocate.
  uint64_t adopts = 0;         // Buffers that entered via Adopt (FromVector).
  uint64_t releases = 0;       // Buffers returned (cached or freed).
  uint64_t bytes_requested = 0;  // Sum of requested byte sizes across acquires.
  uint64_t bytes_reused = 0;     // Requested bytes served by hits.
  uint64_t cached_buffers = 0;   // Gauge: buffers sitting in free lists.
  uint64_t cached_bytes = 0;     // Gauge: capacity bytes in free lists.
  // Gauge: buffers handed out (acquired or adopted) and not yet released.
  // Zero when every Storage has been destroyed — the leak check.
  uint64_t live_buffers = 0;
};

class BufferPool {
 public:
  // Process-wide pool used by Storage. Never destroyed (leaked on exit) so
  // that static-duration tensors can release safely in any order.
  static BufferPool& Instance();

  BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Returns a buffer of exactly `n` floats. When `zero` is set the content
  // is all zeros; otherwise it is unspecified (fully-overwriting ops skip
  // the zero-fill). n == 0 returns an empty vector without touching the
  // pool.
  std::vector<float> Acquire(int64_t n, bool zero) STSM_EXCLUDES(mutex_);

  // Returns a buffer to the pool. Recycles it into a free list when
  // recycling is on and the cache cap is not exceeded; frees it otherwise.
  void Release(std::vector<float>&& buffer) STSM_EXCLUDES(mutex_);

  // Records a buffer that was allocated outside the pool but will be
  // Released through it later (Storage adopting a caller's vector). Keeps
  // the live_buffers gauge balanced.
  void RecordAdopt() STSM_EXCLUDES(mutex_);

  BufferPoolStats Stats() const STSM_EXCLUDES(mutex_);

  // Drops all cached buffers (free lists only; live buffers are untouched).
  void Clear() STSM_EXCLUDES(mutex_);

  // Zeroes the cumulative counters; gauges are recomputed, not reset.
  void ResetStats() STSM_EXCLUDES(mutex_);

  // True when freed buffers are kept for reuse (false under sanitizers or
  // STSM_POOL=0; Acquire/Release bookkeeping still runs).
  bool recycling_enabled() const STSM_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return recycling_enabled_;
  }
  void set_recycling_enabled(bool enabled) STSM_EXCLUDES(mutex_);

  // Exports the counters through stsm::prof as monotonic counters. Prefer
  // the RecordPoolProfCounters() free function outside src/tensor/ — client
  // code must not include this header (enforced by tools/stsm_lint.py).
  // ("pool.acquire", "pool.hit", "pool.miss", "pool.adopt", "pool.release",
  // "pool.bytes_requested", "pool.bytes_reused"). Each call records only the
  // delta since the previous call, so repeated exports (e.g. once per epoch
  // plus once before a snapshot) sum to the true totals. Net leaked buffers
  // at export time = pool.acquire + pool.adopt - pool.release.
  void RecordProfCounters() STSM_EXCLUDES(mutex_);

 private:
  // One free list per power-of-two byte-capacity class. Bucket b holds
  // buffers with byte capacity in [2^b, 2^(b+1)); a request of s bytes looks
  // in the first bucket whose every member is guaranteed to fit s, i.e.
  // ceil(log2(s)), and at most kMaxWasteClasses above it — a small request
  // must not hog a much larger cached buffer that a later large request
  // would then miss.
  static constexpr int kNumBuckets = 42;
  static constexpr int kMaxWasteClasses = 2;

  mutable Mutex mutex_;
  std::vector<std::vector<float>> buckets_[kNumBuckets] STSM_GUARDED_BY(
      mutex_);
  BufferPoolStats stats_ STSM_GUARDED_BY(mutex_);
  uint64_t max_cached_bytes_ STSM_GUARDED_BY(mutex_);
  bool recycling_enabled_ STSM_GUARDED_BY(mutex_);

  // Deltas already exported to stsm::prof.
  BufferPoolStats exported_ STSM_GUARDED_BY(mutex_);
};

}  // namespace stsm

#endif  // STSM_TENSOR_POOL_H_
