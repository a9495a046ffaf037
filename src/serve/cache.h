// LRU forecast cache: identical queries (same model, observation window,
// start step and region set) are answered without touching the model.
//
// Keys are exact: the observation window is stored in the key and compared
// float by float, so a hash collision can never return another request's
// forecast. Its 64-bit FNV-1a hash only picks the bucket. The key also
// carries the generation of the model that produced the entry, so after a
// checkpoint hot-swap the replaced model's forecasts are never served.
// Thread-safe behind one mutex — the cache sits on the request fast path,
// where a single uncontended lock is cheaper than a model forward by several
// orders of magnitude.

#ifndef STSM_SERVE_CACHE_H_
#define STSM_SERVE_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"

namespace stsm {
namespace serve {

// FNV-1a over the raw bytes of the float window.
uint64_t HashWindow(const std::vector<float>& window);

struct CacheKey {
  std::string model;
  // HashWindow(window): the bucket hash, compared first as a cheap filter.
  uint64_t window_hash = 0;
  int start_step = 0;
  std::vector<int> regions;
  // ServedModel::generation() of the model the forecast came from.
  uint64_t generation = 0;
  std::vector<float> window = {};

  // Windows compare by bit pattern, so the comparison agrees with
  // HashWindow (0.0f and -0.0f are different keys).
  bool operator==(const CacheKey& other) const;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const;
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  // Resident forecast payload bytes right now (a gauge, not a counter);
  // bench_serve_load reports this per cache.
  uint64_t payload_bytes = 0;
};

// Fixed-capacity LRU map from CacheKey to a [horizon x regions] forecast.
class ForecastCache {
 public:
  explicit ForecastCache(size_t capacity);

  // Copies the cached forecast into `out` and promotes the entry to
  // most-recently-used. Counts a hit or a miss either way.
  bool Lookup(const CacheKey& key, std::vector<float>* out)
      STSM_EXCLUDES(mutex_);

  // Inserts (or refreshes) an entry, evicting the least-recently-used one
  // when at capacity. A capacity of zero disables the cache.
  void Insert(CacheKey key, std::vector<float> forecast) STSM_EXCLUDES(mutex_);

  size_t size() const STSM_EXCLUDES(mutex_);
  CacheStats stats() const STSM_EXCLUDES(mutex_);

 private:
  struct Entry {
    CacheKey key;
    std::vector<float> forecast;

    uint64_t payload_bytes() const { return forecast.size() * sizeof(float); }
  };

  const size_t capacity_;
  mutable Mutex mutex_;
  // Front = most recently used. `index_` iterators stay valid across the
  // LRU splices (std::list), so promote-then-read is safe under the lock.
  // The index refers to each entry's own key, so a window is stored once
  // per entry; list nodes never move, so the references stay valid.
  std::list<Entry> entries_ STSM_GUARDED_BY(mutex_);
  std::unordered_map<std::reference_wrapper<const CacheKey>,
                     std::list<Entry>::iterator, CacheKeyHash,
                     std::equal_to<CacheKey>>
      index_ STSM_GUARDED_BY(mutex_);
  CacheStats stats_ STSM_GUARDED_BY(mutex_);
};

}  // namespace serve
}  // namespace stsm

#endif  // STSM_SERVE_CACHE_H_
