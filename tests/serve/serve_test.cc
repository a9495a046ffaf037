// Tests for the stsm::serve subsystem: forecast cache, bounded batching
// queue, and the end-to-end server (no-grad forwards, cache hits, deadline
// degradation, unhealthy-model degradation, request validation).

#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/st_model.h"
#include "data/simulator.h"
#include "data/splits.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "serve/cache.h"
#include "serve/queue.h"
#include "serve/registry.h"
#include "tensor/autograd.h"
#include "tensor/storage.h"
#include "temp_path.h"

namespace stsm {
namespace serve {
namespace {

// ---- Cache ----

TEST(ForecastCacheTest, HitMissAndLruEviction) {
  ForecastCache cache(2);
  const CacheKey a{"m", 1, 0, {0}};
  const CacheKey b{"m", 2, 0, {0}};
  const CacheKey c{"m", 3, 0, {0}};
  std::vector<float> out;
  EXPECT_FALSE(cache.Lookup(a, &out));
  cache.Insert(a, {1.0f});
  cache.Insert(b, {2.0f});
  ASSERT_TRUE(cache.Lookup(a, &out));  // Promotes a over b.
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  cache.Insert(c, {3.0f});  // Evicts b (least recently used).
  EXPECT_FALSE(cache.Lookup(b, &out));
  EXPECT_TRUE(cache.Lookup(a, &out));
  EXPECT_TRUE(cache.Lookup(c, &out));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ForecastCacheTest, KeyDistinguishesAllComponents) {
  ForecastCache cache(8);
  const CacheKey base{"m", 7, 3, {1, 2}};
  cache.Insert(base, {1.0f});
  std::vector<float> out;
  EXPECT_FALSE(cache.Lookup(CacheKey{"other", 7, 3, {1, 2}}, &out));
  EXPECT_FALSE(cache.Lookup(CacheKey{"m", 8, 3, {1, 2}}, &out));
  EXPECT_FALSE(cache.Lookup(CacheKey{"m", 7, 4, {1, 2}}, &out));
  EXPECT_FALSE(cache.Lookup(CacheKey{"m", 7, 3, {2, 1}}, &out));
  CacheKey newer = base;
  newer.generation = base.generation + 1;
  EXPECT_FALSE(cache.Lookup(newer, &out));
  EXPECT_TRUE(cache.Lookup(base, &out));
}

TEST(ForecastCacheTest, HashWindowSensitiveToValues) {
  EXPECT_NE(HashWindow({1.0f, 2.0f}), HashWindow({2.0f, 1.0f}));
  EXPECT_EQ(HashWindow({1.0f, 2.0f}), HashWindow({1.0f, 2.0f}));
}

TEST(ForecastCacheTest, KeysWithOneWindowHashButDifferentWindowsDiffer) {
  // The hash only picks the bucket: two keys that share it (a collision)
  // must still differ when their windows do.
  ForecastCache cache(8);
  CacheKey a{"m", 42, 0, {0}};
  a.window = {1.0f, 2.0f};
  CacheKey b = a;
  b.window = {1.0f, 3.0f};
  ASSERT_EQ(a.window_hash, b.window_hash);
  EXPECT_FALSE(a == b);
  cache.Insert(a, {1.0f});
  std::vector<float> out;
  EXPECT_FALSE(cache.Lookup(b, &out));
  ASSERT_TRUE(cache.Lookup(a, &out));
  EXPECT_EQ(out, std::vector<float>{1.0f});
}

TEST(ForecastCacheTest, PayloadBytesGaugeTracksEntries) {
  ForecastCache cache(1);
  const CacheKey a{"m", 1, 0, {0}};
  const CacheKey b{"m", 2, 0, {0}};
  cache.Insert(a, {1.0f, -2.5f, 0.333333f});
  std::vector<float> out;
  ASSERT_TRUE(cache.Lookup(a, &out));
  EXPECT_EQ(out, (std::vector<float>{1.0f, -2.5f, 0.333333f}));
  EXPECT_EQ(cache.stats().payload_bytes, 3 * sizeof(float));
  // Replacement and eviction keep the gauge exact.
  cache.Insert(a, {1.0f, 2.0f});
  EXPECT_EQ(cache.stats().payload_bytes, 2 * sizeof(float));
  cache.Insert(b, {1.0f});
  EXPECT_EQ(cache.stats().payload_bytes, sizeof(float));
}

// ---- Queue ----

struct Item {
  int key = 0;
  int id = 0;
};

TEST(BoundedQueueTest, BackpressureWhenFull) {
  BoundedQueue<Item> queue(2);
  EXPECT_TRUE(queue.TryPush({1, 0}));
  EXPECT_TRUE(queue.TryPush({1, 1}));
  EXPECT_FALSE(queue.TryPush({1, 2}));  // Full.
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueueTest, PopBatchGroupsCompatibleItemsInOrder) {
  BoundedQueue<Item> queue(8);
  ASSERT_TRUE(queue.TryPush({1, 0}));
  ASSERT_TRUE(queue.TryPush({2, 1}));
  ASSERT_TRUE(queue.TryPush({1, 2}));
  ASSERT_TRUE(queue.TryPush({1, 3}));
  const auto same_key = [](const Item& a, const Item& b) {
    return a.key == b.key;
  };
  std::vector<Item> batch;
  ASSERT_TRUE(queue.PopBatch(&batch, 3, same_key));
  ASSERT_EQ(batch.size(), 3u);  // All key-1 items, oldest first.
  EXPECT_EQ(batch[0].id, 0);
  EXPECT_EQ(batch[1].id, 2);
  EXPECT_EQ(batch[2].id, 3);
  ASSERT_TRUE(queue.PopBatch(&batch, 3, same_key));
  ASSERT_EQ(batch.size(), 1u);  // The key-2 item was left in place.
  EXPECT_EQ(batch[0].id, 1);
}

TEST(BoundedQueueTest, CloseDrainsThenStops) {
  BoundedQueue<Item> queue(4);
  ASSERT_TRUE(queue.TryPush({1, 0}));
  queue.Close();
  EXPECT_FALSE(queue.TryPush({1, 1}));  // Closed to producers.
  std::vector<Item> batch;
  const auto any = [](const Item&, const Item&) { return true; };
  ASSERT_TRUE(queue.PopBatch(&batch, 4, any));  // Still drains.
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_FALSE(queue.PopBatch(&batch, 4, any));  // Closed and empty.
}

// ---- Server ----

struct ServeFixture {
  SpatioTemporalDataset dataset;
  StsmConfig config;
  SpaceSplit split;
  ModelSpec spec;
  ModelRegistry registry;
  std::string checkpoint = TempPath("stsm_serve_test_ckpt.bin");
};

ServeFixture& Fixture() {
  static ServeFixture* fixture = [] {
    auto* f = new ServeFixture();
    SimulatorConfig sim;
    sim.name = "serve-tiny";
    sim.kind = RegionKind::kHighway;
    sim.num_sensors = 24;
    sim.num_days = 3;
    sim.steps_per_day = 48;
    sim.area_km = 16.0;
    sim.seed = 11;
    f->dataset = SimulateDataset(sim);

    f->config.input_length = 8;
    f->config.horizon = 4;
    f->config.hidden_dim = 8;
    f->config.num_blocks = 1;
    f->config.dtw_band = 6;
    f->config.seed = 21;

    f->split = SplitSpace(f->dataset.coords, SplitAxis::kVertical);

    Rng init_rng(f->config.seed + 13);
    StModel model(f->config, &init_rng);
    EXPECT_TRUE(SaveModule(model, f->checkpoint));

    f->spec = BuildModelSpec("stsm", f->dataset, f->split, f->config,
                             f->checkpoint);
    EXPECT_TRUE(f->registry.Load(f->spec).healthy);
    return f;
  }();
  return *fixture;
}

ForecastRequest MakeRequest(const ServeFixture& f, int start) {
  ForecastRequest request;
  request.model = "stsm";
  request.start_step = start;
  request.regions = f.split.test;
  const int n = f.dataset.num_nodes();
  request.window.resize(static_cast<size_t>(f.config.input_length) * n);
  for (int t = 0; t < f.config.input_length; ++t) {
    for (int node = 0; node < n; ++node) {
      request.window[static_cast<size_t>(t) * n + node] =
          f.dataset.series.at(start + t, node);
    }
  }
  return request;
}

TEST(ModelSpecTest, SparseAdjacencyPredictsLikeDense) {
  // config.sparse_adjacency flips the spec's adjacencies to CSR; the served
  // forecasts must agree with the dense spec within float accumulation
  // tolerance (same Table 4 guarantee as the offline model).
  ServeFixture& f = Fixture();
  StsmConfig sparse_config = f.config;
  sparse_config.sparse_adjacency = true;
  const ModelSpec sparse_spec = BuildModelSpec(
      "stsm-sparse", f.dataset, f.split, sparse_config, f.checkpoint);
  EXPECT_TRUE(sparse_spec.adj_spatial.is_sparse());
  EXPECT_TRUE(sparse_spec.adj_temporal.is_sparse());
  EXPECT_FALSE(f.spec.adj_spatial.is_sparse());

  const auto dense_model = ServedModel::Load(f.spec);
  const auto sparse_model = ServedModel::Load(sparse_spec);
  ASSERT_TRUE(dense_model->healthy());
  ASSERT_TRUE(sparse_model->healthy());

  Rng rng(31);
  const int n = f.dataset.num_nodes();
  const Tensor inputs = Tensor::Uniform(
      Shape({2, f.config.input_length, n, 1}), -1, 1, &rng);
  const Tensor time_features =
      Tensor::Uniform(Shape({2, f.config.input_length, 3}), -1, 1, &rng);
  const Tensor dense_out = dense_model->Predict(inputs, time_features);
  const Tensor sparse_out = sparse_model->Predict(inputs, time_features);
  ASSERT_EQ(dense_out.shape(), sparse_out.shape());
  for (int64_t i = 0; i < dense_out.numel(); ++i) {
    const float d = dense_out.data()[i];
    EXPECT_NEAR(sparse_out.data()[i], d,
                1e-5f * std::max(1.0f, std::fabs(d)))
        << "element " << i;
  }
}

TEST(ForecastServerTest, HealthyModelServesOk) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  const ForecastResponse response = server.SubmitAndWait(MakeRequest(f, 0));
  ASSERT_EQ(response.status, Status::kOk) << response.message;
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(response.horizon, f.config.horizon);
  EXPECT_GE(response.batch_size, 1);
  ASSERT_EQ(response.forecast.size(),
            static_cast<size_t>(f.config.horizon) * f.split.test.size());
  for (float value : response.forecast) {
    EXPECT_TRUE(std::isfinite(value));
  }
}

TEST(ForecastServerTest, RepeatedQueryHitsCache) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  const ForecastResponse first = server.SubmitAndWait(MakeRequest(f, 5));
  ASSERT_EQ(first.status, Status::kOk);
  const ForecastResponse second = server.SubmitAndWait(MakeRequest(f, 5));
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_TRUE(second.cache_hit);
  ASSERT_EQ(second.forecast.size(), first.forecast.size());
  for (size_t i = 0; i < first.forecast.size(); ++i) {
    EXPECT_FLOAT_EQ(second.forecast[i], first.forecast[i]);
  }
  EXPECT_GE(server.stats().cache_hits, 1u);
}

TEST(ForecastServerTest, ServingBuildsNoAutogradState) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  server.SubmitAndWait(MakeRequest(f, 2));  // Warm up lazy init.
  const uint64_t nodes = autograd::NodesCreated();
  const uint64_t grads = Storage::GradAllocations();
  const ForecastResponse response = server.SubmitAndWait(MakeRequest(f, 9));
  ASSERT_EQ(response.status, Status::kOk);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(autograd::NodesCreated(), nodes)
      << "serving forward recorded autograd nodes";
  EXPECT_EQ(Storage::GradAllocations(), grads)
      << "serving forward allocated grad buffers";
}

TEST(ForecastServerTest, UnknownModelAndBadShapesError) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  ForecastRequest unknown = MakeRequest(f, 0);
  unknown.model = "no-such-model";
  EXPECT_EQ(server.SubmitAndWait(std::move(unknown)).status, Status::kError);

  ForecastRequest short_window = MakeRequest(f, 0);
  short_window.window.pop_back();
  EXPECT_EQ(server.SubmitAndWait(std::move(short_window)).status,
            Status::kError);

  ForecastRequest bad_region = MakeRequest(f, 0);
  bad_region.regions = {f.dataset.num_nodes() + 5};
  EXPECT_EQ(server.SubmitAndWait(std::move(bad_region)).status,
            Status::kError);

  ForecastRequest no_regions = MakeRequest(f, 0);
  no_regions.regions.clear();
  EXPECT_EQ(server.SubmitAndWait(std::move(no_regions)).status,
            Status::kError);
  EXPECT_EQ(server.stats().errors, 4u);
}

TEST(ForecastServerTest, ExpiredDeadlineDegradesToHistoricalAverage) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  ForecastRequest request = MakeRequest(f, 3);
  request.deadline = Clock::now() - std::chrono::seconds(1);
  const ForecastResponse response = server.SubmitAndWait(request);
  ASSERT_EQ(response.status, Status::kDegraded);
  EXPECT_EQ(response.message, "deadline missed");
  const int n = f.dataset.num_nodes();
  ASSERT_EQ(response.forecast.size(),
            static_cast<size_t>(f.config.horizon) * request.regions.size());
  // Fallback = per-region mean of the request's own window, repeated.
  for (size_t r = 0; r < request.regions.size(); ++r) {
    double sum = 0.0;
    for (int t = 0; t < f.config.input_length; ++t) {
      sum += request.window[static_cast<size_t>(t) * n + request.regions[r]];
    }
    const float mean = static_cast<float>(sum / f.config.input_length);
    for (int h = 0; h < f.config.horizon; ++h) {
      EXPECT_FLOAT_EQ(
          response.forecast[static_cast<size_t>(h) * request.regions.size() +
                            r],
          mean);
    }
  }
  EXPECT_GE(server.stats().degraded, 1u);
}

TEST(ForecastServerTest, UnhealthyModelDegradesInsteadOfFailing) {
  ServeFixture& f = Fixture();
  ModelRegistry registry;
  ModelSpec broken = f.spec;
  broken.name = "broken";
  broken.checkpoint_path = TempPath("stsm_serve_test_missing_ckpt.bin");
  EXPECT_FALSE(registry.Load(broken).healthy);  // Load failure reported...
  ASSERT_NE(registry.Find("broken"), nullptr);  // ...but still registered.
  EXPECT_FALSE(registry.Find("broken")->healthy());

  ForecastServer server(&registry, ServerConfig{});
  ForecastRequest request = MakeRequest(f, 0);
  request.model = "broken";
  const ForecastResponse response = server.SubmitAndWait(std::move(request));
  EXPECT_EQ(response.status, Status::kDegraded);
  EXPECT_EQ(response.message, "model unavailable");
  EXPECT_FALSE(response.forecast.empty());
}

TEST(ForecastServerTest, StopAnswersAllAcceptedRequests) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  std::vector<std::future<ForecastResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.Submit(MakeRequest(f, i)));
  }
  server.Stop();
  for (auto& future : futures) {
    const ForecastResponse response = future.get();  // Must not hang/throw.
    EXPECT_TRUE(response.status == Status::kOk ||
                response.status == Status::kRejected)
        << StatusName(response.status);
  }
}

TEST(ForecastServerTest, NonFiniteWindowsAreRejected) {
  ServeFixture& f = Fixture();
  ForecastServer server(&f.registry, ServerConfig{});
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  ForecastRequest all_nan = MakeRequest(f, 4);
  std::fill(all_nan.window.begin(), all_nan.window.end(), nan);
  ForecastRequest one_nan = MakeRequest(f, 4);
  one_nan.window[one_nan.window.size() / 2] = nan;
  ForecastRequest one_inf = MakeRequest(f, 4);
  one_inf.window[0] = inf;
  for (ForecastRequest* request : {&all_nan, &one_nan, &one_inf}) {
    // Twice each: a rejected window must not have been cached either.
    for (int repeat = 0; repeat < 2; ++repeat) {
      const ForecastResponse response = server.SubmitAndWait(*request);
      EXPECT_EQ(response.status, Status::kError);
      EXPECT_EQ(response.message, "non-finite window");
      EXPECT_FALSE(response.cache_hit);
      EXPECT_TRUE(response.forecast.empty());
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.errors, 6u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.cache.payload_bytes, 0u);
}

TEST(ForecastServerTest, HotSwapNeverServesTheReplacedModelFromCache) {
  // Load(A), query, Load(B) under the same name, the same query again: the
  // answer must come from B, not from A's cache entry.
  ServeFixture& f = Fixture();
  const std::string checkpoint_b = TempPath("stsm_serve_test_ckpt_b.bin");
  Rng init_rng(f.config.seed + 99);
  ASSERT_TRUE(SaveModule(StModel(f.config, &init_rng), checkpoint_b));
  ModelSpec spec_b = f.spec;
  spec_b.checkpoint_path = checkpoint_b;

  ModelRegistry registry;
  ASSERT_TRUE(registry.Load(f.spec).healthy);
  ForecastServer server(&registry, ServerConfig{});
  const ForecastResponse from_a = server.SubmitAndWait(MakeRequest(f, 6));
  ASSERT_EQ(from_a.status, Status::kOk);
  ASSERT_TRUE(server.SubmitAndWait(MakeRequest(f, 6)).cache_hit);

  ASSERT_TRUE(registry.Load(spec_b).healthy);
  const ForecastResponse from_b = server.SubmitAndWait(MakeRequest(f, 6));
  std::remove(checkpoint_b.c_str());
  ASSERT_EQ(from_b.status, Status::kOk);
  EXPECT_FALSE(from_b.cache_hit);

  ForecastServer direct(&registry, ServerConfig{});
  const ForecastResponse expected = direct.SubmitAndWait(MakeRequest(f, 6));
  ASSERT_EQ(expected.status, Status::kOk);
  EXPECT_EQ(from_b.forecast, expected.forecast);
  EXPECT_NE(from_b.forecast, from_a.forecast);
}

}  // namespace
}  // namespace serve
}  // namespace stsm
