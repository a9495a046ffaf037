// Load generator for the stsm::serve forecast service.
//
// Serves TWO model kinds — "stsm" (TCN temporal module) and "stsm-trans"
// (transformer) — through a 2-shard ShardedRegistry, and drives it through
// five phases:
//   1. closed loop  - C client threads, each waiting for its response
//                     before sending the next request (latency under light,
//                     self-clocking load);
//   2. burst        - a burst submitted without waiting, sized past the
//                     queue capacity so backpressure (kRejected) is
//                     exercised;
//   3. cache replay - distinct queries submitted twice each, alternating
//                     model kinds so BOTH shard caches serve hits;
//   4. degradation  - requests injected with already-expired deadlines,
//                     which the workers must answer with the
//                     historical-average fallback (kDegraded);
//   5. open loop    - Poisson arrivals over REAL loopback TCP sockets
//                     through the epoll ingress: a rate sweep below and
//                     above the estimated service capacity, with bursty
//                     on/off modulation, client-side tail-latency
//                     measurement (p50/p95/p99/p99.9 over exact sorted
//                     samples), and checkpoint hot-swaps performed mid-load
//                     — which must fail zero requests.
//
// Also measures the no-grad inference speedup (same batched forward with
// autograd recording on vs. under autograd::NoGradGuard); the no-grad
// timing doubles as the capacity estimate for the open-loop rate sweep.
//
// Emits serve_load.json (aggregate + per-shard stats, including each
// shard's cache hits and misses; open-loop tail latencies per arrival rate;
// hot-swap accounting) plus the usual serve_load_profile.json.
//
// Usage: bench_serve_load [--smoke] [--open-loop]
//   --smoke      forces STSM_BENCH_SCALE=smoke
//   --open-loop  runs the network open-loop phase only (skips phases 1-4)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/prof.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "data/windows.h"
#include "harness.h"
#include "nn/serialize.h"
#include "serve/net/client.h"
#include "serve/net/listener.h"
#include "serve/net/wire.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/sharding.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "timeseries/time_features.h"

namespace stsm {
namespace bench {
namespace {

constexpr const char* kModelTcn = "stsm";
constexpr const char* kModelTrans = "stsm-trans";

struct LoadShape {
  int clients;          // Closed-loop client threads.
  int per_client;       // Requests per closed-loop client.
  int burst;            // Burst size (> queue capacity).
  int cache_pairs;      // Distinct queries replayed once each (per model).
  int expired;          // Requests with already-missed deadlines.
  int speedup_repeats;  // Forward passes per timing arm.
  double open_loop_seconds;  // Duration of each open-loop rate phase.
  int open_loop_connections;
};

LoadShape ShapeFor(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke:
      return {2, 8, 96, 6, 4, 12, 1.2, 4};
    case BenchScale::kFast:
      return {3, 16, 128, 12, 8, 16, 2.5, 4};
    case BenchScale::kFull:
      return {4, 32, 256, 24, 16, 24, 5.0, 8};
  }
  return {2, 8, 96, 6, 4, 12, 1.2, 4};
}

// A raw observation window of the full graph starting at `start`.
std::vector<float> WindowAt(const SeriesMatrix& series, int start, int t) {
  std::vector<float> window(static_cast<size_t>(t) * series.num_nodes);
  for (int step = 0; step < t; ++step) {
    for (int node = 0; node < series.num_nodes; ++node) {
      window[static_cast<size_t>(step) * series.num_nodes + node] =
          series.at(start + step, node);
    }
  }
  return window;
}

serve::ForecastRequest RequestAt(const SpatioTemporalDataset& dataset,
                                 const std::vector<int>& regions,
                                 const std::string& model, int start, int t) {
  serve::ForecastRequest request;
  request.model = model;
  request.window = WindowAt(dataset.series, start, t);
  request.regions = regions;
  request.start_step = start;
  return request;
}

// One timed forward (includes graph destruction for the grad-enabled arm —
// tearing down the recorded graph is part of that mode's per-request cost).
double TimeForwardOnce(const StModel& model, const Tensor& x,
                       const Tensor& time, const Adjacency& adj_s,
                       const Adjacency& adj_t, bool no_grad) {
  const auto start = std::chrono::steady_clock::now();
  if (no_grad) {
    NoGradGuard guard;
    model.Forward(x, time, adj_s, adj_t);
  } else {
    model.Forward(x, time, adj_s, adj_t);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Element-wise sum of every shard's counters: the "whole front-end" view
// reported at the top level of serve_load.json.
serve::ServerStats TotalStats(const serve::ShardedRegistry& sharded) {
  serve::ServerStats total;
  for (int shard = 0; shard < sharded.num_shards(); ++shard) {
    const serve::ServerStats stats = sharded.shard_stats(shard);
    total.submitted += stats.submitted;
    total.ok += stats.ok;
    total.cache_hits += stats.cache_hits;
    total.degraded += stats.degraded;
    total.rejected += stats.rejected;
    total.errors += stats.errors;
    total.batches += stats.batches;
    if (total.batch_size_counts.size() < stats.batch_size_counts.size()) {
      total.batch_size_counts.resize(stats.batch_size_counts.size(), 0);
    }
    for (size_t i = 0; i < stats.batch_size_counts.size(); ++i) {
      total.batch_size_counts[i] += stats.batch_size_counts[i];
    }
    total.cache.hits += stats.cache.hits;
    total.cache.misses += stats.cache.misses;
    total.cache.evictions += stats.cache.evictions;
    total.cache.payload_bytes += stats.cache.payload_bytes;
  }
  return total;
}

// ---- open-loop network phase -----------------------------------------------

struct RateResult {
  double target_rps = 0.0;
  int sent = 0;
  int completed = 0;
  int ok = 0;
  int cache_hits = 0;
  int degraded = 0;
  int rejected = 0;
  int errors = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

struct ShardSlice {
  uint64_t requests = 0;  // Submitted to this shard during the open loop.
  double share = 0.0;
};

struct OpenLoopResult {
  double capacity_rps = 0.0;
  uint32_t deadline_ms = 0;
  int hot_swaps = 0;
  uint64_t swap_failed_requests = 0;  // Client-observed kError count.
  std::vector<RateResult> rates;
  std::vector<ShardSlice> shards;
  serve::net::ListenerStats listener;
};

// One open-loop client connection: a Poisson sender pipelining frames and a
// reader matching responses by id. The sender half-closes when its time is
// up; the server then answers everything outstanding and closes, which
// terminates the reader.
struct OpenLoopConnection {
  serve::net::NetClient client;
  Mutex mutex;
  std::unordered_map<uint64_t, serve::Clock::time_point> sent_at
      STSM_GUARDED_BY(mutex);
  int sent = 0;
  std::vector<double> latencies_ms;
  int ok = 0;
  int cache_hits = 0;
  int degraded = 0;
  int rejected = 0;
  int errors = 0;
  bool transport_error = false;
};

double PercentileMs(const std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted_ms.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] * (1.0 - frac) + sorted_ms[hi] * frac;
}

// Runs one arrival-rate phase against the live listener. Arrivals are
// Poisson at `rate_rps` split across the connections, with bursty on/off
// modulation (alternating 250 ms windows at full and quarter rate). While
// the load runs, `swaps` checkpoint hot-swaps are executed through the
// sharded registry.
RateResult RunOpenLoopRate(uint16_t port, double rate_rps, double seconds,
                           int connections, const SpatioTemporalDataset& dataset,
                           const std::vector<int>& regions, int t,
                           int max_start, uint32_t deadline_ms, int seed,
                           serve::ShardedRegistry* sharded,
                           const serve::ModelSpec& swap_a,
                           const serve::ModelSpec& swap_b, int swaps,
                           int* swaps_done) {
  std::vector<std::unique_ptr<OpenLoopConnection>> conns;
  std::vector<std::thread> threads;
  static std::atomic<uint64_t> next_id{1};

  for (int c = 0; c < connections; ++c) {
    auto conn = std::make_unique<OpenLoopConnection>();
    std::string error;
    STSM_CHECK(conn->client.Connect("127.0.0.1", port, &error))
        << "open-loop connect failed: " << error;
    conns.push_back(std::move(conn));
  }

  const double rate_per_conn = rate_rps / connections;
  const auto phase_start = serve::Clock::now();
  const auto phase_end =
      phase_start + std::chrono::microseconds(
                        static_cast<int64_t>(seconds * 1e6));

  for (int c = 0; c < connections; ++c) {
    OpenLoopConnection* conn = conns[c].get();
    // Sender: Poisson arrivals, bursty modulation, pipelined frames.
    threads.emplace_back([&, conn, c] {
      Rng rng(seed * 977 + c);
      auto next = serve::Clock::now();
      while (next < phase_end) {
        std::this_thread::sleep_until(next);
        serve::net::RequestFrame frame;
        frame.id = next_id.fetch_add(1, std::memory_order_relaxed);
        frame.deadline_ms = deadline_ms;
        const std::string model =
            (frame.id % 2 == 0) ? kModelTcn : kModelTrans;
        frame.request = RequestAt(dataset, regions, model,
                                  rng.UniformInt(max_start), t);
        {
          MutexLock lock(conn->mutex);
          conn->sent_at.emplace(frame.id, serve::Clock::now());
        }
        std::string error;
        if (!conn->client.SendRequest(frame, &error)) {
          MutexLock lock(conn->mutex);
          conn->sent_at.erase(frame.id);
          conn->transport_error = true;
          break;
        }
        ++conn->sent;
        // Bursty on/off modulation: alternating 250 ms windows at the full
        // rate and a quarter of it.
        const int64_t elapsed_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                serve::Clock::now() - phase_start)
                .count();
        const bool on = (elapsed_ms / 250) % 2 == 0;
        const double rate = on ? rate_per_conn : rate_per_conn * 0.25;
        const double gap_s = -std::log(1.0 - rng.Uniform()) / rate;
        next += std::chrono::microseconds(
            static_cast<int64_t>(std::min(gap_s, 1.0) * 1e6));
      }
      conn->client.ShutdownWrite();
    });
    // Reader: drains responses until the server's graceful close.
    threads.emplace_back([conn] {
      while (true) {
        serve::net::ResponseFrame frame;
        std::string error;
        if (!conn->client.ReadResponse(&frame, &error)) break;
        serve::Clock::time_point sent;
        bool known = false;
        {
          MutexLock lock(conn->mutex);
          auto it = conn->sent_at.find(frame.id);
          if (it != conn->sent_at.end()) {
            sent = it->second;
            known = true;
            conn->sent_at.erase(it);
          }
        }
        if (known) {
          conn->latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(
                  serve::Clock::now() - sent)
                  .count());
        }
        switch (frame.response.status) {
          case serve::Status::kOk:
            ++conn->ok;
            if (frame.response.cache_hit) ++conn->cache_hits;
            break;
          case serve::Status::kDegraded:
            ++conn->degraded;
            break;
          case serve::Status::kRejected:
            ++conn->rejected;
            break;
          case serve::Status::kError:
            ++conn->errors;
            break;
        }
      }
    });
  }

  // Checkpoint hot-swaps in the thick of the load: the acceptance bar is
  // that not one request fails because of them.
  for (int swap = 0; swap < swaps; ++swap) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(seconds * 1e6 / (swaps + 1))));
    const serve::LoadResult result =
        sharded->Swap(swap % 2 == 0 ? swap_a : swap_b);
    STSM_CHECK(result.healthy) << "hot-swap installed an unhealthy model";
    STSM_CHECK(result.previous == serve::EntryHealth::kHealthy)
        << "hot-swap should replace a healthy serving model";
    ++*swaps_done;
  }

  for (std::thread& thread : threads) thread.join();

  RateResult result;
  result.target_rps = rate_rps;
  std::vector<double> latencies;
  for (const auto& conn : conns) {
    STSM_CHECK(!conn->transport_error) << "open-loop send failed mid-phase";
    result.sent += conn->sent;
    result.ok += conn->ok;
    result.cache_hits += conn->cache_hits;
    result.degraded += conn->degraded;
    result.rejected += conn->rejected;
    result.errors += conn->errors;
    latencies.insert(latencies.end(), conn->latencies_ms.begin(),
                     conn->latencies_ms.end());
  }
  result.completed = static_cast<int>(latencies.size());
  STSM_CHECK_EQ(result.completed, result.sent)
      << "open-loop responses went missing";
  std::sort(latencies.begin(), latencies.end());
  result.p50_ms = PercentileMs(latencies, 0.50);
  result.p95_ms = PercentileMs(latencies, 0.95);
  result.p99_ms = PercentileMs(latencies, 0.99);
  result.p999_ms = PercentileMs(latencies, 0.999);
  return result;
}

OpenLoopResult RunOpenLoopPhase(const LoadShape& shape,
                                const SpatioTemporalDataset& dataset,
                                const std::vector<int>& regions, int t,
                                int max_start, double nograd_seconds,
                                int speedup_batch, int num_workers,
                                serve::ShardedRegistry* sharded,
                                const serve::ModelSpec& swap_a,
                                const serve::ModelSpec& swap_b) {
  OpenLoopResult result;

  serve::net::Listener listener(
      [sharded](serve::ForecastRequest request,
                std::function<void(serve::ForecastResponse)> done) {
        sharded->SubmitAsync(std::move(request), std::move(done));
      },
      serve::net::ListenerConfig{});
  std::string error;
  STSM_CHECK(listener.Start(&error)) << "listener start failed: " << error;
  std::fprintf(stderr, "[serve_load] listener on 127.0.0.1:%u\n",
               listener.port());

  // Service capacity from the no-grad timing: each worker finishes a
  // batch_max-sized forward in about the measured batched-forward time.
  // Cache hits and batching slack make the real capacity higher; the sweep
  // brackets it from both sides regardless.
  const double per_request_s =
      nograd_seconds > 0.0 ? nograd_seconds / speedup_batch : 1e-3;
  const double capacity =
      std::min(2000.0, std::max(20.0, num_workers / per_request_s));
  result.capacity_rps = capacity;
  result.deadline_ms = 1000;

  std::vector<uint64_t> before(
      static_cast<size_t>(sharded->num_shards()), 0);
  for (int shard = 0; shard < sharded->num_shards(); ++shard) {
    before[shard] = sharded->shard_stats(shard).submitted;
  }

  // Under capacity, near capacity, and past it (tail under overload).
  const double sweep[] = {0.25 * capacity, 0.75 * capacity, 1.5 * capacity};
  int seed = 1;
  for (double rate : sweep) {
    std::fprintf(stderr,
                 "[serve_load] open loop: %.0f rps for %.1fs "
                 "(capacity est. %.0f) ...\n",
                 rate, shape.open_loop_seconds, capacity);
    result.rates.push_back(RunOpenLoopRate(
        listener.port(), rate, shape.open_loop_seconds,
        shape.open_loop_connections, dataset, regions, t, max_start,
        result.deadline_ms, seed++, sharded, swap_a, swap_b,
        /*swaps=*/2, &result.hot_swaps));
    result.swap_failed_requests +=
        static_cast<uint64_t>(result.rates.back().errors);
  }
  STSM_CHECK_EQ(result.swap_failed_requests, 0u)
      << "requests failed during checkpoint hot-swaps";

  uint64_t total_requests = 0;
  for (int shard = 0; shard < sharded->num_shards(); ++shard) {
    ShardSlice slice;
    slice.requests = sharded->shard_stats(shard).submitted - before[shard];
    total_requests += slice.requests;
    result.shards.push_back(slice);
  }
  for (ShardSlice& slice : result.shards) {
    slice.share = total_requests > 0
                      ? static_cast<double>(slice.requests) / total_requests
                      : 0.0;
  }

  listener.Stop();
  result.listener = listener.stats();
  STSM_CHECK_EQ(result.listener.malformed, 0u);
  return result;
}

void Run(bool open_loop_only) {
  prof::SetEnabled(true);
  prof::Reset();
  const BenchScale scale = ScaleFromEnv();
  const LoadShape shape = ShapeFor(scale);

  const std::string dataset_name = "bay-sim";
  const SpatioTemporalDataset dataset =
      MakeDataset(dataset_name, DataScaleFor(scale));
  StsmConfig config = ScaledConfig(dataset_name, scale);
  // The smoke run serves through the CSR sparse-adjacency route (DESIGN.md
  // §11): CI's serve_load_profile.json then carries the sparse.* counters,
  // and tools/check_pool_stats.py cross-checks that every CSR matrix built
  // during the run was destroyed (sparse.csr_create == sparse.csr_destroy).
  if (scale == BenchScale::kSmoke) config.sparse_adjacency = true;
  StsmConfig config_trans = config;
  config_trans.temporal_module = TemporalModule::kTransformer;
  const SpaceSplit split = BenchSplits(dataset.coords, 1)[0];
  const int t = config.input_length;

  // Checkpoints: deterministically initialised weights (serving cost is
  // independent of the weight values, so the load test skips training). The
  // second TCN checkpoint is the hot-swap target.
  const std::string checkpoint = "serve_load_checkpoint.bin";
  const std::string checkpoint_v2 = "serve_load_checkpoint_v2.bin";
  const std::string checkpoint_trans = "serve_load_checkpoint_trans.bin";
  {
    Rng init_rng(config.seed + 13);
    StModel model(config, &init_rng);
    STSM_CHECK(SaveModule(model, checkpoint)) << "cannot write " << checkpoint;
    Rng v2_rng(config.seed + 14);
    StModel model_v2(config, &v2_rng);
    STSM_CHECK(SaveModule(model_v2, checkpoint_v2));
    Rng trans_rng(config.seed + 15);
    StModel model_trans(config_trans, &trans_rng);
    STSM_CHECK(SaveModule(model_trans, checkpoint_trans));
  }

  // Everything holding tensors (registry shards, specs, servers, timing
  // model) lives in this scope so the buffers all return to the pool before
  // the profile snapshot — check_pool_stats.py asserts zero net-leaked
  // buffers.
  double grad_seconds = 0.0, nograd_seconds = 0.0, load_seconds = 0.0;
  serve::ServerStats stats;
  std::vector<serve::ServerStats> shard_stats;
  OpenLoopResult open_loop;
  const int speedup_batch = 8;
  {
    std::fprintf(stderr, "[serve_load] building model specs (%d nodes) ...\n",
                 dataset.num_nodes());
    const serve::ModelSpec spec =
        serve::BuildModelSpec(kModelTcn, dataset, split, config, checkpoint);
    const serve::ModelSpec spec_v2 = serve::BuildModelSpec(
        kModelTcn, dataset, split, config, checkpoint_v2);
    const serve::ModelSpec spec_trans = serve::BuildModelSpec(
        kModelTrans, dataset, split, config_trans, checkpoint_trans);

    serve::ShardedConfig sharded_config;
    sharded_config.num_shards = 2;
    sharded_config.server.num_workers = 2;
    sharded_config.server.queue_capacity = 32;
    sharded_config.server.batch_max = 8;
    sharded_config.server.cache_capacity = 128;
    serve::ShardedRegistry sharded(sharded_config);
    STSM_CHECK(sharded.Load(spec).healthy) << "checkpoint load failed";
    STSM_CHECK(sharded.Load(spec_trans).healthy)
        << "transformer checkpoint load failed";
    STSM_CHECK_NE(sharded.ShardFor(kModelTcn), sharded.ShardFor(kModelTrans))
        << "the two model kinds should exercise distinct shards";

    // ---- No-grad speedup (grad-recording forward vs NoGradGuard) ----
    // Batched like the server path (batch_max windows), arms interleaved,
    // min-of-N per arm so scheduler noise cancels out of the factor.
    {
      Rng init_rng(config.seed + 13);
      StModel model(config, &init_rng);
      STSM_CHECK(LoadModule(&model, checkpoint));
      model.SetTraining(false);
      const int start_span = std::max(1, dataset.num_steps() - t -
                                             config.horizon - 1);
      std::vector<int> starts;
      for (int i = 0; i < speedup_batch; ++i) {
        starts.push_back((i * 7) % start_span);
      }
      const WindowBatch batch = MakeWindowBatch(
          dataset.series, starts, WindowSpec{t, config.horizon},
          dataset.steps_per_day);
      // Warm both arms (buffer pool, instruction + data caches).
      TimeForwardOnce(model, batch.inputs, batch.input_time, spec.adj_spatial,
                      spec.adj_temporal, false);
      TimeForwardOnce(model, batch.inputs, batch.input_time, spec.adj_spatial,
                      spec.adj_temporal, true);
      double grad_min = 0.0, nograd_min = 0.0;
      for (int r = 0; r < shape.speedup_repeats; ++r) {
        const double g =
            TimeForwardOnce(model, batch.inputs, batch.input_time,
                            spec.adj_spatial, spec.adj_temporal, false);
        const double n =
            TimeForwardOnce(model, batch.inputs, batch.input_time,
                            spec.adj_spatial, spec.adj_temporal, true);
        if (r == 0 || g < grad_min) grad_min = g;
        if (r == 0 || n < nograd_min) nograd_min = n;
      }
      grad_seconds = grad_min;
      nograd_seconds = nograd_min;
    }
    std::fprintf(stderr,
                 "[serve_load] forward: grad %.2f ms, no-grad %.2f ms "
                 "(%.2fx)\n",
                 grad_seconds * 1e3, nograd_seconds * 1e3,
                 nograd_seconds > 0.0 ? grad_seconds / nograd_seconds : 0.0);

    const std::vector<int>& regions = split.test;
    const int max_start = dataset.num_steps() - t - 1;
    STSM_CHECK_GE(max_start, 1);
    const auto load_start = std::chrono::steady_clock::now();

    if (!open_loop_only) {
      // Phase 1: closed loop, alternating model kinds per request.
      std::fprintf(stderr, "[serve_load] closed loop: %d clients x %d ...\n",
                   shape.clients, shape.per_client);
      std::vector<std::thread> clients;
      for (int c = 0; c < shape.clients; ++c) {
        clients.emplace_back([&, c] {
          Rng rng(1000 + c);
          for (int i = 0; i < shape.per_client; ++i) {
            const int start = rng.UniformInt(max_start);
            const std::string model =
                (i % 2 == 0) ? kModelTcn : kModelTrans;
            sharded.SubmitAndWait(
                RequestAt(dataset, regions, model, start, t));
          }
        });
      }
      for (std::thread& client : clients) client.join();

      // Phase 2: burst past one shard's queue capacity.
      std::fprintf(stderr, "[serve_load] burst: %d ...\n", shape.burst);
      {
        Rng rng(42);
        std::vector<std::future<serve::ForecastResponse>> futures;
        futures.reserve(shape.burst);
        for (int i = 0; i < shape.burst; ++i) {
          const int start = rng.UniformInt(max_start);
          futures.push_back(sharded.Submit(
              RequestAt(dataset, regions, kModelTcn, start, t)));
        }
        for (auto& future : futures) future.get();
      }

      // Phase 3: cache replay — each query twice, alternating model kinds
      // so both shard caches take hits.
      std::fprintf(stderr, "[serve_load] cache replay: %d pairs ...\n",
                   shape.cache_pairs * 2);
      for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < shape.cache_pairs * 2; ++i) {
          const int start = ((i / 2) * 37) % max_start;
          const std::string model = (i % 2 == 0) ? kModelTcn : kModelTrans;
          sharded.SubmitAndWait(
              RequestAt(dataset, regions, model, start, t));
        }
      }

      // Phase 4: injected deadline misses -> degraded responses.
      std::fprintf(stderr, "[serve_load] expired deadlines: %d ...\n",
                   shape.expired);
      int degraded_seen = 0;
      for (int i = 0; i < shape.expired; ++i) {
        serve::ForecastRequest request = RequestAt(
            dataset, regions, kModelTcn, (i * 53 + 1) % max_start, t);
        request.deadline = serve::Clock::now() - std::chrono::milliseconds(1);
        const serve::ForecastResponse response =
            sharded.SubmitAndWait(std::move(request));
        if (response.status == serve::Status::kDegraded) ++degraded_seen;
      }
      STSM_CHECK_GE(degraded_seen, 1)
          << "deadline injection produced no degrade";
    }

    // Phase 5: open-loop Poisson arrivals over real loopback sockets, with
    // checkpoint hot-swaps mid-load.
    open_loop = RunOpenLoopPhase(shape, dataset, regions, t, max_start,
                                 nograd_seconds, speedup_batch,
                                 sharded_config.server.num_workers, &sharded,
                                 spec_v2, spec);

    sharded.Stop();
    load_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - load_start)
                       .count();
    stats = TotalStats(sharded);
    for (int shard = 0; shard < sharded.num_shards(); ++shard) {
      shard_stats.push_back(sharded.shard_stats(shard));
    }
  }

  // ---- Report ----
  const double speedup =
      nograd_seconds > 0.0 ? grad_seconds / nograd_seconds : 0.0;
  const uint64_t completed = stats.ok + stats.cache_hits + stats.degraded;
  const double qps = load_seconds > 0.0 ? completed / load_seconds : 0.0;
  const uint64_t lookups = stats.cache.hits + stats.cache.misses;
  const double hit_rate =
      lookups > 0 ? static_cast<double>(stats.cache.hits) / lookups : 0.0;
  const double degraded_rate =
      completed > 0 ? static_cast<double>(stats.degraded) / completed : 0.0;

  const prof::Snapshot snapshot = prof::TakeSnapshot();
  const prof::StatSnapshot* latency = snapshot.FindTimer("serve.latency");
  STSM_CHECK(latency != nullptr) << "serve.latency not recorded";
  const double p50 = latency->PercentileNs(0.50);
  const double p95 = latency->PercentileNs(0.95);
  const double p99 = latency->PercentileNs(0.99);

  std::FILE* out = std::fopen("serve_load.json", "w");
  STSM_CHECK(out != nullptr) << "cannot write serve_load.json";
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"scale\": \"%s\",\n", ScaleName(scale));
  std::fprintf(out, "  \"num_shards\": %zu,\n", shard_stats.size());
  std::fprintf(out, "  \"submitted\": %llu,\n",
               static_cast<unsigned long long>(stats.submitted));
  std::fprintf(out, "  \"completed\": %llu,\n",
               static_cast<unsigned long long>(completed));
  std::fprintf(out, "  \"qps\": %.3f,\n", qps);
  std::fprintf(out, "  \"latency_p50_ns\": %.0f,\n", p50);
  std::fprintf(out, "  \"latency_p95_ns\": %.0f,\n", p95);
  std::fprintf(out, "  \"latency_p99_ns\": %.0f,\n", p99);
  std::fprintf(out, "  \"ok\": %llu,\n",
               static_cast<unsigned long long>(stats.ok));
  std::fprintf(out, "  \"cache_hits\": %llu,\n",
               static_cast<unsigned long long>(stats.cache_hits));
  std::fprintf(out, "  \"cache_hit_rate\": %.4f,\n", hit_rate);
  std::fprintf(out, "  \"degraded\": %llu,\n",
               static_cast<unsigned long long>(stats.degraded));
  std::fprintf(out, "  \"degraded_rate\": %.4f,\n", degraded_rate);
  std::fprintf(out, "  \"rejected\": %llu,\n",
               static_cast<unsigned long long>(stats.rejected));
  std::fprintf(out, "  \"errors\": %llu,\n",
               static_cast<unsigned long long>(stats.errors));
  std::fprintf(out, "  \"batches\": %llu,\n",
               static_cast<unsigned long long>(stats.batches));
  std::fprintf(out, "  \"batch_size_counts\": [");
  for (size_t i = 0; i < stats.batch_size_counts.size(); ++i) {
    std::fprintf(out, "%s%llu", i == 0 ? "" : ", ",
                 static_cast<unsigned long long>(stats.batch_size_counts[i]));
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"shards\": [\n");
  for (size_t shard = 0; shard < shard_stats.size(); ++shard) {
    const serve::ServerStats& s = shard_stats[shard];
    std::fprintf(out,
                 "    {\"shard\": %zu, \"submitted\": %llu, \"ok\": %llu, "
                 "\"cache_hits\": %llu, \"cache_misses\": %llu, "
                 "\"degraded\": %llu, \"rejected\": %llu, "
                 "\"errors\": %llu, \"batches\": %llu}%s\n",
                 shard, static_cast<unsigned long long>(s.submitted),
                 static_cast<unsigned long long>(s.ok),
                 static_cast<unsigned long long>(s.cache_hits),
                 static_cast<unsigned long long>(s.cache.misses),
                 static_cast<unsigned long long>(s.degraded),
                 static_cast<unsigned long long>(s.rejected),
                 static_cast<unsigned long long>(s.errors),
                 static_cast<unsigned long long>(s.batches),
                 shard + 1 < shard_stats.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"open_loop\": {\n");
  std::fprintf(out, "    \"capacity_rps_estimate\": %.1f,\n",
               open_loop.capacity_rps);
  std::fprintf(out, "    \"deadline_ms\": %u,\n", open_loop.deadline_ms);
  std::fprintf(out, "    \"hot_swaps\": %d,\n", open_loop.hot_swaps);
  std::fprintf(out, "    \"swap_failed_requests\": %llu,\n",
               static_cast<unsigned long long>(
                   open_loop.swap_failed_requests));
  std::fprintf(out, "    \"rates\": [\n");
  for (size_t i = 0; i < open_loop.rates.size(); ++i) {
    const RateResult& r = open_loop.rates[i];
    std::fprintf(out,
                 "      {\"target_rps\": %.1f, \"sent\": %d, "
                 "\"completed\": %d, \"ok\": %d, \"cache_hits\": %d, "
                 "\"degraded\": %d, \"rejected\": %d, \"errors\": %d, "
                 "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"p999_ms\": %.3f}%s\n",
                 r.target_rps, r.sent, r.completed, r.ok, r.cache_hits,
                 r.degraded, r.rejected, r.errors, r.p50_ms, r.p95_ms,
                 r.p99_ms, r.p999_ms,
                 i + 1 < open_loop.rates.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"shards\": [\n");
  for (size_t shard = 0; shard < open_loop.shards.size(); ++shard) {
    const ShardSlice& slice = open_loop.shards[shard];
    std::fprintf(out,
                 "      {\"shard\": %zu, \"requests\": %llu, "
                 "\"share\": %.4f}%s\n",
                 shard, static_cast<unsigned long long>(slice.requests),
                 slice.share,
                 shard + 1 < open_loop.shards.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out,
               "    \"listener\": {\"accepted\": %llu, \"closed\": %llu, "
               "\"frames_in\": %llu, \"frames_out\": %llu, "
               "\"malformed\": %llu, \"read_pauses\": %llu}\n",
               static_cast<unsigned long long>(open_loop.listener.accepted),
               static_cast<unsigned long long>(open_loop.listener.closed),
               static_cast<unsigned long long>(open_loop.listener.frames_in),
               static_cast<unsigned long long>(open_loop.listener.frames_out),
               static_cast<unsigned long long>(open_loop.listener.malformed),
               static_cast<unsigned long long>(
                   open_loop.listener.read_pauses));
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"cache_payload_bytes\": %llu,\n",
               static_cast<unsigned long long>(stats.cache.payload_bytes));
  std::fprintf(out, "  \"grad_forward_seconds\": %.6f,\n", grad_seconds);
  std::fprintf(out, "  \"nograd_forward_seconds\": %.6f,\n", nograd_seconds);
  std::fprintf(out, "  \"nograd_speedup\": %.3f\n", speedup);
  std::fprintf(out, "}\n");
  std::fclose(out);
  const RateResult& top_rate = open_loop.rates.back();
  std::printf(
      "[serve_load] %llu completed in %.2fs (%.1f QPS), p50 %.2fms p99 "
      "%.2fms, cache hit rate %.1f%%, %llu degraded, %llu rejected, "
      "no-grad speedup %.2fx\n"
      "[serve_load] open loop @%.0frps: p50 %.2fms p95 %.2fms p99 %.2fms "
      "p99.9 %.2fms, %d rejected, %d hot swaps, %llu swap failures\n"
      "[serve_load.json written]\n",
      static_cast<unsigned long long>(completed), load_seconds, qps,
      p50 / 1e6, p99 / 1e6, hit_rate * 100.0,
      static_cast<unsigned long long>(stats.degraded),
      static_cast<unsigned long long>(stats.rejected), speedup,
      top_rate.target_rps, top_rate.p50_ms, top_rate.p95_ms, top_rate.p99_ms,
      top_rate.p999_ms, top_rate.rejected, open_loop.hot_swaps,
      static_cast<unsigned long long>(open_loop.swap_failed_requests));

  EmitProfile("serve_load");
  std::remove(checkpoint.c_str());
  std::remove(checkpoint_v2.c_str());
  std::remove(checkpoint_trans.c_str());
}

}  // namespace
}  // namespace bench
}  // namespace stsm

int main(int argc, char** argv) {
  bool open_loop_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      setenv("STSM_BENCH_SCALE", "smoke", /*overwrite=*/1);
    } else if (std::strcmp(argv[i], "--open-loop") == 0) {
      open_loop_only = true;
    }
  }
  stsm::bench::Run(open_loop_only);
  return 0;
}
