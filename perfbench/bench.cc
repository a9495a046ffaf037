// The repository's benchmark: one deployment cycle of STSM per run.
//
// Each workload sets up a simulated city (dataset generation, StsmRunner,
// serving specs, a 2-shard registry and a TCP listener), then measures:
//   1. STSM training and evaluation through StsmRunner::Run, and the three
//      baselines (GE-GAN, IGNNK, INCREASE) under the same budget;
//   2. no-grad ServedModel::Predict at batch 1 and batch 8;
//   3. open-loop serving over loopback TCP at three fixed mean offered
//      rates, and checkpoint hot-swaps on a fixed schedule (unique-key
//      workloads in a further phase under load, the hot-key workload after
//      the load);
// and checks the outputs. Set-up is repeated; the measurements run in
// rounds, after a warm-up, so that a slow spell of a shared machine spreads
// over all of them. With --trace 1 the same untraced pass runs first,
// then a traced pass: a span-instrumented replica of the training run (its
// losses must equal the runner's bitwise), the serving phases again with
// stamps around the listener's submit function, and kernel, wire and cache
// probes. The difference between the two passes is the tracing overhead.
//
// The binary writes raw samples as JSON to --out; perfbench/run.py turns
// them into the benchmark's metrics.
//
// Usage: stsm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       --workdir DIR --out FILE

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/zoo.h"
#include "common/check.h"
#include "common/prof.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/config.h"
#include "core/st_model.h"
#include "core/stsm.h"
#include "data/registry.h"
#include "data/splits.h"
#include "graph/geo.h"
#include "load.h"
#include "nn/serialize.h"
#include "replica.h"
#include "serve/cache.h"
#include "serve/net/listener.h"
#include "serve/net/wire.h"
#include "serve/registry.h"
#include "serve/sharding.h"
#include "tensor/autograd.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "timeseries/pseudo_observations.h"
#include "timeseries/time_features.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace stsm;
namespace sv = stsm::serve;

// ---- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  bool sparse;  // CSR adjacency (StsmConfig::sparse_adjacency).
  bool hot;     // Windows from a hot set smaller than the cache.
};

// Why each workload exists is recorded in BENCHMARK.json.
const Workload kWorkloads[] = {
    {"bay-dense-unique", false, false},
    {"bay-sparse-hot", true, true},
};

// Every workload serves the registry's fixed 84-sensor city.
constexpr const char* kDataset = "bay-sim";
constexpr DataScale kScale = DataScale::kFast;
// Mean offered rates (requests/s, burst modulation included) of the
// lo / mid / hi serving phases, fixed from measured runs of the unique-key
// workload: its tail met the SLO at up to 160 rps and missed it at 180 to
// 220 rps (p99 107-165 ms). mid sits well below that knee (p95 about
// 25 ms) and hi well past it (p99 220-460 ms), each step a factor of 2.4
// or more, so a server that loses the mid rate or gains the hi one moves
// max_rps_slo by more than its bound. On the hot-key workload hi is past
// the uncached knee and holds only while the cache answers.
constexpr double kRates[3] = {50.0, 120.0, 300.0};
// STSM's RMSE on the unobserved region must lie within kRmseTolerance of
// this reference, the median over seeds 1-10 (range 12.48-13.51).
constexpr double kRmseReference = 12.85;
constexpr double kRmseTolerance = 0.1;
// The measured phases, then (unique-key workloads only) a phase at the
// lowest rate during which the TCN checkpoint is hot-swapped kSwaps times.
constexpr const char* kPhaseNames[4] = {"lo", "mid", "hi", "swap"};
constexpr int kSwaps = 6;
// Serving layout, fixed for every workload.
constexpr int kShards = 2;
constexpr int kWorkersPerShard = 2;
// The server's default queue capacity, equal to the listener's default cap
// on a connection's unanswered requests. Each model has one connection, so
// the queue never overflows: past the knee, reading pauses and the delay
// shows as latency, not as rejections.
constexpr int kQueueCapacity = 64;
constexpr int kBatchMax = 8;
constexpr int kCacheCapacity = 128;
constexpr uint32_t kDeadlineMs = 1000;
// Per model; a quarter of the cache, so no hot window is evicted.
constexpr int kHotWindows = kCacheCapacity / 4;
constexpr int kSetupRepeats = 3;
constexpr int kRounds = 3;
// Each round trains every baseline this many times: one run of a baseline
// takes tens of milliseconds, too little to time once.
constexpr int kBaselineRepeats = 3;
constexpr int kSampleEvery = 16;  // Served forecasts kept for the check.
// Shares of --seconds given to each measured serving phase, the swap phase
// and the forward probe; set-up, training and the baselines are fixed work
// on top.
constexpr double kPhaseShare = 0.2;
constexpr double kSwapPhaseShare = 0.15;
constexpr double kForwardProbeShare = 0.25;
// The forwards' fastest call is steady only over many calls made at many
// moments: on a shared machine whole stretches of tens of milliseconds run
// slow. The probe runs in kProbesPerRound slices per round, after training
// and after each serving phase.
constexpr int kB1PerB8 = 8;
constexpr int kProbesPerRound = 4;
constexpr double kWarmUpSeconds = 1.5;
// Connection / model index: each connection carries one model.
const std::vector<std::string> kModels = {"stsm", "stsm-trans"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--workdir") args.workdir = value;
    else if (key == "--out") args.out = value;
    else STSM_CHECK(false) << "unknown argument " << key;
  }
  STSM_CHECK(!args.workdir.empty() && !args.out.empty())
      << "--workdir and --out are required";
  STSM_CHECK(args.seconds > 0.0);
  return args;
}

// ---- Small helpers -------------------------------------------------------------

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> values) {
  STSM_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

int CountThreads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  int count = 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  return count;
}

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Minimal JSON writer: the caller emits keys and values in order.
class Json {
 public:
  Json& Open(const char* key = nullptr) { Key(key); s_ += '{'; first_ = true; return *this; }
  Json& Close() { s_ += '}'; first_ = false; return *this; }
  Json& OpenList(const char* key) { Key(key); s_ += '['; first_ = true; return *this; }
  Json& CloseList() { s_ += ']'; first_ = false; return *this; }
  Json& Num(const char* key, double value) {
    Key(key);
    AppendNumber(value);
    return *this;
  }
  Json& Str(const char* key, const std::string& value) {
    Key(key);
    s_ += '"' + value + '"';
    return *this;
  }
  template <typename T>
  Json& Nums(const char* key, const std::vector<T>& values) {
    Key(key);
    s_ += '[';
    for (size_t i = 0; i < values.size(); ++i) {
      if (i) s_ += ',';
      AppendNumber(static_cast<double>(values[i]));
    }
    s_ += ']';
    return *this;
  }
  const std::string& str() const { return s_; }

 private:
  void Key(const char* key) {
    if (!first_) s_ += ',';
    first_ = false;
    if (key != nullptr) s_ += '"' + std::string(key) + "\":";
  }
  void AppendNumber(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : -1.0);
    s_ += buf;
  }
  std::string s_;
  bool first_ = true;
};

// ---- Inputs ----------------------------------------------------------------------

StsmConfig WorkloadConfig(const Workload& w, uint64_t seed) {
  // The fast-scale training budget of the paper benches (bench/harness.cc)
  // with one epoch per run: a run repeats in every round.
  StsmConfig config = ConfigForDataset(kDataset);
  config.epochs = 1;
  config.batches_per_epoch = 10;
  config.batch_size = 8;
  config.hidden_dim = 16;
  config.max_eval_windows = 48;
  config.sparse_adjacency = w.sparse;
  config.seed = seed;
  return config;
}

// Writes the three served checkpoints (deterministic initial weights; the
// cost of serving does not depend on the weight values).
struct Checkpoints {
  std::string tcn, tcn_next, trans;
};

Checkpoints WriteCheckpoints(const StsmConfig& config,
                             const StsmConfig& config_trans,
                             const std::string& dir) {
  Checkpoints paths{dir + "/stsm.bin", dir + "/stsm_next.bin",
                    dir + "/stsm_trans.bin"};
  Rng a(config.seed + 13), b(config.seed + 14), c(config.seed + 15);
  STSM_CHECK(SaveModule(StModel(config, &a), paths.tcn));
  STSM_CHECK(SaveModule(StModel(config, &b), paths.tcn_next));
  STSM_CHECK(SaveModule(StModel(config_trans, &c), paths.trans));
  return paths;
}

// Everything set-up builds, torn down in reverse order.
struct Deployment {
  SpatioTemporalDataset dataset;
  SpaceSplit split;
  std::unique_ptr<StsmRunner> runner;
  sv::ModelSpec spec_tcn, spec_tcn_next, spec_trans;
  std::unique_ptr<sv::ShardedRegistry> sharded;
  std::unique_ptr<sv::net::Listener> listener;
};

std::unique_ptr<Deployment> SetUp(const StsmConfig& config,
                                  const StsmConfig& config_trans,
                                  const Checkpoints& checkpoints,
                                  SubmitTracer* tracer) {
  auto d = std::make_unique<Deployment>();
  // The registered dataset: a fixed city, like a recorded one. The seed
  // varies training and the request stream, not the city.
  d->dataset = MakeDataset(kDataset, kScale);
  d->split = FourSplits(d->dataset.coords)[0];
  d->runner = std::make_unique<StsmRunner>(d->dataset, d->split, config);
  d->spec_tcn = sv::BuildModelSpec(kModels[0], d->dataset, d->split, config,
                                   checkpoints.tcn);
  d->spec_tcn_next = sv::BuildModelSpec(kModels[0], d->dataset, d->split,
                                        config, checkpoints.tcn_next);
  d->spec_trans = sv::BuildModelSpec(kModels[1], d->dataset, d->split,
                                     config_trans, checkpoints.trans);
  sv::ShardedConfig sharded_config;
  sharded_config.num_shards = kShards;
  sharded_config.server.num_workers = kWorkersPerShard;
  sharded_config.server.queue_capacity = kQueueCapacity;
  sharded_config.server.batch_max = kBatchMax;
  sharded_config.server.cache_capacity = kCacheCapacity;
  d->sharded = std::make_unique<sv::ShardedRegistry>(sharded_config);
  STSM_CHECK(d->sharded->Load(d->spec_tcn).healthy);
  STSM_CHECK(d->sharded->Load(d->spec_trans).healthy);
  STSM_CHECK_NE(d->sharded->ShardFor(kModels[0]),
                d->sharded->ShardFor(kModels[1]));
  d->listener = std::make_unique<sv::net::Listener>(
      MakeSubmitFn(d->sharded.get(), &kModels, tracer),
      sv::net::ListenerConfig{});
  std::string error;
  STSM_CHECK(d->listener->Start(&error)) << "listener: " << error;
  return d;
}

// Raw series with the unobserved columns replaced by pseudo-observations:
// what a client of the service holds, since those regions have no sensors.
SeriesMatrix ClientSeries(const Deployment& d, const StsmConfig& config) {
  SeriesMatrix filled = d.dataset.series;
  FillPseudoObservations(&filled, PairwiseDistances(d.dataset.coords),
                         d.split.test, d.split.Observed(),
                         config.pseudo_neighbors);
  return filled;
}

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

// The server's input transform for one batch of windows (server.cc).
void BatchInputs(const sv::ModelSpec& spec, const SeriesMatrix& series,
                 const std::vector<int>& starts, Tensor* inputs,
                 Tensor* time_features) {
  const int b = static_cast<int>(starts.size());
  const int t = spec.config.input_length;
  const int n = spec.num_nodes;
  *inputs = Tensor::Zeros(Shape({b, t, n, 1}));
  *time_features = Tensor::Zeros(Shape({b, t, 3}));
  for (int i = 0; i < b; ++i) {
    const std::vector<float> window = WindowAt(series, starts[i], t);
    float* x = inputs->data() + static_cast<int64_t>(i) * t * n;
    for (size_t v = 0; v < window.size(); ++v) {
      x[v] = spec.normalizer.Transform(window[v]);
    }
    const Tensor features = TimeOfDayFeatures(
        TimeOfDayIds(starts[i], t, spec.steps_per_day), spec.steps_per_day);
    std::copy(features.data(), features.data() + static_cast<int64_t>(t) * 3,
              time_features->data() + static_cast<int64_t>(i) * t * 3);
  }
}

// What the server answers for one window, computed with a direct batch-1
// Predict and the server's output transform.
std::vector<float> DirectForecast(const sv::ServedModel& model,
                                  const SeriesMatrix& series, int start,
                                  const std::vector<int>& regions) {
  const sv::ModelSpec& spec = model.spec();
  Tensor inputs, time_features;
  BatchInputs(spec, series, {start}, &inputs, &time_features);
  const Tensor predictions = model.Predict(inputs, time_features);
  const int64_t horizon = predictions.shape()[1];
  std::vector<float> forecast(static_cast<size_t>(horizon) * regions.size());
  for (int64_t h = 0; h < horizon; ++h) {
    for (size_t r = 0; r < regions.size(); ++r) {
      forecast[static_cast<size_t>(h) * regions.size() + r] =
          spec.normalizer.Inverse(
              predictions.data()[h * spec.num_nodes + regions[r]]);
    }
  }
  return forecast;
}

// ---- Measurements ----------------------------------------------------------------

struct ServerCounters {
  uint64_t submitted = 0, batches = 0, batched_requests = 0, batch1 = 0;
  uint64_t cache_hits = 0, rejected = 0, degraded = 0, errors = 0;
  uint64_t read_pauses = 0;
};

ServerCounters ReadCounters(const Deployment& d) {
  ServerCounters c;
  for (int shard = 0; shard < d.sharded->num_shards(); ++shard) {
    const sv::ServerStats s = d.sharded->shard_stats(shard);
    c.submitted += s.submitted;
    c.batches += s.batches;
    for (size_t b = 1; b < s.batch_size_counts.size(); ++b) {
      c.batched_requests += b * s.batch_size_counts[b];
    }
    if (s.batch_size_counts.size() > 1) c.batch1 += s.batch_size_counts[1];
    c.cache_hits += s.cache_hits;
    c.rejected += s.rejected;
    c.degraded += s.degraded;
    c.errors += s.errors;
  }
  c.read_pauses = d.listener->stats().read_pauses;
  return c;
}

void WriteCounterDelta(Json* json, const char* key, const ServerCounters& a,
                       const ServerCounters& b) {
  json->Open(key)
      .Num("submitted", b.submitted - a.submitted)
      .Num("batches", b.batches - a.batches)
      .Num("batched_requests", b.batched_requests - a.batched_requests)
      .Num("batch1", b.batch1 - a.batch1)
      .Num("cache_hits", b.cache_hits - a.cache_hits)
      .Num("rejected", b.rejected - a.rejected)
      .Num("degraded", b.degraded - a.degraded)
      .Num("errors", b.errors - a.errors)
      .Num("read_pauses", b.read_pauses - a.read_pauses)
      .Close();
}

// Picks each arrival's connection and window for a workload. Arrivals
// alternate between the two models, as in bench_serve_load. Unique keys walk
// a permutation of all window starts; hot keys walk their hot set once, so
// the warm-up caches all of it, then draw from it at random.
class KeyStream {
 public:
  KeyStream(const Workload& w, int max_start, Rng* rng)
      : rng_(rng), hot_(w.hot) {
    for (size_t c = 0; c < kModels.size(); ++c) {
      keys_.push_back(w.hot ? rng->SampleWithoutReplacement(max_start,
                                                            kHotWindows)
                            : rng->Permutation(max_start));
      next_.push_back(0);
    }
  }
  int Conn() { return static_cast<int>(arrivals_++ % kModels.size()); }
  int Start(int conn) {
    const std::vector<int>& keys = keys_[conn];
    if (hot_ && next_[conn] >= keys.size()) {
      return keys[rng_->UniformInt(static_cast<int>(keys.size()))];
    }
    return keys[next_[conn]++ % keys.size()];  // No repeat within a cycle.
  }

 private:
  Rng* rng_;
  bool hot_;
  uint64_t arrivals_ = 0;
  std::vector<std::vector<int>> keys_;
  std::vector<size_t> next_;
};

struct SwapTimes {
  std::vector<double> build_spec_ms, swap_call_ms, swap_ms;
  int failed = 0;
  int attempted = 0;
};

void DoSwap(Deployment* d, const StsmConfig& config,
            const Checkpoints& checkpoints, SwapTimes* times) {
  const bool to_next = times->attempted % 2 == 0;
  ++times->attempted;
  const int64_t t0 = NowNs();
  const sv::ModelSpec spec = sv::BuildModelSpec(
      kModels[0], d->dataset, d->split, config,
      to_next ? checkpoints.tcn_next : checkpoints.tcn);
  const int64_t t1 = NowNs();
  const sv::LoadResult result = d->sharded->Swap(spec);
  const int64_t t2 = NowNs();
  if (!result.healthy || result.previous != sv::EntryHealth::kHealthy) {
    ++times->failed;
  }
  times->build_spec_ms.push_back((t1 - t0) / 1e6);
  times->swap_call_ms.push_back((t2 - t1) / 1e6);
  times->swap_ms.push_back((t2 - t0) / 1e6);
}

// One open-loop phase as run: its schedule, what came back, and the server
// counters it moved.
struct SubPhase {
  const char* name;
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<Arrival> schedule;
  PhaseResult result;
  ServerCounters before, after;
};

// The phases of one pass (untraced or traced), with process-wide figures.
struct Serving {
  std::vector<SubPhase> phases;
  int max_threads = 0;
  double cpu_seconds = 0.0;
};

// Runs one phase at `rate` for `seconds`. Swap phases hot-swap the TCN
// checkpoint kSwaps times at evenly spaced moments; other phases sample the
// process's thread count halfway through.
void RunSubPhase(const char* name, double rate, double seconds,
                 bool swap_phase, Deployment* d, const StsmConfig& config,
                 const Checkpoints& checkpoints, const LoadTarget& target,
                 KeyStream* keys, Rng* rng, SubmitTracer* tracer,
                 SwapTimes* swaps, Serving* serving) {
  SubPhase phase;
  phase.name = name;
  phase.rate = rate;
  phase.seconds = seconds;
  phase.schedule = MakeSchedule(
      rate, seconds, rng, [&] { return keys->Conn(); },
      [&](int conn) { return keys->Start(conn); });
  auto during = [&](int64_t phase_start) {
    using Clock = std::chrono::steady_clock;
    const int steps = swap_phase ? kSwaps : 1;
    for (int k = 1; k <= steps; ++k) {
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(
          phase_start +
          static_cast<int64_t>(k * seconds / (steps + 1) * 1e9))));
      if (swap_phase) {
        DoSwap(d, config, checkpoints, swaps);
      } else {
        serving->max_threads = std::max(serving->max_threads, CountThreads());
      }
    }
  };
  const double cpu_before = CpuSeconds();
  phase.before = ReadCounters(*d);
  phase.result = RunPhase(d->listener->port(), phase.schedule, target, tracer,
                          kSampleEvery, during);
  phase.after = ReadCounters(*d);
  serving->cpu_seconds += CpuSeconds() - cpu_before;
  serving->phases.push_back(std::move(phase));
}

void WriteServing(const Serving& serving, bool traced, const char* key,
                  Json* json) {
  json->OpenList(key);
  for (const SubPhase& phase : serving.phases) {
    std::vector<double> latency, late, ingress, server, egress;
    std::vector<int> status, hit, batch;
    for (const RequestRecord& r : phase.result.requests) {
      latency.push_back(r.answered ? r.latency_ms : -1.0);
      late.push_back(r.late_ms);
      status.push_back(r.answered ? static_cast<int>(r.status) : -1);
      hit.push_back(r.cache_hit);
      batch.push_back(r.batch_size);
      if (traced && r.ingress_ms >= 0.0) {
        ingress.push_back(r.ingress_ms);
        server.push_back(r.server_ms);
        egress.push_back(r.egress_ms);
      }
    }
    json->Open()
        .Str("name", phase.name)
        .Num("rate", phase.rate)
        .Num("seconds", phase.seconds)
        .Num("wall_seconds", phase.result.wall_seconds)
        .Nums("latency_ms", latency)
        .Nums("late_ms", late)
        .Nums("status", status)
        .Nums("cache_hit", hit)
        .Nums("batch_size", batch);
    if (traced) {
      json->Nums("ingress_ms", ingress).Nums("server_ms", server).Nums(
          "egress_ms", egress);
    }
    WriteCounterDelta(json, "server", phase.before, phase.after);
    json->Close();
  }
  json->CloseList();
}

// Served forecasts of sampled requests against a direct Predict of the same
// window. The hot-swapped TCN model may have answered with either
// checkpoint, so either one's forecast is accepted for it.
bool CheckServedForecasts(const Serving& serving, const Deployment& d,
                          const SeriesMatrix& series, int* checked) {
  const auto tcn = sv::ServedModel::Load(d.spec_tcn);
  const auto tcn_next = sv::ServedModel::Load(d.spec_tcn_next);
  const auto trans = sv::ServedModel::Load(d.spec_trans);
  bool ok = true;
  for (const SubPhase& phase : serving.phases) {
    for (size_t i = 0; i < phase.result.requests.size(); ++i) {
      const RequestRecord& r = phase.result.requests[i];
      if (r.forecast.empty() || r.status != sv::Status::kOk) continue;
      const Arrival& a = phase.schedule[i];
      ++*checked;
      if (a.conn == 1) {
        ok &= SameBits(r.forecast,
                       DirectForecast(*trans, series, a.start, d.split.test));
      } else {
        ok &= SameBits(r.forecast, DirectForecast(*tcn, series, a.start,
                                                  d.split.test)) ||
              SameBits(r.forecast, DirectForecast(*tcn_next, series, a.start,
                                                  d.split.test));
      }
    }
  }
  return ok;
}

// Batch-1 and batch-8 no-grad forwards, interleaved (kB1PerB8 batch-1 calls
// per batch-8 call, about equal time each), for at least `budget_s` seconds
// and 2 batch-8 calls; appends the times in milliseconds.
void ForwardProbe(const Deployment& d, const SeriesMatrix& series,
                  double budget_s, std::vector<double>* b1,
                  std::vector<double>* b8) {
  const auto model = sv::ServedModel::Load(d.spec_tcn);
  const int max_start =
      d.dataset.num_steps() - d.spec_tcn.config.input_length - 1;
  std::vector<int> starts8;
  for (int i = 0; i < 8; ++i) starts8.push_back((i * 97) % max_start);
  Tensor x1, t1, x8, t8;
  BatchInputs(d.spec_tcn, series, {starts8[0]}, &x1, &t1);
  BatchInputs(d.spec_tcn, series, starts8, &x8, &t8);
  model->Predict(x1, t1);  // Warm the buffer pool.
  model->Predict(x8, t8);
  const int64_t start = NowNs();
  for (int calls = 0; calls < 2 || Seconds(NowNs() - start) < budget_s;
       ++calls) {
    for (int i = 0; i < kB1PerB8; ++i) {
      const int64_t t = NowNs();
      model->Predict(x1, t1);
      b1->push_back((NowNs() - t) / 1e6);
    }
    const int64_t t = NowNs();
    model->Predict(x8, t8);
    b8->push_back((NowNs() - t) / 1e6);
  }
}

// Median seconds per call of `fn` over at least `min_s` seconds.
template <typename Fn>
double TimePerCall(Fn fn, double min_s) {
  fn();
  std::vector<double> samples;
  const int64_t start = NowNs();
  while (samples.size() < 5 || Seconds(NowNs() - start) < min_s) {
    const int64_t t = NowNs();
    fn();
    samples.push_back(Seconds(NowNs() - t));
  }
  return Median(samples);
}

// Propagation A·X at the workload's GCN shape through MatMul (dense A) and
// Spmm (CSR A), and PackedGemm at n = 256. Operation counts are computed
// from the shapes: 2·N·N·C per dense and 2·nnz·C per sparse product.
void KernelProbe(const Deployment& d, const StsmConfig& config, Json* json) {
  NoGradGuard no_grad;
  const Adjacency& adj = d.spec_tcn.adj_spatial;
  const Tensor dense = adj.ToDenseTensor();
  const SparseCsr sparse =
      adj.is_sparse() ? adj.sparse() : SparseCsr::FromDense(dense);
  const int64_t n = dense.shape()[0];
  const int64_t rows = static_cast<int64_t>(config.batch_size) *
                       config.input_length;
  Rng rng(7);
  const Tensor x = Tensor::Uniform(
      Shape({rows, n, static_cast<int64_t>(config.hidden_dim)}), -1, 1, &rng);
  const double flops_dense = 2.0 * n * n * config.hidden_dim * rows;
  const double flops_sparse =
      2.0 * static_cast<double>(sparse.nnz()) * config.hidden_dim * rows;
  const double matmul_s = TimePerCall([&] { MatMul(dense, x); }, 0.2);
  const double spmm_s = TimePerCall([&] { Spmm(sparse, x); }, 0.2);
  const int64_t g = 256;
  std::vector<float> a(g * g), b(g * g), c(g * g);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.Uniform(-1, 1));
    b[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  const double gemm_s = TimePerCall(
      [&] {
        PackedGemm(g, g, g, a.data(), g, 1, b.data(), g, 1, c.data(), g, 1,
                   false);
      },
      0.2);
  json->Open("kernels")
      .Num("matmul_gflops", flops_dense / matmul_s / 1e9)
      .Num("spmm_gflops", flops_sparse / spmm_s / 1e9)
      .Num("gemm_peak_gflops", 2.0 * g * g * g / gemm_s / 1e9)
      .Num("nodes", n)
      .Num("nnz", sparse.nnz())
      .Close();
}

// Wire encode/decode of the workload's request frames, and the server's
// cache step (key construction + lookup) replayed over its key stream
// through a standalone ForecastCache.
void WireAndCacheProbe(const Serving& serving, const LoadTarget& target,
                       Json* json) {
  std::vector<sv::net::RequestFrame> frames;
  const std::vector<Arrival>& sample = serving.phases.front().schedule;
  for (size_t i = 0; i < sample.size() && frames.size() < 64; ++i) {
    const Arrival& a = sample[i];
    sv::net::RequestFrame frame;
    frame.id = i;
    frame.deadline_ms = target.deadline_ms;
    frame.request.model = target.models[a.conn];
    frame.request.window = target.window_at(a.start);
    frame.request.regions = target.regions;
    frame.request.start_step = a.start;
    frames.push_back(std::move(frame));
  }
  std::vector<std::vector<uint8_t>> encoded(frames.size());
  const double encode_s = TimePerCall(
      [&] {
        for (size_t i = 0; i < frames.size(); ++i) {
          encoded[i].clear();
          sv::net::EncodeRequest(frames[i], &encoded[i]);
        }
      },
      0.1);
  bool decoded_ok = true;
  const double decode_s = TimePerCall(
      [&] {
        for (const auto& bytes : encoded) {
          sv::net::FrameHeader header;
          sv::net::RequestFrame out;
          std::string error;
          decoded_ok &= sv::net::DecodeHeader(bytes.data(), bytes.size(),
                                              &header, &error) ==
                            sv::net::DecodeResult::kOk &&
                        sv::net::DecodeRequestPayload(
                            bytes.data() + sv::net::kHeaderBytes,
                            header.payload_bytes, &out, &error);
        }
      },
      0.1);

  std::vector<sv::ForecastRequest> stream;
  for (const SubPhase& phase : serving.phases) {
    for (const Arrival& a : phase.schedule) {
      sv::ForecastRequest request;
      request.model = target.models[a.conn];
      request.window = target.window_at(a.start);
      request.regions = target.regions;
      request.start_step = a.start;
      stream.push_back(std::move(request));
    }
  }
  sv::ForecastCache cache(kCacheCapacity);
  const std::vector<float> forecast(target.regions.size() * 12, 1.0f);
  std::vector<double> lookup_us;
  std::vector<float> out;
  for (const sv::ForecastRequest& request : stream) {
    const int64_t t = NowNs();
    sv::CacheKey key;
    key.model = request.model;
    key.window_hash = sv::HashWindow(request.window);
    key.start_step = request.start_step;
    key.regions = request.regions;
    const bool hit = cache.Lookup(key, &out);
    lookup_us.push_back((NowNs() - t) / 1e3);
    if (!hit) cache.Insert(key, forecast);
  }
  json->Open("wire")
      .Num("encode_us", encode_s / frames.size() * 1e6)
      .Num("decode_us", decode_s / frames.size() * 1e6)
      .Num("decode_ok", decoded_ok)
      .Close();
  json->Nums("cache_lookup_us", lookup_us);
}

void WriteSpans(const SpanRecorder& spans, Json* json) {
  json->OpenList("spans");
  for (const Span& s : spans.spans()) {
    json->Open()
        .Str("name", s.name)
        .Num("start", static_cast<double>(s.start_ns))
        .Num("end", static_cast<double>(s.end_ns))
        .Num("parent", s.parent)
        .Close();
  }
  json->CloseList();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  STSM_CHECK(workload != nullptr) << "unknown workload " << args.workload;
  const Workload& w = *workload;
  // Measured runs keep the library's own profiler off.
  prof::SetEnabled(false);

  const StsmConfig config = WorkloadConfig(w, args.seed);
  StsmConfig config_trans = config;
  config_trans.temporal_module = TemporalModule::kTransformer;
  const Checkpoints checkpoints =
      WriteCheckpoints(config, config_trans, args.workdir);
  SubmitTracer tracer;

  Json json;
  json.Open()
      .Str("workload", w.name)
      .Num("seed", static_cast<double>(args.seed))
      .Num("trace", args.trace)
      .Num("intra_op_threads", ThreadPool::Global().num_threads())
      .Num("shards", kShards)
      .Num("workers_per_shard", kWorkersPerShard)
      .Num("rmse_reference", kRmseReference)
      .Num("rmse_tolerance", kRmseTolerance);

  // ---- Set-up, repeated; the last deployment is the one measured ----
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  for (int r = 0; r < kSetupRepeats; ++r) {
    d.reset();
    const int64_t t0 = NowNs();
    d = SetUp(config, config_trans, checkpoints,
              args.trace ? &tracer : nullptr);
    setup_s.push_back(Seconds(NowNs() - t0));
  }
  json.Nums("setup_s", setup_s)
      .Num("nodes", d->dataset.num_nodes())
      .Num("unobserved", static_cast<double>(d->split.test.size()));
  const SeriesMatrix series = ClientSeries(*d, config);
  const int max_start = d->dataset.num_steps() - config.input_length - 1;

  LoadTarget target;
  target.models = kModels;
  target.regions = d->split.test;
  target.deadline_ms = kDeadlineMs;
  target.window_at = [&](int start) {
    return WindowAt(series, start, config.input_length);
  };
  Rng load_rng(args.seed * 1000003 + 17);
  KeyStream keys(w, max_start, &load_rng);
  SwapTimes swaps;

  // ---- Untraced pass: kRounds rounds, so slow spells of the machine
  // spread over every measurement instead of landing on one ----
  const double sub_phase_s = kPhaseShare * args.seconds / kRounds;
  std::vector<ExperimentResult> runs;
  std::vector<double> b1_ms, b8_ms;
  Serving serving;
  // Warm-up, not reported: a forward of both models at every batch size
  // (first buffers of each shape), then load at the mid rate (first
  // connections and, on the hot-key workload, one request for each hot
  // window). A long-running server pays these once.
  {
    std::vector<int> starts;
    for (const sv::ModelSpec* spec : {&d->spec_tcn, &d->spec_trans}) {
      const auto model = sv::ServedModel::Load(*spec);
      for (int b = 1; b <= kBatchMax; ++b) {
        starts.assign(b, 0);
        Tensor inputs, time_features;
        BatchInputs(*spec, series, starts, &inputs, &time_features);
        model->Predict(inputs, time_features);
      }
    }
    Serving warm_up;
    RunSubPhase("warm-up", kRates[1], kWarmUpSeconds, false, d.get(), config,
                checkpoints, target, &keys, &load_rng, nullptr, &swaps,
                &warm_up);
  }
  json.OpenList("rounds");
  for (int round = 0; round < kRounds; ++round) {
    // The set-up's runner serves the first round.
    std::unique_ptr<StsmRunner> runner = std::move(d->runner);
    if (runner == nullptr) {
      runner = std::make_unique<StsmRunner>(d->dataset, d->split, config);
    }
    runs.push_back(runner->Run());
    const ExperimentResult& run = runs.back();
    json.Open()
        .Num("train_epoch_s", run.train_seconds / config.epochs)
        .Num("eval_s", run.test_seconds)
        .Num("rmse", run.metrics.rmse)
        .Nums("train_losses", run.train_losses);
    json.Open("baselines");
    for (ModelKind kind :
         {ModelKind::kGeGan, ModelKind::kIgnnk, ModelKind::kIncrease}) {
      std::vector<double> seconds;
      for (int r = 0; r < kBaselineRepeats; ++r) {
        seconds.push_back(
            RunModel(kind, d->dataset, d->split, config).train_seconds);
      }
      json.Nums(ModelName(kind).c_str(), seconds);
    }
    json.Close().Close();
    const double probe_s =
        kForwardProbeShare * args.seconds / (kRounds * kProbesPerRound);
    ForwardProbe(*d, series, probe_s, &b1_ms, &b8_ms);
    // Rotate the rate order so no rate always follows training.
    for (int k = 0; k < 3; ++k) {
      const int p = (round + k) % 3;
      RunSubPhase(kPhaseNames[p], kRates[p], sub_phase_s, false, d.get(),
                  config, checkpoints, target, &keys, &load_rng, nullptr,
                  &swaps, &serving);
      ForwardProbe(*d, series, probe_s, &b1_ms, &b8_ms);
    }
  }
  json.CloseList();
  if (w.hot) {
    // Hot-key workloads swap after the load, so no phase sees a swap.
    while (swaps.attempted < kSwaps) {
      DoSwap(d.get(), config, checkpoints, &swaps);
    }
  } else {
    RunSubPhase(kPhaseNames[3], kRates[0], kSwapPhaseShare * args.seconds,
                true, d.get(), config, checkpoints, target, &keys, &load_rng,
                nullptr, &swaps, &serving);
  }
  WriteServing(serving, false, "phases", &json);
  json.Nums("forward_b1_ms", b1_ms)
      .Nums("forward_b8_ms", b8_ms)
      .Nums("swap_ms", swaps.swap_ms)
      .Nums("build_spec_ms", swaps.build_spec_ms)
      .Nums("swap_call_ms", swaps.swap_call_ms)
      .Num("swaps_failed", swaps.failed);

  // ---- Correctness ----
  int checked = 0;
  const bool served_ok = CheckServedForecasts(serving, *d, series, &checked);
  bool runs_repeat = true;
  for (const ExperimentResult& run : runs) {
    runs_repeat &= run.train_losses == runs[0].train_losses &&
                   run.metrics.rmse == runs[0].metrics.rmse;
  }
  json.Open("checks")
      .Num("served_equals_direct", served_ok)
      .Num("served_checked", checked)
      .Num("runs_repeat", runs_repeat);

  // ---- Traced pass ----
  if (args.trace) {
    SpanRecorder spans;
    const ReplicaResult replica =
        RunTracedReplica(d->dataset, d->split, config, &spans);
    bool nodes_repeat = true;
    for (uint64_t nodes : replica.nodes_per_batch) {
      nodes_repeat &= nodes == replica.nodes_per_batch.front();
    }
    json.Num("replica_losses_equal",
             replica.train_losses == runs[0].train_losses)
        .Num("replica_rmse_equal", replica.rmse == runs[0].metrics.rmse)
        .Num("autograd_nodes_repeat", nodes_repeat);
    json.Close();  // checks
    json.Nums("autograd_nodes", replica.nodes_per_batch)
        .Num("pool_acquires", static_cast<double>(replica.pool_acquires))
        .Num("pool_hits", static_cast<double>(replica.pool_hits));
    WriteSpans(spans, &json);
    // The measured phases again, traced, in the same round order.
    Serving traced;
    for (int round = 0; round < kRounds; ++round) {
      for (int k = 0; k < 3; ++k) {
        const int p = (round + k) % 3;
        RunSubPhase(kPhaseNames[p], kRates[p], sub_phase_s, false, d.get(),
                    config, checkpoints, target, &keys, &load_rng, &tracer,
                    nullptr, &traced);
      }
    }
    WriteServing(traced, true, "traced_phases", &json);
    json.Num("traced_threads", traced.max_threads)
        .Num("traced_cpu_seconds", traced.cpu_seconds);
    KernelProbe(*d, config, &json);
    WireAndCacheProbe(traced, target, &json);
  } else {
    json.Close();  // checks
  }
  json.Num("peak_rss_mb", PeakRssMb());
  json.Close();

  std::FILE* out = std::fopen(args.out.c_str(), "w");
  STSM_CHECK(out != nullptr) << "cannot write " << args.out;
  std::fputs(json.str().c_str(), out);
  std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
