// Open-loop load generator for the network forecast service.
//
// Arrivals follow a schedule fixed before the phase starts: a Poisson
// process at a constant mean offered rate, modulated on/off in alternating
// 250 ms windows at 1.6x and 0.4x the mean (so the mean includes the
// bursts), conditioned on sending exactly rate x duration requests. Each
// arrival names its connection, and each connection carries one model. One sender thread sleeps until each scheduled time and writes
// the frame; one reader thread per connection matches responses by id.
// Latency is timed from the scheduled send, so a stall in the generator or
// the server is charged to every request it delays, and the generator's own
// lateness is recorded.
//
// When traced, the listener's submit function is wrapped to stamp each
// request when it is handed to the server and when its response callback
// fires. Requests on one connection reach the submit function in send
// order, and each connection carries one model, so the k-th submission of a
// model is the k-th request of its connection.

#ifndef STSM_PERFBENCH_LOAD_H_
#define STSM_PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/net/listener.h"
#include "serve/sharding.h"
#include "serve/types.h"

namespace perfbench {

struct Arrival {
  int64_t at_ns = 0;  // Scheduled send, relative to the phase start.
  int conn = 0;       // Connection index; also the model index.
  int start = 0;      // Window start step in the dataset.
};

// round(mean_rps x seconds) Poisson arrivals over `seconds`, with the on/off
// burst modulation described above. `pick_conn` and `pick_start` choose each
// arrival's connection and window.
std::vector<Arrival> MakeSchedule(double mean_rps, double seconds,
                                  stsm::Rng* rng,
                                  const std::function<int()>& pick_conn,
                                  const std::function<int(int)>& pick_start);

// Everything one request needs besides its scheduled time.
struct LoadTarget {
  std::vector<std::string> models;  // One per connection.
  std::vector<int> regions;
  uint32_t deadline_ms = 0;
  // Returns the raw [T x N] observation window starting at a step.
  std::function<std::vector<float>(int)> window_at;
};

// Per-request record of one phase, in schedule order.
struct RequestRecord {
  double latency_ms = 0.0;  // Response read - scheduled send.
  double late_ms = 0.0;     // Actual send start - scheduled send.
  stsm::serve::Status status = stsm::serve::Status::kError;
  bool answered = false;
  bool cache_hit = false;
  int batch_size = 0;
  // Traced runs only: scheduled -> submit, submit -> done, done -> read.
  double ingress_ms = -1.0;
  double server_ms = -1.0;
  double egress_ms = -1.0;
  std::vector<float> forecast;  // Kept for sampled requests only.
};

struct PhaseResult {
  std::vector<RequestRecord> requests;
  double wall_seconds = 0.0;  // First scheduled send to last response.
};

// Submit-side stamps of one traced phase, indexed [connection][sequence].
struct SubmitStamps {
  explicit SubmitStamps(const std::vector<int>& per_conn);
  std::vector<int64_t> next;  // Listener loop thread only.
  std::vector<std::unique_ptr<std::atomic<int64_t>[]>> submit_ns;
  std::vector<std::unique_ptr<std::atomic<int64_t>[]>> done_ns;
};

// Routes the listener's submissions into the stamps of the current phase;
// no phase installed means nothing is recorded.
struct SubmitTracer {
  std::atomic<SubmitStamps*> phase{nullptr};
};

// The listener's submit function: the sharded registry's SubmitAsync,
// wrapped with stamps when `tracer` is non-null. `models` maps a model name
// to its connection index and must outlive the listener.
stsm::serve::net::Listener::SubmitFn MakeSubmitFn(
    stsm::serve::ShardedRegistry* sharded,
    const std::vector<std::string>* models, SubmitTracer* tracer);

// Runs one phase against a listening server on `port`. `sample_every`
// keeps the forecast of every n-th request per connection for the
// correctness check. `during` runs on the calling thread while the load is
// offered (hot-swaps); it receives the phase start time.
PhaseResult RunPhase(uint16_t port, const std::vector<Arrival>& schedule,
                     const LoadTarget& target, SubmitTracer* tracer,
                     int sample_every,
                     const std::function<void(int64_t)>& during);

}  // namespace perfbench

#endif  // STSM_PERFBENCH_LOAD_H_
