#include "load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/check.h"
#include "serve/net/client.h"
#include "serve/net/wire.h"
#include "trace.h"

namespace perfbench {
namespace {

using stsm::serve::ForecastRequest;
using stsm::serve::ForecastResponse;

constexpr int64_t kBurstWindowNs = 250'000'000;
// bench_serve_load's on/off shape (full rate, then a quarter of it),
// rescaled so that the mean is the offered rate: 1 / 0.625 and 0.25 / 0.625.
constexpr double kBurstHigh = 1.6;  // Rate multiplier in "on" windows.
constexpr double kBurstLow = 0.4;   // ... and in "off" windows.
// Lead time between scheduling a phase and its first possible send, so the
// threads are running before the clock starts.
constexpr int64_t kLeadNs = 20'000'000;

uint64_t FrameId(int conn, int64_t seq) {
  return (static_cast<uint64_t>(conn) << 32) | static_cast<uint64_t>(seq);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

std::vector<Arrival> MakeSchedule(double mean_rps, double seconds,
                                  stsm::Rng* rng,
                                  const std::function<int()>& pick_conn,
                                  const std::function<int(int)>& pick_start) {
  // A Poisson process conditioned on its expected count: that many arrival
  // times drawn independently from the burst-modulated intensity (by
  // rejection against the peak rate), then sorted.
  const int count = static_cast<int>(std::lround(mean_rps * seconds));
  std::vector<int64_t> times;
  times.reserve(count);
  while (static_cast<int>(times.size()) < count) {
    const int64_t at_ns = static_cast<int64_t>(rng->Uniform() * seconds * 1e9);
    const bool on = (at_ns / kBurstWindowNs) % 2 == 0;
    if (rng->Bernoulli((on ? kBurstHigh : kBurstLow) / kBurstHigh)) {
      times.push_back(at_ns);
    }
  }
  std::sort(times.begin(), times.end());
  std::vector<Arrival> schedule(count);
  for (int i = 0; i < count; ++i) {
    schedule[i].at_ns = times[i];
    schedule[i].conn = pick_conn();
    schedule[i].start = pick_start(schedule[i].conn);
  }
  return schedule;
}

SubmitStamps::SubmitStamps(const std::vector<int>& per_conn)
    : next(per_conn.size(), 0) {
  for (int count : per_conn) {
    submit_ns.emplace_back(new std::atomic<int64_t>[count]());
    done_ns.emplace_back(new std::atomic<int64_t>[count]());
  }
}

stsm::serve::net::Listener::SubmitFn MakeSubmitFn(
    stsm::serve::ShardedRegistry* sharded,
    const std::vector<std::string>* models, SubmitTracer* tracer) {
  return [sharded, models, tracer](
             ForecastRequest request,
             std::function<void(ForecastResponse)> done) {
    SubmitStamps* stamps =
        tracer == nullptr ? nullptr
                          : tracer->phase.load(std::memory_order_acquire);
    if (stamps == nullptr) {
      sharded->SubmitAsync(std::move(request), std::move(done));
      return;
    }
    const int conn = static_cast<int>(
        std::find(models->begin(), models->end(), request.model) -
        models->begin());
    STSM_CHECK_LT(conn, static_cast<int>(models->size()));
    const int64_t seq = stamps->next[conn]++;
    stamps->submit_ns[conn][seq].store(NowNs(), std::memory_order_relaxed);
    sharded->SubmitAsync(
        std::move(request),
        [stamps, conn, seq, done = std::move(done)](ForecastResponse response) {
          stamps->done_ns[conn][seq].store(NowNs(), std::memory_order_relaxed);
          done(std::move(response));
        });
  };
}

PhaseResult RunPhase(uint16_t port, const std::vector<Arrival>& schedule,
                     const LoadTarget& target, SubmitTracer* tracer,
                     int sample_every,
                     const std::function<void(int64_t)>& during) {
  const int conns = static_cast<int>(target.models.size());
  std::vector<int> per_conn(conns, 0);
  std::vector<int64_t> seq_of(schedule.size());
  std::vector<std::vector<size_t>> index_of(conns);
  for (size_t i = 0; i < schedule.size(); ++i) {
    const int c = schedule[i].conn;
    seq_of[i] = per_conn[c]++;
    index_of[c].push_back(i);
  }

  std::vector<stsm::serve::net::NetClient> clients(conns);
  for (auto& client : clients) {
    std::string error;
    STSM_CHECK(client.Connect("127.0.0.1", port, &error))
        << "connect failed: " << error;
  }
  SubmitStamps stamps(per_conn);
  if (tracer != nullptr) {
    tracer->phase.store(&stamps, std::memory_order_release);
  }

  PhaseResult result;
  result.requests.resize(schedule.size());
  std::vector<int64_t> read_ns(schedule.size(), 0);
  const int64_t phase_start = NowNs() + kLeadNs;
  std::vector<std::thread> threads;

  threads.emplace_back([&] {
    using Clock = std::chrono::steady_clock;
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& arrival = schedule[i];
      const int64_t due = phase_start + arrival.at_ns;
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(due)));
      result.requests[i].late_ms = Ms(NowNs() - due);
      stsm::serve::net::RequestFrame frame;
      frame.id = FrameId(arrival.conn, seq_of[i]);
      frame.deadline_ms = target.deadline_ms;
      frame.request.model = target.models[arrival.conn];
      frame.request.window = target.window_at(arrival.start);
      frame.request.regions = target.regions;
      frame.request.start_step = arrival.start;
      std::string error;
      STSM_CHECK(clients[arrival.conn].SendRequest(frame, &error))
          << "send failed: " << error;
    }
    for (auto& client : clients) client.ShutdownWrite();
  });
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      while (true) {
        stsm::serve::net::ResponseFrame frame;
        std::string error;
        if (!clients[c].ReadResponse(&frame, &error)) break;
        const int64_t now = NowNs();
        const int conn = static_cast<int>(frame.id >> 32);
        const uint64_t seq = frame.id & 0xffffffffu;
        STSM_CHECK(conn == c && seq < index_of[c].size())
            << "response with an unknown id";
        const size_t i = index_of[c][seq];
        RequestRecord& record = result.requests[i];
        record.latency_ms = Ms(now - (phase_start + schedule[i].at_ns));
        record.status = frame.response.status;
        record.cache_hit = frame.response.cache_hit;
        record.batch_size = frame.response.batch_size;
        record.answered = true;
        if (sample_every > 0 && seq % sample_every == 0) {
          record.forecast = std::move(frame.response.forecast);
        }
        read_ns[i] = now;
      }
    });
  }
  if (during) during(phase_start);
  for (std::thread& thread : threads) thread.join();

  int64_t last_read = phase_start;
  for (int64_t ns : read_ns) last_read = std::max(last_read, ns);
  result.wall_seconds = static_cast<double>(last_read - phase_start) / 1e9;
  if (tracer != nullptr) {
    tracer->phase.store(nullptr, std::memory_order_release);
    for (size_t i = 0; i < schedule.size(); ++i) {
      const int c = schedule[i].conn;
      const int64_t submit =
          stamps.submit_ns[c][seq_of[i]].load(std::memory_order_relaxed);
      const int64_t done =
          stamps.done_ns[c][seq_of[i]].load(std::memory_order_relaxed);
      RequestRecord& record = result.requests[i];
      if (submit == 0 || done == 0 || !record.answered) continue;
      record.ingress_ms = Ms(submit - (phase_start + schedule[i].at_ns));
      record.server_ms = Ms(done - submit);
      record.egress_ms = Ms(read_ns[i] - done);
    }
  }
  return result;
}

}  // namespace perfbench
