// Request/response vocabulary of the stsm::serve forecast service.
//
// A client submits a ForecastRequest — a raw (un-normalised) observation
// window over the model's graph plus the region ids it wants forecasts for —
// and receives a ForecastResponse future. The server answers from the
// forecast cache, from a batched no-grad model forward, or (when the
// deadline has already passed or the model is unavailable) from the
// historical-average fallback, tagging the response accordingly.

#ifndef STSM_SERVE_TYPES_H_
#define STSM_SERVE_TYPES_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace stsm {
namespace serve {

using Clock = std::chrono::steady_clock;

enum class Status {
  kOk,        // Forecast produced by the model (or served from cache).
  kDegraded,  // Fallback predictor answered; see ForecastResponse::message.
  kRejected,  // Backpressure: the request queue was full.
  kError,     // Malformed request (unknown model, wrong window size,
              // non-finite window value, ...).
};

const char* StatusName(Status status);

struct ForecastRequest {
  std::string model;          // Registry name.
  // Row-major [input_length x num_nodes] raw observation window covering
  // the model's whole graph (pseudo-observations already filled for
  // unobserved columns, exactly like the offline evaluation path). Every
  // value must be finite.
  std::vector<float> window;
  std::vector<int> regions;   // Node ids to forecast; must be non-empty.
  // Absolute step index of the window's first row — anchors the
  // time-of-day features.
  int start_step = 0;
  // Absolute deadline. A request that is picked up past its deadline is
  // answered by the fallback predictor instead of waiting for a model
  // forward it can no longer afford.
  Clock::time_point deadline = Clock::time_point::max();
};

struct ForecastResponse {
  Status status = Status::kError;
  std::string message;        // Human-readable detail for non-kOk statuses.
  // Row-major [horizon x regions.size()] raw-unit forecasts (empty for
  // kRejected/kError).
  std::vector<float> forecast;
  int horizon = 0;
  bool cache_hit = false;
  // Size of the micro-batch this request was served in (0 for cache hits,
  // rejections and fallback answers).
  int batch_size = 0;
  // End-to-end latency, filled in by the server when the response is
  // fulfilled.
  std::chrono::nanoseconds latency{0};
};

}  // namespace serve
}  // namespace stsm

#endif  // STSM_SERVE_TYPES_H_
