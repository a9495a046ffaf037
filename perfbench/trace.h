// In-memory span recorder for the benchmark's traced run.
//
// A span is {name, start, end, parent}; spans nest through a per-recorder
// stack, so a span opened while another is open becomes its child. Spans
// are only kept in memory and written out with the run's result; the self
// time of a span (its duration minus what its children cover) is computed
// from them afterwards.

#ifndef STSM_PERFBENCH_TRACE_H_
#define STSM_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // String literal.
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // Index into the recorder's spans; -1 for a root.
};

// Single-threaded: every span of one recorder is opened and closed on the
// thread that owns it.
class SpanRecorder {
 public:
  const std::vector<Span>& spans() const { return spans_; }

  // Returns the span's index.
  int Open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, NowNs(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void Close(int index) {
    spans_[index].end_ns = NowNs();
    stack_.pop_back();
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), index_(recorder->Open(name)) {}
  ~ScopedSpan() { recorder_->Close(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // STSM_PERFBENCH_TRACE_H_
