// Outside-in span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around each call it makes into a layer of the
// program (a RunFor slice of the simulator, one ServiceRouter::Route, one planner tick, ...);
// nothing inside src/ is instrumented. Each span has a name, a wall-clock start and end (ns
// since the recorder was created) and the index of its parent span. Self time is a span's
// duration minus the durations of its direct children.
//
// Threading: spans are opened and closed only by the driving thread and by events of the
// control shard (shard 0), which never run concurrently with each other, so the open-span
// stack is a single stack. The mutex makes a stray call from elsewhere safe, not meaningful.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  // index into spans(), -1 for a root
    int64_t children_ns = 0;

    int64_t duration_ns() const { return end_ns - start_ns; }
    int64_t self_ns() const { return duration_ns() - children_ns; }
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                                origin_)
        .count();
  }

  // Opens a span as a child of the innermost open span; returns its index.
  int32_t Open(const char* name) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = name;
    span.start_ns = now;
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(span);
    const auto index = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
  }

  void Close(int32_t index) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = now;
    if (span.parent >= 0) {
      spans_[static_cast<size_t>(span.parent)].children_ns += span.duration_ns();
    }
    // Spans close in LIFO order; pop this one (and anything left open above it).
    while (!open_.empty()) {
      const int32_t top = open_.back();
      open_.pop_back();
      if (top == index) {
        break;
      }
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line: {"id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..,
  // "self_ns":..}.
  void WriteJsonl(std::ostream& os) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
         << ",\"self_ns\":" << s.self_ns() << "}\n";
    }
  }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a null recorder (the plain run) records nothing and reads no clock.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), index_(recorder != nullptr ? recorder->Open(name) : -1) {}
  ~SpanScope() {
    if (recorder_ != nullptr) {
      recorder_->Close(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
