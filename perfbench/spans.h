// In-memory span log for the traced run. The benchmark wraps each call it
// makes into a layer's public API in a span; spans stay in memory while
// the run measures and are written once, as Chrome trace-event JSON, when
// the run ends. Timed runs never construct a log, so they record nothing.

#ifndef MUMAK_PERFBENCH_SPANS_H_
#define MUMAK_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name;  // "layer.call", a string literal
    uint64_t id;
    uint64_t parent;   // 0 = root
    uint64_t start_us;
    uint64_t end_us;
  };

  // Spans past this many are counted but not kept, bounding memory (and
  // the trace file) on campaigns with tens of thousands of checks.
  static constexpr size_t kMaxSpans = 50000;

  // Opens a span under the innermost open one; returns its id.
  uint64_t Begin(const char* name);
  // Closes the innermost open span, which must be `id`.
  void End(uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  // Self time per layer (the text before the first '.' of a span name):
  // each span's duration minus what its child spans cover, summed.
  std::map<std::string, double> LayerSelfSeconds() const;

  // Writes {"traceEvents": [...]} with one complete ("X") event per kept
  // span, args carrying the span and parent ids. Returns false on I/O
  // failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    size_t index;  // into spans_, or SIZE_MAX when dropped
    uint64_t id;
    uint64_t start_us;
    uint64_t child_us = 0;
  };

  uint64_t NowUs() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::map<std::string, double> self_s_;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
};

// RAII span around one layer call. Stop() gives the duration at full
// clock resolution; the log keeps whole microseconds.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log),
        id_(log->Begin(name)),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedSpan() { Stop(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span early; returns its duration in seconds (the same value
  // on later calls).
  double Stop() {
    if (!stopped_) {
      seconds_ = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
      log_->End(id_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  SpanLog* log_;
  uint64_t id_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0;
};

}  // namespace perfbench

#endif  // MUMAK_PERFBENCH_SPANS_H_
